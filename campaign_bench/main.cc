/**
 * @file
 * Campaign benchmark driver: injected fault-campaign sites per second
 * through fault::CampaignEngine, one worker, one process.
 *
 *   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE]
 *
 * --trace 0 measures the end-to-end metrics over whole campaigns
 * (prepare() then run()) repeated until S seconds are used, with a
 * host-speed probe between them. --trace 1 is the separate traced
 * run (traced.cc). Either way the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}. README.md holds the
 * workload rationale and the metric predictions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "bench.hh"
#include "workloads/workload.hh"

namespace cbench {

namespace {

const Workload kWorkloads[] = {
    {"mm64_exec", "MatrixMul", 64, false, false},
    {"bfs_exec", "BFS", 4, false, false},
    {"mm64_exec_recovery", "MatrixMul", 64, true, false},
    {"mm64_mem_secded", "MatrixMul", 64, false, true},
};

/** FNV-1a of CampaignReport::toJson() after run(), recorded with
 *  this benchmark at kSites sites. The report is a pure function of
 *  (workload, seed), so any change to these bytes is a change to a
 *  reported campaign number. Seeds without an entry are gated on
 *  repeat-run byte identity instead (and, in the traced run, on the
 *  differential check). */
struct DigestEntry
{
    const char *workload;
    std::uint64_t seed;
    std::uint64_t digest;
};
const DigestEntry kDigests[] = {
#include "reference_digests.inc"
};

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

warped::fault::WorkloadFactory
factoryFor(const Workload &w)
{
    const std::string app = w.app;
    const unsigned size = w.size;
    return [app, size] {
        return warped::workloads::makeByNameSized(app, size);
    };
}

warped::fault::EngineConfig
engineConfig(const Workload &w, std::uint64_t seed)
{
    warped::fault::EngineConfig cfg;
    cfg.workload = w.app;
    cfg.gpu = warped::arch::GpuConfig::testDefault();
    cfg.gpu.numSms = 4;
    if (w.memDomain) {
        cfg.gpu.memModel = warped::arch::MemModel::Banked;
        cfg.gpu.eccKind = warped::arch::EccKind::Secded;
        cfg.space.execEnabled = false;
        cfg.space.memEnabled = true;
    }
    cfg.recovery.enabled = w.recovery;
    cfg.seed = seed;
    cfg.sites = kSites;
    cfg.jobs = 1;
    cfg.checkpointEvery = kSites;
    return cfg;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::optional<std::uint64_t>
referenceDigest(const Workload &w, std::uint64_t seed)
{
    for (const auto &e : kDigests)
        if (e.seed == seed && std::strcmp(e.workload, w.name) == 0)
            return e.digest;
    return std::nullopt;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(p / 100.0 * double(v.size()) +
                                         0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

namespace {

/** Words in the host-speed probe's table (16 MiB). */
constexpr std::size_t kProbeWords = std::size_t{1} << 22;

/** Median probe time on the reference host, a 4-vCPU Xeon VM at
 *  2.1 GHz; the calibrated metrics are in its seconds. */
constexpr double kProbeRefSeconds = 0.005;

/**
 * Host-speed probe: the median of three timed random walks of 2^20
 * read-modify-writes over @p table. On a shared host the simulator's
 * speed swings by up to 2x within minutes as co-tenants load the
 * memory system, and the probe's speed follows those swings. The
 * probe is this file's own code, so no change to the simulator can
 * move it.
 */
double
probeSeconds(std::vector<std::uint32_t> &table)
{
    std::vector<double> t;
    for (unsigned k = 0; k < 3; ++k) {
        const double t0 = nowSeconds();
        std::uint64_t x = k + 1;
        std::uint32_t acc = 0;
        for (std::uint32_t i = 0; i < (1u << 20); ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            auto &e = table[(x >> 33) & (table.size() - 1)];
            acc += e;
            e = acc ^ i;
        }
        t.push_back(nowSeconds() - t0);
        asm volatile("" : : "r"(acc) : "memory");
    }
    return median(t);
}

/**
 * The untraced run: whole campaigns, one after another, until the
 * time budget is used. Each campaign is prepare() on a fresh engine
 * (golden run, site space, sample plan; timed as set-up) and then
 * run() over the planned sample (timed as sites_per_s).
 *
 * The host probe runs between campaigns. Each campaign's times are
 * rescaled by the mean probe time on either side of it against
 * kProbeRefSeconds, so the metrics read as seconds of the reference
 * host at its usual speed; both are medians over the campaigns. The
 * raw host-time medians are printed beside them.
 *
 * Every campaign passes the report gate: its JSON must hash to the
 * recorded digest for this seed, or, without one, equal the first
 * campaign's bytes.
 */
Result
runUntraced(const Workload &wl, std::uint64_t seed, unsigned seconds)
{
    const auto cfg = engineConfig(wl, seed);
    const auto factory = factoryFor(wl);
    const auto expected = referenceDigest(wl, seed);
    std::vector<std::uint32_t> probeTable(kProbeWords);

    Result res;
    std::string first;
    std::vector<double> setup, rates, rawSetup, rawRates, probes;
    probes.push_back(probeSeconds(probeTable));
    const double start = nowSeconds();
    double last = 0.0;
    do {
        const double t0 = nowSeconds();
        warped::fault::CampaignEngine engine(factory, cfg);
        engine.prepare();
        const double t1 = nowSeconds();
        const auto rep = engine.run();
        const double t2 = nowSeconds();
        probes.push_back(probeSeconds(probeTable));
        const double scale = 0.5 * (probes[probes.size() - 2] + probes.back()) /
                             kProbeRefSeconds;
        rawSetup.push_back(t1 - t0);
        rawRates.push_back(double(rep.sampled) / (t2 - t1));
        setup.push_back(rawSetup.back() / scale);
        rates.push_back(rawRates.back() * scale);
        last = nowSeconds() - t0;

        const std::string json = rep.toJson();
        if (first.empty()) {
            first = json;
            std::printf("report_digest {\"%s\", %llu, 0x%016llxULL},\n",
                        wl.name, static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(fnv1a(json)));
        }
        const bool bytesOk =
            expected ? fnv1a(json) == *expected : json == first;
        const std::uint64_t planned = engine.plannedSites();
        if (!bytesOk || rep.sampled != planned ||
            rep.overall.total() != planned)
            res.correct = false;
        res.attempted += rep.sampled;
        res.failed += bytesOk ? rep.abortedRuns : rep.sampled;
    } while (nowSeconds() - start + last <= double(seconds));

    // ru_maxrss counts the probe table, which stays resident all run.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double probeMb = double(kProbeWords * 4) / (1024.0 * 1024.0);
    res.metrics = {
        {"sites_per_s", median(rates), "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0 - probeMb, "MB"},
        {"ok_site_frac",
         double(res.attempted - res.failed) / double(res.attempted),
         "frac"},
    };
    std::printf("campaigns %zu, failed_site_frac %.6f, host time: "
                "%.3f sites/s, setup %.6f s, probe %.3f ms\n",
                rates.size(), double(res.failed) / double(res.attempted),
                median(rawRates), median(rawSetup),
                median(probes) * 1e3);
    return res;
}

void
printResult(const Result &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", r.metrics[i].name.c_str(),
                    r.metrics[i].value, r.metrics[i].unit.c_str());
    std::printf("}}\n");
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "campaign_bench: %s\n"
                 "usage: campaign_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n"
                 "workloads:",
                 why);
    for (const auto &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text, std::uint64_t max)
{
    if (!text || !*text || *text == '-')
        usage((std::string(flag) + " needs a non-negative integer")
                  .c_str());
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || *end || v > max)
        usage((std::string(flag) + " value out of range: " + text)
                  .c_str());
    return v;
}

} // namespace
} // namespace cbench

int
main(int argc, char **argv)
{
    using namespace cbench;
    const Workload *wl = nullptr;
    std::optional<std::uint64_t> seed, seconds, trace;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[++i] : nullptr;
        if (a == "--workload") {
            if (!v || !(wl = findWorkload(v)))
                usage("unknown or missing --workload");
        } else if (a == "--seed") {
            seed = parseUnsigned("--seed", v, ~std::uint64_t{0});
        } else if (a == "--seconds") {
            seconds = parseUnsigned("--seconds", v, 3600);
        } else if (a == "--trace") {
            trace = parseUnsigned("--trace", v, 1);
        } else if (a == "--trace-out") {
            if (!v)
                usage("--trace-out needs a file name");
            traceOut = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!wl || !seed || !seconds || !trace || *seconds == 0)
        usage("--workload, --seed, --seconds (>= 1) and --trace are "
              "required");

    try {
        const Result r = *trace ? runTraced(*wl, *seed, traceOut)
                                : runUntraced(*wl, *seed, *seconds);
        printResult(r);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 1;
    }
}
