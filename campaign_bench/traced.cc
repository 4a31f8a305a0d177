/**
 * @file
 * The traced run of the campaign benchmark.
 *
 * Spans are recorded only here, around public calls into each layer;
 * nothing inside the simulator is instrumented. All spans of one site
 * carry the site's run index, they stay in memory, and they are
 * written out (Chrome trace format plus per-name self time) when the
 * run ends.
 *
 * The run also checks the engine from outside: every site is replayed
 * through the public Gpu/Workload calls and classified with
 * fault::classifyOutcome / classifyMemOutcome, and the per-site
 * shard deltas, folded by fault::ShardAggregator, must reproduce
 * run()'s report byte for byte. Neither check needs a stored digest,
 * so it holds at any seed.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>

#include "arch/simt_stack.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "dmr/replay_queue.hh"
#include "dmr/rfu.hh"
#include "fault/fault_injector.hh"
#include "fault/shard.hh"
#include "gpu/gpu.hh"
#include "mem/mem_fault.hh"

namespace cbench {

using namespace warped;
using fault::OutcomeClass;

namespace {

constexpr std::uint64_t kNoRun = ~std::uint64_t{0};

/** Spans in memory; parents follow the open-span stack. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t run;
        std::size_t parent;
        double begin;
        double end;
    };
    static constexpr std::size_t kRoot = ~std::size_t{0};

    /** Time @p f as a span named @p name, child of the open span. */
    template <class F>
    auto
    time(const char *name, std::uint64_t run, F &&f)
    {
        const std::size_t id = spans_.size();
        spans_.push_back({name, run, open_.empty() ? kRoot : open_.back(),
                          nowSeconds(), 0.0});
        open_.push_back(id);
        struct Close
        {
            Tracer &t;
            std::size_t id;
            ~Close()
            {
                t.spans_[id].end = nowSeconds();
                t.open_.pop_back();
            }
        } close{*this, id};
        return f();
    }

    /** Durations, in seconds, of every span named @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const auto &s : spans_)
            if (name == s.name)
                out.push_back(s.end - s.begin);
        return out;
    }

    double
    total(const std::string &name) const
    {
        double sum = 0.0;
        for (const double d : durations(name))
            sum += d;
        return sum;
    }

    /** Chrome trace events plus, per span name, count, total and self
     *  time (a span minus the time its child spans cover). */
    void
    write(const std::string &path) const
    {
        std::vector<double> childTime(spans_.size(), 0.0);
        for (const auto &s : spans_)
            if (s.parent != kRoot)
                childTime[s.parent] += s.end - s.begin;
        struct Agg
        {
            std::size_t count = 0;
            double total = 0.0, self = 0.0;
        };
        std::map<std::string, Agg> agg;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto &a = agg[spans_[i].name];
            const double d = spans_[i].end - spans_[i].begin;
            ++a.count;
            a.total += d;
            a.self += d - childTime[i];
        }

        std::ofstream f(path);
        if (!f) {
            std::fprintf(stderr, "campaign_bench: cannot write %s\n",
                         path.c_str());
            return;
        }
        const double t0 = spans_.empty() ? 0.0 : spans_.front().begin;
        f << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &s = spans_[i];
            char line[256];
            std::snprintf(line, sizeof line,
                          "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                          "\"args\": {\"run\": %lld}}",
                          i ? ",\n" : "", s.name, (s.begin - t0) * 1e6,
                          (s.end - s.begin) * 1e6,
                          s.run == kNoRun ? -1LL
                                          : static_cast<long long>(s.run));
            f << line;
        }
        f << "\n], \"selfTime\": {\n";
        std::size_t n = 0;
        for (const auto &[name, a] : agg) {
            char line[256];
            std::snprintf(line, sizeof line,
                          "%s\"%s\": {\"count\": %zu, \"total_ms\": %.3f, "
                          "\"self_ms\": %.3f}",
                          n++ ? ",\n" : "", name.c_str(), a.count,
                          a.total * 1e3, a.self * 1e3);
            f << line;
        }
        f << "\n}}\n";
    }

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** Forwarding hook: counts the per-lane hook calls of one run. */
class CountingHook final : public func::FaultHook
{
  public:
    explicit CountingHook(func::FaultHook &inner) : inner_(inner) {}

    RegValue
    apply(RegValue pure, const func::FaultCtx &ctx) override
    {
        ++calls_;
        return inner_.apply(pure, ctx);
    }

    std::uint64_t calls() const { return calls_; }

  private:
    func::FaultHook &inner_;
    std::uint64_t calls_ = 0;
};

/** Class labels of the per-class metrics; masked splits by
 *  activation. */
const char *const kClassLabels[] = {
    "masked_inactive", "masked_active", "detected", "recovered",
    "ecc_corrected",   "sdc",           "due"};

std::size_t
classSlot(OutcomeClass c, bool activated)
{
    switch (c) {
      case OutcomeClass::Masked:
        return activated ? 1 : 0;
      case OutcomeClass::Detected:
        return 2;
      case OutcomeClass::Recovered:
        return 3;
      case OutcomeClass::EccCorrected:
        return 4;
      case OutcomeClass::Sdc:
        return 5;
      case OutcomeClass::Due:
        return 6;
    }
    return 6;
}

/** The class slot of a one-run report. */
std::size_t
classSlot(const fault::OutcomeCounts &c)
{
    if (c.masked)
        return c.notActivated ? 0 : 1;
    if (c.detected)
        return 2;
    if (c.recovered)
        return 3;
    if (c.eccCorrected)
        return 4;
    if (c.sdc)
        return 5;
    return 6;
}

/** What the replay of one site saw. */
struct SiteReplay
{
    OutcomeClass cls = OutcomeClass::Masked;
    bool activated = false;
    bool aborted = false;
    std::uint64_t cycles = 0;
    /** Cycles simulated after the verdict was already fixed. */
    std::uint64_t afterVerdict = 0;
    std::uint64_t hookCalls = 0;
    std::uint64_t activations = 0;
    std::uint64_t comparisons = 0;
    std::uint64_t enqueues = 0;
    std::uint64_t eagerStalls = 0;
    std::uint64_t intraVerified = 0;
    std::uint64_t verified = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t recoveryCycles = 0;
    std::uint64_t planeReads = 0;
    std::uint64_t eccCorrected = 0;
    std::uint64_t eccUncorrectable = 0;
};

void
takeCounters(SiteReplay &s, const gpu::LaunchResult &r)
{
    s.cycles = r.cycles;
    s.comparisons = r.dmr.comparisons;
    s.enqueues = r.dmr.enqueues;
    s.eagerStalls = r.dmr.eagerStalls;
    s.intraVerified = r.dmr.intraVerifiedThreads;
    s.verified = r.dmr.verifiedThreadInstrs;
    s.checkpoints = r.recovery.checkpoints;
    s.rollbacks = r.recovery.rollbacks;
    s.recoveryCycles = r.recovery.recoveryCycles;
}

/**
 * Re-run one site the way the engine's runOne does, through the
 * public calls only, timing each call: Gpu construction, workload
 * setup, launch and verify. verify() runs whenever the launch did not
 * hang, so its cost is sampled on every site; its answer is used only
 * where the engine consults it. Same twice-then-hang-DUE contract as
 * the engine.
 */
SiteReplay
replaySite(Tracer &tr, std::uint64_t run, const fault::FaultSpec &spec,
           const fault::EngineConfig &cfg,
           const fault::WorkloadFactory &factory, Cycle span)
{
    const Cycle watchdog = span * 20 + 100000;
    SiteReplay s;
    for (unsigned attempt = 0; attempt < 2; ++attempt) {
        auto w = factory();
        fault::FaultInjector injector;
        injector.add(spec);
        CountingHook hook(injector);
        mem::MemFaultPlane plane(cfg.gpu.eccKind);
        try {
            std::optional<gpu::Gpu> g;
            tr.time("gpu.construct", run, [&] {
                g.emplace(cfg.gpu, cfg.dmr, /*seed=*/1,
                          spec.isMemory ? nullptr : &hook, cfg.recovery,
                          cfg.scheme);
            });
            tr.time("workloads.setup", run, [&] { w->setup(*g); });
            if (spec.isMemory) {
                plane.inject(spec.memAddr, spec.memKind, spec.bit,
                             spec.cycleBegin);
                g->mem().attachFaultPlane(&plane);
            }
            const auto r = tr.time("gpu.launch", run, [&] {
                return g->launch(w->program(), w->gridBlocks(),
                                 w->blockThreads(), watchdog);
            });
            bool verified = true;
            if (!r.hung)
                verified = tr.time("workloads.verify", run,
                                   [&] { return w->verify(*g); });
            takeCounters(s, r);
            const bool detected = r.dmr.errorsDetected > 0;

            if (spec.isMemory) {
                g->mem().attachFaultPlane(nullptr);
                s.activated = plane.consumedReads() > 0;
                s.planeReads = plane.consumedReads();
                s.eccCorrected = plane.corrected();
                s.eccUncorrectable = plane.uncorrectable();
                s.cls = fault::classifyMemOutcome(
                    s.activated, plane.uncorrectable() > 0,
                    plane.corrected() > 0, detected, r.hung, verified);
            } else {
                s.activated = injector.activations() > 0;
                s.activations = injector.activations();
                s.hookCalls = hook.calls();
                const bool recoveredClean = cfg.recovery.enabled &&
                                            detected &&
                                            r.recovery.giveUps == 0;
                const bool outputOk =
                    s.activated && !r.hung &&
                            (!detected || recoveredClean)
                        ? verified
                        : true;
                s.cls = fault::classifyOutcome(s.activated, detected,
                                               r.hung, outputOk,
                                               recoveredClean);
            }

            // A never-activated site's verdict is fixed from cycle 0;
            // with recovery off a detection is final at the first
            // comparator mismatch.
            if (!s.activated) {
                s.afterVerdict = r.cycles;
            } else if (s.cls == OutcomeClass::Detected &&
                       !cfg.recovery.enabled && !r.dmr.errorLog.empty()) {
                Cycle first = r.dmr.errorLog.front().cycle;
                for (const auto &e : r.dmr.errorLog)
                    first = std::min(first, e.cycle);
                s.afterVerdict = r.cycles - std::min(r.cycles, first);
            }
            return s;
        } catch (const std::exception &e) {
            if (attempt == 0)
                continue;
            std::fprintf(stderr,
                         "campaign_bench: replay of run %llu aborted "
                         "twice: %s\n",
                         static_cast<unsigned long long>(run), e.what());
            s.activated = true;
            s.cls = OutcomeClass::Due;
            s.aborted = true;
        }
    }
    return s;
}

/** Keep @p v alive against dead-code elimination. */
template <class T>
void
keep(const T &v)
{
    asm volatile("" : : "g"(&v) : "memory");
}

/** Median nanoseconds per call of @p op over seven timed batches. */
template <class Op>
double
nsPerOp(Op op)
{
    constexpr unsigned kBatches = 7;
    constexpr unsigned kIters = 1u << 18;
    std::vector<double> ns;
    for (unsigned b = 0; b < kBatches; ++b) {
        const double t0 = nowSeconds();
        for (unsigned i = 0; i < kIters; ++i)
            op(i);
        ns.push_back((nowSeconds() - t0) * 1e9 / kIters);
    }
    return median(ns);
}

/** The structure micro-timings, through the same public calls as
 *  bench/micro_structures.cc. */
void
structureTimings(Tracer &tr, std::vector<Metric> &out)
{
    out.push_back({"dmr.rfu_pair_ns", tr.time("dmr.rfu_pair", kNoRun, [] {
                       std::array<unsigned, dmr::Rfu::kMaxWidth> v{};
                       return nsPerOp([&](unsigned i) {
                           keep(dmr::Rfu::pair(i & 0xFF, 8, v));
                       });
                   }),
                   "ns"});
    out.push_back(
        {"dmr.replayq_churn_ns", tr.time("dmr.replayq_churn", kNoRun, [] {
             dmr::ReplayQueue q(10);
             Rng rng(1);
             func::ExecRecord r;
             r.active = LaneMask::full(32);
             return nsPerOp([&](unsigned i) {
                 r.instr.op = i % 2 ? isa::Opcode::IADD : isa::Opcode::LDG;
                 if (!q.full())
                     q.push(r, i);
                 keep(q.popDifferentType(isa::UnitType::SFU, rng));
             });
         }),
         "ns"});
    out.push_back({"arch.simt_stack_ns", tr.time("arch.simt_stack", kNoRun, [] {
                       arch::SimtStack s;
                       return nsPerOp([&](unsigned) {
                           s.reset(LaneMask::full(32), 0);
                           s.branch(LaneMask(0xFFFF), 10, 1, 20);
                           s.advanceTo(20);
                           s.advanceTo(20);
                           keep(s.depth());
                       });
                   }),
                   "ns"});
}

bool
sameCounts(const fault::OutcomeCounts &a, const fault::OutcomeCounts &b)
{
    return a.masked == b.masked && a.detected == b.detected &&
           a.recovered == b.recovered && a.eccCorrected == b.eccCorrected &&
           a.sdc == b.sdc && a.due == b.due &&
           a.notActivated == b.notActivated;
}

} // namespace

Result
runTraced(const Workload &wl, std::uint64_t seed,
          const std::string &trace_path)
{
    const auto cfg = engineConfig(wl, seed);
    const auto factory = factoryFor(wl);
    Tracer tr;
    Result res;

    fault::CampaignEngine engine(factory, cfg);
    tr.time("fault.prepare", kNoRun, [&] { engine.prepare(); });
    const std::uint64_t planned = engine.plannedSites();
    const auto whole =
        tr.time("fault.run", kNoRun, [&] { return engine.run(); });
    const std::string wholeJson = whole.toJson();

    // Every site again as its own one-run shard, through the delta
    // wire format and the aggregator, as the shard service folds it.
    fault::ShardAggregator agg(engine.skeleton(), engine.signature(),
                               planned, planned);
    std::vector<std::size_t> engineSlot;
    for (std::uint64_t i = 0; i < planned; ++i) {
        const auto d =
            tr.time("fault.site", i, [&] { return engine.runRange(i, 1); });
        engineSlot.push_back(classSlot(d.overall));
        const std::string text = tr.time("fault.delta_encode", i, [&] {
            fault::ShardDelta delta;
            delta.shard = delta.base = i;
            delta.count = 1;
            delta.signature = engine.signature();
            delta.counters = d.toMetrics().counters();
            return delta.toJson();
        });
        const auto back = tr.time("fault.delta_decode", i, [&] {
            return fault::ShardDelta::fromJson(text);
        });
        tr.time("fault.fold", i, [&] { agg.fold(back); });
    }
    const auto aggReport = agg.report();
    std::string aggJson;
    for (unsigned k = 0; k < 9; ++k)
        aggJson = tr.time("fault.report_json", kNoRun,
                          [&] { return aggReport.toJson(); });

    // Replay every site through the public layer calls.
    std::vector<SiteReplay> sites;
    fault::OutcomeCounts tally;
    for (std::uint64_t i = 0; i < planned; ++i) {
        tr.time("replay.site", i, [&] {
            const auto spec = tr.time("fault.sample", i, [&] {
                return engine.space().site(
                    engine.space().sampleIndex(seed, i));
            });
            sites.push_back(
                replaySite(tr, i, spec, cfg, factory, engine.span()));
        });
        tally.add(sites.back().cls, sites.back().activated);
    }

    // Gates: counts, digest, aggregator bytes, per-site classes and
    // the replay tally.
    res.attempted = planned;
    const auto expected = referenceDigest(wl, seed);
    const bool wholeOk = whole.sampled == planned &&
                         whole.overall.total() == planned &&
                         (!expected || fnv1a(wholeJson) == *expected);
    const bool aggOk = aggJson == wholeJson;
    const bool tallyOk = sameCounts(tally, whole.overall);
    std::vector<bool> failed(planned, false);
    for (const auto &a : whole.abortLog)
        if (a.runIndex < planned)
            failed[a.runIndex] = true;
    std::uint64_t siteMismatches = 0;
    for (std::uint64_t i = 0; i < planned; ++i) {
        const auto &s = sites[i];
        if (engineSlot[i] == classSlot(s.cls, s.activated) && !s.aborted)
            continue;
        failed[i] = true;
        ++siteMismatches;
        std::fprintf(stderr,
                     "differential: run %llu engine %s, replay %s%s\n",
                     static_cast<unsigned long long>(i),
                     kClassLabels[engineSlot[i]],
                     kClassLabels[classSlot(s.cls, s.activated)],
                     s.aborted ? " (aborted)" : "");
    }
    res.failed = wholeOk && aggOk
                     ? static_cast<std::uint64_t>(std::count(
                           failed.begin(), failed.end(), true))
                     : planned;
    res.correct = wholeOk && aggOk && tallyOk && siteMismatches == 0;
    std::printf("differential: report %s, aggregator %s, tally %s, "
                "%llu site mismatches\n",
                wholeOk ? "ok" : "FAILED", aggOk ? "identical" : "DIFFERS",
                tallyOk ? "ok" : "DIFFERS",
                static_cast<unsigned long long>(siteMismatches));

    // Per-layer metrics.
    auto &m = res.metrics;
    auto us = [&](const char *span) { return median(tr.durations(span)) * 1e6; };
    const auto siteS = tr.durations("fault.site");
    std::vector<double> siteMs;
    for (const double d : siteS)
        siteMs.push_back(d * 1e3);
    m.push_back({"fault.prepare_ms", tr.total("fault.prepare") * 1e3, "ms"});
    m.push_back({"fault.site_ms.p50", percentile(siteMs, 50), "ms"});
    m.push_back({"fault.site_ms.p99", percentile(siteMs, 99), "ms"});
    for (std::size_t c = 0; c < std::size(kClassLabels); ++c) {
        std::vector<double> ms;
        for (std::uint64_t i = 0; i < planned; ++i)
            if (engineSlot[i] == c)
                ms.push_back(siteMs[i]);
        m.push_back({std::string("fault.site_ms.") + kClassLabels[c] +
                         ".p50",
                     percentile(ms, 50), "ms"});
        m.push_back({std::string("fault.sites.") + kClassLabels[c],
                     double(ms.size()), "count"});
    }
    m.push_back({"fault.sample_us", us("fault.sample"), "us"});
    m.push_back({"fault.delta_encode_us", us("fault.delta_encode"), "us"});
    m.push_back({"fault.delta_decode_us", us("fault.delta_decode"), "us"});
    m.push_back({"fault.fold_us", us("fault.fold"), "us"});
    m.push_back({"fault.report_json_us", us("fault.report_json"), "us"});
    m.push_back({"fault.failed_site_frac",
                 double(res.failed) / double(res.attempted), "frac"});

    SiteReplay sum;
    for (const auto &s : sites) {
        sum.cycles += s.cycles;
        sum.afterVerdict += s.afterVerdict;
        sum.hookCalls += s.hookCalls;
        sum.activations += s.activations;
        sum.comparisons += s.comparisons;
        sum.enqueues += s.enqueues;
        sum.eagerStalls += s.eagerStalls;
        sum.intraVerified += s.intraVerified;
        sum.verified += s.verified;
        sum.checkpoints += s.checkpoints;
        sum.rollbacks += s.rollbacks;
        sum.recoveryCycles += s.recoveryCycles;
        sum.planeReads += s.planeReads;
        sum.eccCorrected += s.eccCorrected;
        sum.eccUncorrectable += s.eccUncorrectable;
    }
    const double n = double(planned);
    auto perSite = [&](std::uint64_t v) { return double(v) / n; };
    auto frac = [](std::uint64_t a, std::uint64_t b) {
        return b ? double(a) / double(b) : 0.0;
    };
    m.push_back({"gpu.construct_us", us("gpu.construct"), "us"});
    m.push_back({"gpu.launch_ms", us("gpu.launch") / 1e3, "ms"});
    m.push_back({"gpu.launch_ns_per_cycle",
                 tr.total("gpu.launch") * 1e9 / double(sum.cycles),
                 "ns/cycle"});
    m.push_back({"gpu.cycles_per_site_rel",
                 perSite(sum.cycles) / double(engine.span()), "rel"});
    m.push_back({"gpu.cycles_after_verdict_frac",
                 frac(sum.afterVerdict, sum.cycles), "frac"});
    m.push_back({"workloads.setup_us", us("workloads.setup"), "us"});
    m.push_back({"workloads.verify_us", us("workloads.verify"), "us"});
    m.push_back({"func.hook_calls_per_site", perSite(sum.hookCalls),
                 "count"});
    m.push_back({"func.activations_per_site", perSite(sum.activations),
                 "count"});
    m.push_back({"dmr.comparisons_per_site", perSite(sum.comparisons),
                 "count"});
    m.push_back({"dmr.enqueues_per_site", perSite(sum.enqueues), "count"});
    m.push_back({"dmr.eager_stalls_per_site", perSite(sum.eagerStalls),
                 "count"});
    m.push_back({"dmr.intra_verified_frac",
                 frac(sum.intraVerified, sum.verified), "frac"});
    structureTimings(tr, m);
    m.push_back({"recovery.checkpoints_per_site", perSite(sum.checkpoints),
                 "count"});
    m.push_back({"recovery.rollbacks_per_site", perSite(sum.rollbacks),
                 "count"});
    m.push_back({"recovery.cycles_per_site", perSite(sum.recoveryCycles),
                 "cycles"});
    m.push_back({"mem.plane_reads_per_site", perSite(sum.planeReads),
                 "count"});
    m.push_back({"mem.ecc_corrected_per_site", perSite(sum.eccCorrected),
                 "count"});
    m.push_back({"mem.ecc_uncorrectable_per_site",
                 perSite(sum.eccUncorrectable), "count"});

    // Tracing overhead: per-site shards under spans against the
    // same sites in one untraced run() call.
    const double tracedRate = n / tr.total("fault.site");
    const double runRate = n / tr.total("fault.run");
    m.push_back({"trace.sites_per_s", tracedRate, "1/s"});
    m.push_back({"trace.overhead_rel", runRate / tracedRate - 1.0, "rel"});

    if (!trace_path.empty())
        tr.write(trace_path);
    return res;
}

} // namespace cbench
