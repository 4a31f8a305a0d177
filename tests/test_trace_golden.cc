/**
 * @file
 * Golden-trace regression suite: three representative Table-4
 * workloads (one graph, one primitive, one dense-linear-algebra) run
 * at miniature scale with event tracing on, and both exporter
 * renderings — the Chrome trace_event JSON and the flat metrics JSON
 * — must match the checked-in goldens byte for byte.
 *
 * Any change to issue order, DMR scheduling, ReplayQ behaviour, the
 * event vocabulary, or the exporters shows up here as a diff. To
 * accept an intentional change, regenerate with
 *
 *   tools/update_golden_traces.sh        (or)
 *   WARPED_UPDATE_GOLDEN=1 ./test_trace_golden
 *
 * and review the golden diff in the commit. On mismatch the actual
 * renderings are written to $WARPED_TRACE_ARTIFACT_DIR (default
 * ./trace-artifacts) so CI can upload them.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "gpu/gpu.hh"
#include "trace/export.hh"
#include "workloads/workload.hh"

using namespace warped;

#ifndef WARPED_GOLDEN_DIR
#error "WARPED_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

struct GoldenCase
{
    const char *label;
    std::unique_ptr<workloads::Workload> (*make)();
};

// Print a case as its label. gtest's default dump of the raw bytes
// embeds pointer values, which change from run to run under ASLR, so
// the discovered ctest names would never be stable.
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.label;
}

// Miniature instances: small enough that the goldens stay reviewable
// text files, large enough to exercise divergence, barriers, both DMR
// modes, and the ReplayQ.
const GoldenCase kCases[] = {
    {"bfs", [] { return workloads::makeBfs(1); }},
    {"scan", [] { return workloads::makeScan(1); }},
    {"matrixmul", [] { return workloads::makeMatrixMul(32); }},
};

/**
 * Per-lane ring capacity for the golden runs. Even one-block
 * workloads emit hundreds of thousands of events; the goldens pin
 * the *tail* of each lane (the last kGoldenRing events per SM) while
 * the metrics golden pins the whole run — including trace.recorded
 * and trace.dropped, so total event volume is regression-checked
 * even though only the tail is stored.
 */
constexpr unsigned kGoldenRing = 128;

bool
updateMode()
{
    const char *v = std::getenv("WARPED_UPDATE_GOLDEN");
    return v && *v;
}

std::filesystem::path
artifactDir()
{
    const char *v = std::getenv("WARPED_TRACE_ARTIFACT_DIR");
    return v && *v ? v : "./trace-artifacts";
}

std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream f(p, std::ios::binary);
    if (!f)
        return {};
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

void
writeFile(const std::filesystem::path &p, const std::string &content)
{
    std::filesystem::create_directories(p.parent_path());
    std::ofstream f(p, std::ios::binary);
    ASSERT_TRUE(f) << "cannot write " << p;
    f << content;
}

/** 1-based line number of the first differing line, for diagnostics. */
std::size_t
firstDiffLine(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    std::size_t line = 0;
    for (;;) {
        ++line;
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return 0; // identical
        if (ga != gb || la != lb)
            return line;
    }
}

void
checkAgainstGolden(const std::string &label, const std::string &kind,
                   const std::string &actual)
{
    const std::filesystem::path golden =
        std::filesystem::path(WARPED_GOLDEN_DIR) /
        (label + "." + kind + ".json");

    if (updateMode()) {
        writeFile(golden, actual);
        std::printf("[ updated ] %s\n", golden.string().c_str());
        return;
    }

    const std::string expected = readFile(golden);
    ASSERT_FALSE(expected.empty())
        << golden << " missing or empty; run "
        << "tools/update_golden_traces.sh to (re)generate";

    if (actual == expected)
        return;

    const auto dir = artifactDir();
    const auto artifact = dir / (label + "." + kind + ".actual.json");
    writeFile(artifact, actual);
    ADD_FAILURE() << label << " " << kind
                  << " diverges from golden at line "
                  << firstDiffLine(actual, expected) << "\n  golden:   "
                  << golden << "\n  actual:   " << artifact
                  << "\nIf the change is intentional, regenerate via "
                     "tools/update_golden_traces.sh and commit the "
                     "golden diff.";
}

} // namespace

class GoldenTrace : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenTrace, ExportersMatchGoldens)
{
    setVerbose(false);
    const auto &c = GetParam();

    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 2;
    cfg.traceEvents = true;
    cfg.traceRingCapacity = kGoldenRing;

    auto w = c.make();
    gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
    const auto r = workloads::runVerified(*w, g);

    checkAgainstGolden(c.label, "trace",
                       trace::chromeTraceJson(r.events, w->name()));
    checkAgainstGolden(c.label, "metrics", r.metrics.toJson());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GoldenTrace, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.label);
    });
