/**
 * @file
 * Differential tests: the exact campaign shortcuts against their
 * reference twins.
 *
 * - Window-scoped hook: a run with the real FaultInjector (plane path
 *   on every quiet cycle) must equal the same run behind a forwarding
 *   hook that is never quiet (per-lane path on every cycle): launch
 *   statistics, error log, activations and global memory.
 * - Stop at verdict: every site's one-run campaign report must carry
 *   the verdict, activation and latency of the full-length,
 *   per-lane reference run.
 *
 * Plus the FaultHook::quietAt contract of each hook.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dmr/dmr_engine.hh"
#include "fault/campaign_engine.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu.hh"
#include "gpu/report.hh"
#include "kernel_fuzzer.hh"
#include "mem/memory.hh"
#include "workloads/workload.hh"

using namespace warped;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultSpec;

namespace {

/** Forwards every value to @p inner but keeps the base quietAt() ==
 *  false, so a run behind it takes the per-lane reference path on
 *  every cycle. */
class ReferenceHook final : public func::FaultHook
{
  public:
    explicit ReferenceHook(func::FaultHook &inner) : inner_(inner) {}

    RegValue
    apply(RegValue pure, const func::FaultCtx &ctx) override
    {
        return inner_.apply(pure, ctx);
    }

  private:
    func::FaultHook &inner_;
};

// ---------------------------------------------------------------------
// quietAt contract

FaultSpec
transient(unsigned sm, Cycle begin, Cycle end)
{
    FaultSpec f;
    f.kind = FaultKind::TransientBitFlip;
    f.sm = sm;
    f.cycleBegin = begin;
    f.cycleEnd = end;
    return f;
}

} // namespace

TEST(QuietAt, NullHookIsAlwaysQuiet)
{
    const auto &h = func::NullFaultHook::instance();
    for (unsigned sm = 0; sm < 4; ++sm)
        for (const Cycle c : {Cycle{0}, Cycle{1}, Cycle{123456},
                              ~Cycle{0}})
            EXPECT_TRUE(h.quietAt(sm, c));
}

TEST(QuietAt, RandomHookIsNeverQuiet)
{
    // It draws from its RNG on every apply(), so skipping a call would
    // shift every later draw — even at probability 0 it stays on the
    // reference path.
    for (const double p : {0.0, 1e-3, 1.0}) {
        const fault::RandomFaultHook h(p, 9);
        for (unsigned sm = 0; sm < 4; ++sm)
            for (const Cycle c : {Cycle{0}, Cycle{77}, ~Cycle{0}})
                EXPECT_FALSE(h.quietAt(sm, c));
    }
}

TEST(QuietAt, ForwardingHookKeepsTheDefault)
{
    FaultInjector inner;
    const ReferenceHook h(inner);
    EXPECT_TRUE(inner.quietAt(0, 5));
    EXPECT_FALSE(h.quietAt(0, 5));
}

TEST(QuietAt, InjectorWithNoSpecsIsQuiet)
{
    const FaultInjector inj;
    for (unsigned sm = 0; sm < 4; ++sm)
        for (const Cycle c : {Cycle{0}, Cycle{500}, ~Cycle{0}})
            EXPECT_TRUE(inj.quietAt(sm, c));
}

TEST(QuietAt, TransientWindowEdges)
{
    FaultInjector inj;
    inj.add(transient(2, 100, 103));
    EXPECT_TRUE(inj.quietAt(2, 99));   // cycleBegin - 1
    EXPECT_FALSE(inj.quietAt(2, 100)); // cycleBegin
    EXPECT_FALSE(inj.quietAt(2, 101));
    EXPECT_FALSE(inj.quietAt(2, 103)); // cycleEnd
    EXPECT_TRUE(inj.quietAt(2, 104));  // cycleEnd + 1
}

TEST(QuietAt, OnePulseIsLiveForOneCycle)
{
    FaultInjector inj;
    inj.add(transient(0, 0, 0));
    EXPECT_FALSE(inj.quietAt(0, 0));
    EXPECT_TRUE(inj.quietAt(0, 1));
}

TEST(QuietAt, OtherSmsStayQuietInsideTheWindow)
{
    FaultInjector inj;
    inj.add(transient(1, 10, 20));
    for (const unsigned sm : {0u, 2u, 3u})
        for (Cycle c = 9; c <= 21; ++c)
            EXPECT_TRUE(inj.quietAt(sm, c)) << "sm " << sm << " @" << c;
}

TEST(QuietAt, StuckAtIsLiveForTheWholeRunOnItsSmOnly)
{
    for (const auto kind : {FaultKind::StuckAtZero, FaultKind::StuckAtOne}) {
        FaultInjector inj;
        FaultSpec f;
        f.kind = kind;
        f.sm = 3; // default whole-run window
        inj.add(f);
        for (const Cycle c : {Cycle{0}, Cycle{4242}, ~Cycle{0}}) {
            EXPECT_FALSE(inj.quietAt(3, c));
            for (const unsigned sm : {0u, 1u, 2u})
                EXPECT_TRUE(inj.quietAt(sm, c));
        }
    }
}

TEST(QuietAt, TwoSpecsOnDifferentSms)
{
    FaultInjector inj;
    inj.add(transient(0, 5, 5));
    inj.add(transient(2, 50, 60));
    EXPECT_FALSE(inj.quietAt(0, 5));
    EXPECT_TRUE(inj.quietAt(0, 50));
    EXPECT_TRUE(inj.quietAt(2, 5));
    EXPECT_FALSE(inj.quietAt(2, 55));
    EXPECT_TRUE(inj.quietAt(1, 5));
    EXPECT_TRUE(inj.quietAt(1, 55));
    inj.clear();
    EXPECT_TRUE(inj.quietAt(0, 5));
    EXPECT_TRUE(inj.quietAt(2, 55));
}

TEST(QuietAt, UnitRestrictionDoesNotQuietTheWindow)
{
    // quietAt() has no unit in its context, so a unit-restricted
    // fault is live for every unit inside its window (conservative).
    FaultInjector inj;
    FaultSpec f = transient(0, 7, 7);
    f.unit = isa::UnitType::SFU;
    inj.add(f);
    EXPECT_FALSE(inj.quietAt(0, 7));
    EXPECT_TRUE(inj.quietAt(0, 8));
}

// ---------------------------------------------------------------------
// Window-scoped hook: plane path against the per-lane reference

namespace {

constexpr unsigned kFuzzThreads = 64;
constexpr unsigned kFuzzBlocks = 2;
constexpr Addr kFuzzOut = 256;

/** One kernel under test: a workload, or a fuzz kernel by seed. */
struct Kernel
{
    std::string name;
    std::string app;           ///< workloads::makeByNameSized name
    unsigned size = 0;
    std::uint64_t fuzzSeed = 0; ///< used when app is empty
};

/** One protection configuration under test. */
struct Scheme
{
    std::string name;
    protection::SchemeConfig scheme;
    bool recovery = false;
};

struct DiffCase
{
    Kernel kernel;
    Scheme scheme;
};

arch::GpuConfig
diffGpu()
{
    auto g = arch::GpuConfig::testDefault();
    g.numSms = 2;
    return g;
}

/** A scheme under test; partial-thread protects half of each warp. */
protection::SchemeConfig
schemeOf(protection::SchemeId id)
{
    protection::SchemeConfig sc;
    sc.id = id;
    if (id == protection::SchemeId::PartialThread)
        sc.protectFraction = 0.5;
    return sc;
}

/** Everything one launch produced that the two paths must agree on. */
struct RunImage
{
    std::string stats; ///< report::jsonReport of the LaunchResult
    std::vector<dmr::ErrorEvent> errorLog;
    std::uint64_t activations = 0;
    Cycle firstActivation = 0;
    std::vector<std::uint8_t> memory;
    Cycle cycles = 0;
    std::uint64_t detected = 0;
    std::string panic; ///< what() of a simulator panic, if any
};

/** Launch @p c's kernel behind @p hook (nullptr = fault-free) with a
 *  watchdog of @p cycle_cap cycles (0 = the hard cap). A simulator
 *  panic is part of the image, not a test error: both paths must
 *  panic alike. */
RunImage
launchOnce(const DiffCase &c, func::FaultHook *hook,
           const FaultInjector *injector, Cycle cycle_cap)
{
    const auto cfg = diffGpu();
    recovery::RecoveryConfig rc;
    rc.enabled = c.scheme.recovery;
    gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault(), /*seed=*/1, hook, rc,
               c.scheme.scheme);
    std::optional<gpu::LaunchResult> r;
    RunImage img;
    try {
        if (c.kernel.app.empty()) {
            testutil::KernelFuzzer fuzz(c.kernel.fuzzSeed);
            const isa::Program prog = fuzz.generate(kFuzzOut);
            const Addr out =
                g.allocator().alloc(kFuzzThreads * kFuzzBlocks * 4);
            EXPECT_EQ(out, kFuzzOut);
            r.emplace(g.launch(prog, kFuzzBlocks, kFuzzThreads, cycle_cap));
        } else {
            auto w = workloads::makeByNameSized(c.kernel.app,
                                                c.kernel.size);
            w->setup(g);
            r.emplace(g.launch(w->program(), w->gridBlocks(),
                               w->blockThreads(), cycle_cap));
        }
    } catch (const std::exception &e) {
        img.panic = e.what();
    }
    if (r) {
        img.stats = report::jsonReport(*r, cfg);
        img.errorLog = r->dmr.errorLog;
        img.cycles = r->cycles;
        img.detected = r->dmr.errorsDetected;
    }
    if (injector) {
        img.activations = injector->activations();
        img.firstActivation = injector->firstActivationCycle();
    }
    img.memory.resize(g.mem().size());
    g.mem().copyOut(0, img.memory.data(), img.memory.size());
    return img;
}

bool
sameEvent(const dmr::ErrorEvent &a, const dmr::ErrorEvent &b)
{
    return a.cycle == b.cycle && a.sm == b.sm && a.warpId == b.warpId &&
           a.pc == b.pc && a.slot == b.slot &&
           a.primaryLane == b.primaryLane &&
           a.checkerLane == b.checkerLane && a.primary == b.primary &&
           a.checker == b.checker && a.intraWarp == b.intraWarp &&
           a.verdict == b.verdict;
}

/** Random injector sites over a span: one-cycle pulses at the first
 *  and last cycle and at random cycles, short multi-cycle windows,
 *  and stuck-at faults, under every unit restriction. */
std::vector<FaultSpec>
sampleSites(std::uint64_t seed, Cycle span, unsigned count)
{
    const auto cfg = diffGpu();
    const std::optional<isa::UnitType> units[] = {
        std::nullopt, isa::UnitType::SP, isa::UnitType::SFU,
        isa::UnitType::LDST};
    Rng rng(seed);
    std::vector<FaultSpec> out;
    for (unsigned i = 0; i < count; ++i) {
        FaultSpec f;
        f.sm = static_cast<unsigned>(rng.nextBelow(cfg.numSms));
        f.lane = static_cast<unsigned>(rng.nextBelow(cfg.warpSize));
        f.bit = static_cast<unsigned>(rng.nextBelow(32));
        f.unit = units[i % 4];
        switch (i % 6) {
          case 0:
            f.cycleBegin = f.cycleEnd = 0;
            break;
          case 1:
            f.cycleBegin = f.cycleEnd = span - 1;
            break;
          case 2:
          case 3:
            f.cycleBegin = f.cycleEnd = rng.nextBelow(span);
            break;
          case 4:
            f.cycleBegin = rng.nextBelow(span);
            f.cycleEnd = f.cycleBegin + 1 + rng.nextBelow(64);
            break;
          case 5:
            f.kind = rng.nextBool(0.5) ? FaultKind::StuckAtZero
                                       : FaultKind::StuckAtOne;
            break;
        }
        out.push_back(f);
    }
    return out;
}

class WindowHookDiff : public ::testing::TestWithParam<DiffCase>
{
};

} // namespace

TEST_P(WindowHookDiff, PlanePathMatchesPerLaneReference)
{
    setVerbose(false);
    const DiffCase &c = GetParam();
    const RunImage golden = launchOnce(c, nullptr, nullptr, 0);
    ASSERT_EQ(golden.panic, "");
    const Cycle span = golden.cycles;
    ASSERT_GT(span, 1u);
    const Cycle watchdog = span * 20 + 1000;

    unsigned activated = 0, detected = 0;
    const auto sites = sampleSites(span * 31 + c.kernel.fuzzSeed, span, 24);
    for (std::size_t i = 0; i < sites.size(); ++i) {
        SCOPED_TRACE("site " + std::to_string(i) + " sm " +
                     std::to_string(sites[i].sm) + " lane " +
                     std::to_string(sites[i].lane) + " cycles [" +
                     std::to_string(sites[i].cycleBegin) + ", " +
                     std::to_string(sites[i].cycleEnd) + "]");
        FaultInjector fast;
        fast.add(sites[i]);
        const RunImage a = launchOnce(c, &fast, &fast, watchdog);

        FaultInjector ref;
        ref.add(sites[i]);
        ReferenceHook slow(ref);
        const RunImage b = launchOnce(c, &slow, &ref, watchdog);

        EXPECT_EQ(a.panic, b.panic);
        EXPECT_EQ(a.stats, b.stats);
        ASSERT_EQ(a.errorLog.size(), b.errorLog.size());
        for (std::size_t e = 0; e < a.errorLog.size(); ++e)
            EXPECT_TRUE(sameEvent(a.errorLog[e], b.errorLog[e]))
                << "error log entry " << e;
        EXPECT_EQ(a.activations, b.activations);
        EXPECT_EQ(a.firstActivation, b.firstActivation);
        EXPECT_TRUE(a.memory == b.memory) << "global memory differs";
        activated += a.activations > 0;
        detected += a.detected > 0;
    }
    // The sample must reach the paths that matter: activated faults,
    // and (with a scheme that detects) records corrupted on a live
    // cycle and compared later.
    EXPECT_GT(activated, 0u);
    EXPECT_GT(detected, 0u);
}

namespace {

const Kernel kKernels[] = {
    {"fuzz3", "", 0, 3},
    {"fuzz11", "", 0, 11},
    {"fuzz29", "", 0, 29},
    {"matrixmul", "MatrixMul", 32, 0},
    {"bfs", "BFS", 2, 0},
};

std::vector<DiffCase>
diffCases()
{
    using protection::SchemeId;
    const Scheme schemes[] = {
        {"warped_dmr", schemeOf(SchemeId::WarpedDmr), false},
        {"warped_dmr_recovery", schemeOf(SchemeId::WarpedDmr), true},
        {"partial_thread", schemeOf(SchemeId::PartialThread), false},
        {"replay_compare", schemeOf(SchemeId::ReplayCompare), false}};
    std::vector<DiffCase> out;
    for (const auto &k : kKernels)
        for (const auto &s : schemes)
            out.push_back({k, s});
    return out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    FastPath, WindowHookDiff, ::testing::ValuesIn(diffCases()),
    [](const ::testing::TestParamInfo<DiffCase> &i) {
        return i.param.kernel.name + "_" + i.param.scheme.name;
    });

// ---------------------------------------------------------------------
// Quiet-cycle fallback: a record corrupted on a live cycle and
// verified on a quiet one is still detected

namespace {

/** An executed IADD over @p active_count slots whose slot 2 result
 *  was corrupted on the cycle it issued. */
func::ExecRecord
corruptedIadd(unsigned active_count)
{
    func::ExecRecord r;
    r.instr.op = isa::Opcode::IADD;
    r.instr.dst = isa::Reg{1};
    r.instr.src[0] = isa::Reg{2};
    r.instr.src[1] = isa::Reg{3};
    for (unsigned s = 0; s < active_count; ++s)
        r.active.set(s);
    for (unsigned s = 0; s < 32; ++s) {
        r.operands[0][s] = s + 1;
        r.operands[1][s] = 7;
        r.results[s] = s + 8;
    }
    r.results[2] ^= 0x10;
    return r;
}

struct QuietFallback : ::testing::Test
{
    QuietFallback()
        : cfg(arch::GpuConfig::testDefault()), global(4096),
          exec(cfg, 0, global, injector)
    {
        // Live on SM 0 at cycle 0 only; every later cycle is quiet.
        injector.add(transient(0, 0, 0));
    }

    arch::GpuConfig cfg;
    mem::Memory global;
    FaultInjector injector;
    func::Executor exec;
};

} // namespace

TEST_F(QuietFallback, InterWarpVerifyOnAQuietCycleDetects)
{
    dmr::DmrEngine e(cfg, dmr::DmrConfig::paperDefault(), exec, 1);
    e.onIssue(corruptedIadd(32), 0); // full mask: pending, verified later
    ASSERT_TRUE(injector.quietAt(0, 1));
    e.drainAll(0);
    EXPECT_EQ(e.stats().errorsDetected, 1u);
    ASSERT_EQ(e.stats().errorLog.size(), 1u);
    EXPECT_EQ(e.stats().errorLog[0].slot, 2u);
    EXPECT_EQ(e.stats().errorLog[0].cycle, 1u);
    EXPECT_EQ(e.stats().comparisons, 32u);
    EXPECT_EQ(injector.activations(), 0u);
}

TEST_F(QuietFallback, IntraWarpVerifyOnAQuietCycleDetects)
{
    dmr::DmrEngine e(cfg, dmr::DmrConfig::paperDefault(), exec, 1);
    ASSERT_TRUE(injector.quietAt(0, 5));
    e.onIssue(corruptedIadd(4), 5); // partial mask: verified at issue
    EXPECT_GE(e.stats().errorsDetected, 1u);
    ASSERT_FALSE(e.stats().errorLog.empty());
    EXPECT_TRUE(e.stats().errorLog[0].intraWarp);
    EXPECT_EQ(e.stats().errorLog[0].cycle, 5u);
    EXPECT_EQ(injector.activations(), 0u);
}

// ---------------------------------------------------------------------
// Stop at detection: the detecting cycle completes on every SM

TEST(StopAtDetection, FinishesTheDetectingCycleOnEverySm)
{
    setVerbose(false);
    // Identical stuck-at faults on both SMs detect in the same cycle
    // on each, so stopping mid-cycle would drop the later SM's entry.
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 2;
    // The stuck-at may wreck a loop counter: a watchdog, not the hard
    // cap, bounds each launch.
    auto launch = [&](Cycle cap, bool stop) {
        FaultInjector inj;
        for (unsigned sm = 0; sm < 2; ++sm) {
            FaultSpec f;
            f.kind = FaultKind::StuckAtOne;
            f.sm = sm;
            f.lane = 1;
            f.bit = 3;
            inj.add(f);
        }
        gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault(), 1, &inj);
        auto w = workloads::makeByNameSized("MatrixMul", 64);
        w->setup(g);
        return g.launch(w->program(), w->gridBlocks(), w->blockThreads(),
                        cap, stop);
    };
    const auto full = launch(200000, false);
    const auto stopped = launch(200000, true);
    ASSERT_GT(stopped.dmr.errorsDetected, 0u);
    ASSERT_LT(stopped.cycles, full.cycles);
    ASSERT_FALSE(stopped.hung);

    // A launch the watchdog cuts after the same last cycle ticked
    // every SM through it: the stopped launch must have done so too.
    const auto cut = launch(stopped.cycles - 1, false);
    ASSERT_TRUE(cut.hung);
    EXPECT_EQ(cut.cycles, stopped.cycles);
    EXPECT_EQ(cut.dmr.errorsDetected, stopped.dmr.errorsDetected);
    EXPECT_EQ(cut.dmr.comparisons, stopped.dmr.comparisons);
    ASSERT_EQ(cut.dmr.errorLog.size(), stopped.dmr.errorLog.size());
    bool sm0 = false, sm1 = false;
    for (std::size_t i = 0; i < cut.dmr.errorLog.size(); ++i) {
        EXPECT_TRUE(sameEvent(cut.dmr.errorLog[i], stopped.dmr.errorLog[i]))
            << "entry " << i;
        sm0 |= stopped.dmr.errorLog[i].sm == 0;
        sm1 |= stopped.dmr.errorLog[i].sm == 1;
    }
    EXPECT_TRUE(sm0 && sm1) << "both SMs must detect in the last cycle";
    ASSERT_FALSE(full.dmr.errorLog.empty());
    EXPECT_TRUE(sameEvent(stopped.dmr.errorLog.front(),
                          full.dmr.errorLog.front()));
}

// ---------------------------------------------------------------------
// Stop at verdict: one-run campaign reports against full-length
// per-lane reference runs

namespace {

struct VerdictCase
{
    std::string name;
    std::string app;
    unsigned size;
    protection::SchemeConfig scheme;
};

class StopAtVerdict : public ::testing::TestWithParam<VerdictCase>
{
};

} // namespace

TEST_P(StopAtVerdict, OneRunReportsMatchFullReferenceRuns)
{
    setVerbose(false);
    const VerdictCase &vc = GetParam();
    fault::EngineConfig cfg;
    cfg.workload = vc.app;
    cfg.gpu = diffGpu();
    cfg.scheme = vc.scheme;
    cfg.seed = 5;
    cfg.sites = 40;
    const std::string app = vc.app;
    const unsigned size = vc.size;
    const fault::WorkloadFactory factory = [app, size] {
        return workloads::makeByNameSized(app, size);
    };
    fault::CampaignEngine engine(factory, cfg);
    engine.prepare();
    const Cycle watchdog = engine.span() * 20 + 100000;

    unsigned detected = 0;
    for (std::uint64_t i = 0; i < engine.plannedSites(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        const auto d = engine.runRange(i, 1);
        ASSERT_EQ(d.overall.total(), 1u);
        const FaultSpec spec =
            engine.space().site(engine.space().sampleIndex(cfg.seed, i));

        FaultInjector injector;
        injector.add(spec);
        ReferenceHook hook(injector);
        auto w = factory();
        gpu::Gpu g(cfg.gpu, cfg.dmr, /*seed=*/1, &hook, cfg.recovery,
                   cfg.scheme);
        w->setup(g);
        const auto r = g.launch(w->program(), w->gridBlocks(),
                                w->blockThreads(), watchdog);
        const bool activated = injector.activations() > 0;
        const bool det = r.dmr.errorsDetected > 0;
        bool outputOk = true;
        if (activated && !r.hung && !det)
            outputOk = w->verify(g);
        const auto cls =
            fault::classifyOutcome(activated, det, r.hung, outputOk);

        fault::OutcomeCounts want;
        want.add(cls, activated);
        EXPECT_EQ(d.overall.masked, want.masked);
        EXPECT_EQ(d.overall.detected, want.detected);
        EXPECT_EQ(d.overall.sdc, want.sdc);
        EXPECT_EQ(d.overall.due, want.due);
        EXPECT_EQ(d.overall.notActivated, want.notActivated);
        detected += cls == fault::OutcomeClass::Detected;
        if (cls == fault::OutcomeClass::Detected &&
            !r.dmr.errorLog.empty()) {
            const Cycle det0 = r.dmr.errorLog.front().cycle;
            const Cycle act = injector.firstActivationCycle();
            EXPECT_EQ(d.latencyCount, 1u);
            EXPECT_EQ(d.latencySum, det0 >= act ? det0 - act : 0);
        } else {
            EXPECT_EQ(d.latencyCount, 0u);
        }
    }
    EXPECT_GT(detected, 0u);
}

namespace {

std::vector<VerdictCase>
verdictCases()
{
    using protection::SchemeId;
    return {
        {"matrixmul_warped_dmr", "MatrixMul", 32,
         schemeOf(SchemeId::WarpedDmr)},
        {"bfs_warped_dmr", "BFS", 2, schemeOf(SchemeId::WarpedDmr)},
        {"matrixmul_partial_thread", "MatrixMul", 32,
         schemeOf(SchemeId::PartialThread)},
        {"matrixmul_replay_compare", "MatrixMul", 32,
         schemeOf(SchemeId::ReplayCompare)}};
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    FastPath, StopAtVerdict, ::testing::ValuesIn(verdictCases()),
    [](const ::testing::TestParamInfo<VerdictCase> &i) {
        return i.param.name;
    });
