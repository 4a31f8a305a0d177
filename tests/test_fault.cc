/**
 * @file
 * Unit tests: fault models, the injector's matching rules, and
 * campaign outcome classification.
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/logging.hh"
#include "fault/campaign_engine.hh"
#include "fault/fault_injector.hh"
#include "workloads/workload.hh"

using namespace warped;
using namespace warped::fault;

namespace {

func::FaultCtx
ctx(unsigned sm, unsigned lane, isa::UnitType unit = isa::UnitType::SP,
    Cycle cycle = 0)
{
    func::FaultCtx c;
    c.sm = sm;
    c.lane = lane;
    c.unit = unit;
    c.cycle = cycle;
    return c;
}

} // namespace

TEST(FaultInjector, TransientFlipsOnlyInWindow)
{
    FaultInjector inj;
    FaultSpec s;
    s.kind = FaultKind::TransientBitFlip;
    s.sm = 0;
    s.lane = 3;
    s.bit = 4;
    s.cycleBegin = 100;
    s.cycleEnd = 100;
    inj.add(s);

    EXPECT_EQ(inj.apply(0, ctx(0, 3, isa::UnitType::SP, 99)), 0u);
    EXPECT_EQ(inj.apply(0, ctx(0, 3, isa::UnitType::SP, 100)), 16u);
    EXPECT_EQ(inj.apply(0, ctx(0, 3, isa::UnitType::SP, 101)), 0u);
    EXPECT_EQ(inj.activations(), 1u);
}

TEST(FaultInjector, StuckAtSemantics)
{
    FaultInjector inj;
    FaultSpec s0;
    s0.kind = FaultKind::StuckAtZero;
    s0.lane = 1;
    s0.bit = 0;
    inj.add(s0);
    EXPECT_EQ(inj.apply(0xFF, ctx(0, 1)), 0xFEu);
    EXPECT_EQ(inj.apply(0xFE, ctx(0, 1)), 0xFEu); // no change, benign

    FaultInjector inj1;
    FaultSpec s1;
    s1.kind = FaultKind::StuckAtOne;
    s1.lane = 1;
    s1.bit = 7;
    inj1.add(s1);
    EXPECT_EQ(inj1.apply(0, ctx(0, 1)), 0x80u);
}

TEST(FaultInjector, LocationMatteringSmLaneUnit)
{
    FaultInjector inj;
    FaultSpec s;
    s.kind = FaultKind::StuckAtOne;
    s.sm = 2;
    s.lane = 5;
    s.bit = 0;
    s.unit = isa::UnitType::SFU;
    inj.add(s);

    // Wrong SM, lane or unit: untouched.
    EXPECT_EQ(inj.apply(0, ctx(1, 5, isa::UnitType::SFU)), 0u);
    EXPECT_EQ(inj.apply(0, ctx(2, 6, isa::UnitType::SFU)), 0u);
    EXPECT_EQ(inj.apply(0, ctx(2, 5, isa::UnitType::SP)), 0u);
    EXPECT_EQ(inj.apply(0, ctx(2, 5, isa::UnitType::SFU)), 1u);
}

TEST(FaultInjector, ActivationCountsOnlyRealChanges)
{
    FaultInjector inj;
    FaultSpec s;
    s.kind = FaultKind::StuckAtOne;
    s.lane = 0;
    s.bit = 0;
    inj.add(s);
    inj.apply(1, ctx(0, 0)); // already 1: no change
    EXPECT_EQ(inj.activations(), 0u);
    inj.apply(0, ctx(0, 0));
    EXPECT_EQ(inj.activations(), 1u);
    inj.clear();
    EXPECT_EQ(inj.activations(), 0u);
    EXPECT_EQ(inj.apply(0, ctx(0, 0)), 0u); // fault removed
}

TEST(FaultInjector, MultipleFaultsCompose)
{
    FaultInjector inj;
    FaultSpec a;
    a.kind = FaultKind::StuckAtOne;
    a.lane = 0;
    a.bit = 0;
    FaultSpec b;
    b.kind = FaultKind::StuckAtOne;
    b.lane = 0;
    b.bit = 1;
    inj.add(a);
    inj.add(b);
    EXPECT_EQ(inj.apply(0, ctx(0, 0)), 3u);
}

namespace {

/** A stuck-at-1 campaign over @p sites sampled sites on the 2-SM test
 *  machine. */
EngineConfig
stuckAtOneCfg(std::uint64_t sites,
              dmr::DmrConfig dmr = dmr::DmrConfig::paperDefault())
{
    EngineConfig ec;
    ec.gpu = arch::GpuConfig::testDefault();
    ec.gpu.numSms = 2;
    ec.dmr = dmr;
    ec.space.kinds = {FaultKind::StuckAtOne};
    ec.sites = sites;
    ec.jobs = 0;
    return ec;
}

} // namespace

TEST(Campaign, FaultFreeBaselineIsAllBenign)
{
    setVerbose(false);
    // Campaign with stuck-at faults restricted to the SFU on a
    // workload with no SFU instructions: never activated.
    auto ec = stuckAtOneCfg(5);
    ec.space.units = {isa::UnitType::SFU};
    const auto res =
        CampaignEngine([] { return workloads::makeScan(1); }, ec).run();
    EXPECT_EQ(res.sampled, 5u);
    EXPECT_EQ(res.overall.notActivated, 5u);
    EXPECT_DOUBLE_EQ(res.overall.detectionRate(), 1.0);
}

TEST(Campaign, DetectsStuckAtFaultsWithProtection)
{
    setVerbose(false);
    const auto res = CampaignEngine([] { return workloads::makeScan(1); },
                                    stuckAtOneCfg(8))
                         .run();
    const auto activated =
        res.overall.total() - res.overall.notActivated;
    EXPECT_GT(activated, 0u);
    EXPECT_EQ(res.overall.sdc, 0u)
        << "silent corruption under full protection";
}

TEST(Campaign, UnprotectedMachineProducesSdc)
{
    setVerbose(false);
    const auto res = CampaignEngine([] { return workloads::makeScan(1); },
                                    stuckAtOneCfg(8, dmr::DmrConfig::off()))
                         .run();
    EXPECT_EQ(res.overall.detected, 0u);
    EXPECT_GT(res.overall.sdc + res.overall.due, 0u);
}

TEST(Campaign, DetectionLatencyIsTinyVsKernelLength)
{
    setVerbose(false);
    const auto res = CampaignEngine([] { return workloads::makeSha(1); },
                                    stuckAtOneCfg(6))
                         .run();
    ASSERT_GT(res.latencyCount, 0u);
    // Warped-DMR raises the alarm within a few pipeline lengths of
    // the first corrupted value; software schemes wait for the
    // kernel to finish.
    EXPECT_LT(res.meanDetectionLatency(), 100.0);
    EXPECT_GT(double(res.kernelLengthSum) / res.latencyCount,
              10.0 * res.meanDetectionLatency());
}

TEST(FaultInjector, FirstActivationCycleIsRecorded)
{
    FaultInjector inj;
    FaultSpec s;
    s.kind = FaultKind::StuckAtOne;
    s.lane = 0;
    s.bit = 0;
    inj.add(s);
    func::FaultCtx c;
    c.lane = 0;
    c.cycle = 41;
    inj.apply(1, c); // no change
    c.cycle = 42;
    inj.apply(0, c); // first real activation
    c.cycle = 99;
    inj.apply(0, c);
    EXPECT_EQ(inj.firstActivationCycle(), 42u);
}

TEST(RandomFaultHook, RateZeroIsClean)
{
    RandomFaultHook h(0.0, 1);
    func::FaultCtx c;
    for (unsigned i = 0; i < 1000; ++i)
        EXPECT_EQ(h.apply(i, c), i);
    EXPECT_EQ(h.activations(), 0u);
}

TEST(RandomFaultHook, RateScalesActivations)
{
    func::FaultCtx c;
    RandomFaultHook lo(0.001, 7), hi(0.1, 7);
    for (unsigned i = 0; i < 20000; ++i) {
        lo.apply(i, c);
        hi.apply(i, c);
    }
    EXPECT_GT(hi.activations(), 10 * lo.activations());
    // Corruption is a single bit flip.
    RandomFaultHook always(1.0, 3);
    const auto v = always.apply(0, c);
    EXPECT_EQ(std::popcount(v), 1);
}

TEST(RandomFaultHook, ResetRestoresConstructionState)
{
    // Regression: a hook reused across launches kept its RNG position
    // and leaked the previous run's activation count.
    func::FaultCtx c;
    RandomFaultHook h(0.05, 11);
    std::vector<RegValue> first;
    for (unsigned i = 0; i < 500; ++i)
        first.push_back(h.apply(i, c));
    const auto acts = h.activations();
    EXPECT_GT(acts, 0u);

    h.reset();
    EXPECT_EQ(h.activations(), 0u);
    for (unsigned i = 0; i < 500; ++i)
        EXPECT_EQ(h.apply(i, c), first[i]);
    EXPECT_EQ(h.activations(), acts);
}
