/**
 * @file
 * Unit tests of the benchmark's arithmetic: median, geometric mean,
 * span self time,
 * the kernel-class -> phase rollup, sim_cycle_err_pct and the
 * per-element output error.
 */

#include <gtest/gtest.h>

#include "Metrics.hpp"

using namespace perfbench;
using gsuite::KernelClass;
using gsuite::KernelStats;

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.5}), 7.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(GeometricMean, OfPositiveValuesAndEmpty)
{
    EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geometricMean({0.5, 2.0, 8.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geometricMean({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

Span
span(const char *name, int64_t b, int64_t e, int parent)
{
    Span s;
    s.name = name;
    s.startNs = b;
    s.endNs = e;
    s.parent = parent;
    return s;
}

TEST(SelfTime, SubtractsDirectChildrenOnly)
{
    // point [0,100) > kernels.execute [10,30), simgpu.run [40,90)
    // > (grandchild) x [50,60): the grandchild is simgpu.run's.
    const std::vector<Span> spans = {
        span("point", 0, 100, -1),
        span("kernels.execute.sgemm", 10, 30, 0),
        span("simgpu.run.sgemm", 40, 90, 0),
        span("simgpu.inner", 50, 60, 2),
    };
    const std::vector<int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - 20 - 50);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 50 - 10);
    EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce)
{
    const std::vector<Span> spans = {
        span("point", 0, 100, -1),
        span("a", 10, 50, 0),
        span("b", 40, 60, 0),   // overlaps a by 10
        span("c", 90, 120, 0),  // overhangs the parent by 20
    };
    EXPECT_EQ(selfTimesNs(spans)[0], 100 - 50 - 10);
}

TEST(Layer, PrefixBeforeFirstDot)
{
    EXPECT_EQ(layerOf("simgpu.run.spmm"), "simgpu");
    EXPECT_EQ(layerOf("point"), "point");
}

TEST(PhaseRollup, AggregationCombinationOther)
{
    EXPECT_EQ(phaseOf(KernelClass::IndexSelect), Phase::Aggregation);
    EXPECT_EQ(phaseOf(KernelClass::Scatter), Phase::Aggregation);
    EXPECT_EQ(phaseOf(KernelClass::SpMM), Phase::Aggregation);
    EXPECT_EQ(phaseOf(KernelClass::SpGemm), Phase::Aggregation);
    EXPECT_EQ(phaseOf(KernelClass::Sgemm), Phase::Combination);
    EXPECT_EQ(phaseOf(KernelClass::Elementwise), Phase::Other);
    EXPECT_EQ(phaseOf(KernelClass::Aux), Phase::Other);
    EXPECT_EQ(allKernelClasses().size(), 7u);
    EXPECT_STREQ(phaseName(Phase::Combination), "combination");
}

TEST(ReportedCycles, MatchesTimeMsPrecedence)
{
    KernelStats full;
    full.cycles = 1000;
    full.ctasExpected = 100;
    full.ctasSimulated = 100;
    EXPECT_DOUBLE_EQ(reportedCycles(full), 1000.0);
    EXPECT_FALSE(isExtrapolated(full));

    KernelStats capped = full;
    capped.ctasExpected = 400; // 4x the simulated CTAs
    EXPECT_DOUBLE_EQ(reportedCycles(capped), 4000.0);
    EXPECT_TRUE(isExtrapolated(capped));

    KernelStats sampled = full;
    sampled.sampledCtas = 12;
    sampled.estimates.push_back({"cycles", 8123.5, 10.0});
    EXPECT_DOUBLE_EQ(reportedCycles(sampled), 8123.5);
    EXPECT_TRUE(isExtrapolated(sampled));
    // The timeMs conversion agrees at 1 GHz.
    EXPECT_DOUBLE_EQ(sampled.timeMs(1.0) * 1e6, 8123.5);
}

TEST(CycleError, SumOfAbsoluteErrorsOverSumOfExact)
{
    // |120-100| + |80-100| + |300-300| = 40 over 500 exact -> 8%.
    EXPECT_DOUBLE_EQ(
        cycleErrorPct({{120.0, 100.0}, {80.0, 100.0}, {300.0, 300.0}}),
        8.0);
    EXPECT_DOUBLE_EQ(cycleErrorPct({}), 0.0);
    EXPECT_DOUBLE_EQ(cycleErrorPct({{5.0, 5.0}}), 0.0);
}

TEST(ElementError, AbsoluteBelowOneRelativeAbove)
{
    EXPECT_DOUBLE_EQ(elementError(0.5, 0.25), 0.25);
    EXPECT_DOUBLE_EQ(elementError(-0.001, 0.0), 0.001);
    EXPECT_DOUBLE_EQ(elementError(15000.5, 15000.0), 0.5 / 15000.0);
    // A large neighbour does not loosen a small element's bound.
    EXPECT_GT(elementError(2.0, 1.0), 1e-3);
}

TEST(Fingerprint, ChangesWithAnyCounter)
{
    KernelStats a;
    a.name = "k";
    a.cycles = 10;
    KernelStats b = a;
    EXPECT_EQ(counterFingerprint(a), counterFingerprint(b));
    b.l2Misses = 1;
    EXPECT_NE(counterFingerprint(a), counterFingerprint(b));
}
