/**
 * @file
 * Tests for the hwdb subsystem: config-file parse/serialize round
 * trips on every preset, strict rejection of unknown keys,
 * ill-typed values and inconsistent derived parameters, the preset
 * registry, framework-overhead overrides, --gpu spec expansion, and
 * the GPU sweep axis (expansion determinism and sweep-thread
 * invariance of cross-GPU results).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench/BenchCommon.hpp"
#include "frameworks/Overheads.hpp"
#include "hwdb/HwConfigFile.hpp"
#include "hwdb/HwPresets.hpp"
#include "suite/BenchSession.hpp"
#include "suite/SweepSpec.hpp"
#include "util/StringUtils.hpp"

using namespace gsuite;

namespace {

UserParams
tinySimBase(const std::string &gpu)
{
    UserParams base;
    base.engine = EngineKind::Sim;
    base.runs = 1;
    base.featureCap = 8;
    base.nodeDivisor = 8;
    base.edgeDivisor = 8;
    base.maxCtas = 64;
    base.gpu = gpu;
    return base;
}

} // namespace

TEST(HwPresets, RegistryHasTheMachineGenerations)
{
    const std::vector<std::string> names = sweepableHwPresetNames();
    ASSERT_GE(names.size(), 5u);
    for (const char *expected :
         {"v100-sim", "rtx2060s", "p100", "a100", "h100"})
        EXPECT_NE(findHwPreset(expected), nullptr)
            << "missing preset " << expected;
    for (const HwPreset &p : hwPresets()) {
        EXPECT_FALSE(p.description.empty());
        EXPECT_EQ(p.name, p.config.name);
        p.config.validate(); // every preset is a legal machine
    }
}

TEST(HwPresets, HopperPresetIsValidatedAndRoundTrips)
{
    // The ROADMAP'd Hopper-class machine: sanity-check the headline
    // numbers, the --list-gpus description, and the hwdb
    // serialize->parse round trip explicitly (RoundTripsEveryPreset
    // covers it generically; this pins the h100 entry itself).
    const HwPreset &p = hwPresetByName("h100");
    EXPECT_NE(p.description.find("Hopper"), std::string::npos);
    EXPECT_TRUE(p.sweepable);
    const GpuConfig &c = p.config;
    c.validate();
    EXPECT_EQ(c.numSms * c.smSampleFactor, 132); // full GH100
    EXPECT_EQ(c.l1d.sizeBytes, 256u * 1024);
    EXPECT_EQ(c.l2.sizeBytes, 50ull * 1024 * 1024);
    EXPECT_GT(c.dramBytesPerCyclePerSm,
              hwPresetByName("a100").config.dramBytesPerCyclePerSm);
    const HwConfig reparsed = parseHwConfigText(
        serializeGpuConfig(c), "<h100>");
    EXPECT_TRUE(reparsed.gpu == c);
    EXPECT_NE(hwPresetTable().find("h100"), std::string::npos);
}

TEST(HwPresets, IntegratedOrinPresetIsValidatedAndRoundTrips)
{
    // The carried ROADMAP item: an integrated (shared-memory budget
    // class) machine for budget-constrained planning. Pin the
    // headline numbers, the --list-gpus entry, and the hwdb
    // serialize->parse round trip.
    const HwPreset &p = hwPresetByName("jetson-orin");
    EXPECT_NE(p.description.find("integrated"), std::string::npos);
    EXPECT_TRUE(p.sweepable);
    const GpuConfig &c = p.config;
    c.validate();
    EXPECT_EQ(c.numSms * c.smSampleFactor, 16); // full GA10B
    EXPECT_EQ(c.l1d.sizeBytes, 192u * 1024);
    EXPECT_EQ(c.l2.sizeBytes, 4ull * 1024 * 1024);
    // Shared LPDDR5 sits well below every discrete preset's
    // dedicated DRAM in per-SM bandwidth terms except the smallest.
    EXPECT_LT(c.dramBytesPerCyclePerSm,
              hwPresetByName("a100").config.dramBytesPerCyclePerSm);
    const HwConfig reparsed = parseHwConfigText(
        serializeGpuConfig(c), "<jetson-orin>");
    EXPECT_TRUE(reparsed.gpu == c);
    EXPECT_NE(hwPresetTable().find("jetson-orin"),
              std::string::npos);
}

TEST(HwPresets, LookupIsCaseInsensitiveAndCanonical)
{
    EXPECT_EQ(hwPresetByName("A100").name, "a100");
    EXPECT_EQ(hwPresetByName(" v100-sim ").name, "v100-sim");
    EXPECT_EQ(findHwPreset("gtx9999"), nullptr);
}

TEST(HwPresets, UnknownPresetIsFatal)
{
    EXPECT_EXIT(hwPresetByName("gtx9999"),
                ::testing::ExitedWithCode(1), "");
}

TEST(HwPresets, ExpandGpuSpecsSplitsExpandsAndDedups)
{
    const auto all = expandGpuSpecs("all");
    EXPECT_EQ(all, sweepableHwPresetNames());

    const auto list = expandGpuSpecs("a100, v100-sim ,a100");
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0], "a100");
    EXPECT_EQ(list[1], "v100-sim");

    EXPECT_EXIT(expandGpuSpecs("a100,,p100"),
                ::testing::ExitedWithCode(1), "");
}

TEST(HwConfigFile, RoundTripsEveryPreset)
{
    for (const HwPreset &p : hwPresets()) {
        const std::string text = serializeGpuConfig(p.config);
        const HwConfig reparsed =
            parseHwConfigText(text, "<" + p.name + ">");
        EXPECT_TRUE(reparsed.gpu == p.config)
            << "round-trip mismatch for preset " << p.name;
        EXPECT_TRUE(reparsed.overheads.empty());
    }
}

TEST(HwConfigFile, RoundTripsThroughDisk)
{
    const std::string path = "/tmp/gsuite_hwdb_roundtrip.cfg";
    HwConfig hw;
    hw.gpu = hwPresetByName("rtx2060s").config;
    hw.overheads[Framework::Pyg] = {2.0e6, 300.0, 1.5};
    writeHwConfigFile(hw, path);

    const HwConfig reparsed = parseHwConfigFile(path);
    EXPECT_TRUE(reparsed.gpu == hw.gpu);
    ASSERT_EQ(reparsed.overheads.size(), 1u);
    EXPECT_TRUE(reparsed.overheads.at(Framework::Pyg) ==
                hw.overheads.at(Framework::Pyg));
    std::remove(path.c_str());
}

TEST(HwConfigFile, AcceptsGpgpusimFlavouredSyntax)
{
    const HwConfig hw = parseHwConfigText(
        "# a comment line\n"
        "; another comment\n"
        "base test-tiny\n"
        "-core.num_sms 4          # trailing comment\n"
        "mem.l1_latency = 30\n"
        "core.scheduler lrr\n",
        "<test>");
    EXPECT_EQ(hw.gpu.numSms, 4);
    EXPECT_EQ(hw.gpu.l1Latency, 30);
    EXPECT_EQ(hw.gpu.scheduler, SchedulerPolicy::Lrr);
    // base preset supplies everything not overridden
    EXPECT_EQ(hw.gpu.l1d.sizeBytes, 4u * 1024u);
    EXPECT_EQ(hw.gpu.name, "test-tiny");

    // '#' only opens a comment at line start or after whitespace,
    // so values containing it round-trip.
    GpuConfig hashy = GpuConfig::testTiny();
    hashy.name = "rtx#2060";
    EXPECT_TRUE(
        parseHwConfigText(serializeGpuConfig(hashy), "<test>").gpu ==
        hashy);
}

TEST(HwConfigFile, RejectsUnknownKey)
{
    EXPECT_EXIT(
        parseHwConfigText("core.num_smss 8\n", "<test>"),
        ::testing::ExitedWithCode(1), "");
}

TEST(HwConfigFile, RejectsIllTypedValues)
{
    EXPECT_EXIT(
        parseHwConfigText("base test-tiny\ncore.num_sms banana\n",
                          "<test>"),
        ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(
        parseHwConfigText(
            "base test-tiny\ncore.clock_ghz fast\n", "<test>"),
        ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(
        parseHwConfigText(
            "base test-tiny\nmem.l1_bypass_loads maybe\n",
            "<test>"),
        ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(
        parseHwConfigText(
            "base test-tiny\ncore.scheduler fifo\n", "<test>"),
        ::testing::ExitedWithCode(1), "");
}

TEST(HwConfigFile, RejectsInconsistentDerivedSets)
{
    // testTiny's L1D is 4KiB/128B/assoc4 = 8 sets; claiming 16 must
    // be caught by the sets x assoc x line = size cross-check.
    EXPECT_EXIT(
        parseHwConfigText("base test-tiny\nl1d.sets 16\n", "<test>"),
        ::testing::ExitedWithCode(1), "");
    // Non-positive claims cannot dodge the check either.
    EXPECT_EXIT(
        parseHwConfigText("base test-tiny\nl2.sets -128\n",
                          "<test>"),
        ::testing::ExitedWithCode(1), "");
    // The serialized form embeds the correct value and reparses.
    const GpuConfig tiny = GpuConfig::testTiny();
    const std::string text = serializeGpuConfig(tiny);
    EXPECT_NE(text.find("l1d.sets 8"), std::string::npos);
    EXPECT_TRUE(parseHwConfigText(text, "<test>").gpu == tiny);
}

TEST(HwConfigFile, RejectsInvalidGeometry)
{
    // 3000-byte L1 with 128B lines x assoc 4 => sets not a power of
    // two; GpuConfig::validate() must reject the parsed config.
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\nl1d.size_bytes 3000\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\nmem.num_l2_slices 3\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
    // Zero geometry terms must be a fatal(), not a divide trap.
    EXPECT_EXIT(
        parseHwConfigText("base test-tiny\nl1d.assoc 0\n", "<test>"),
        ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\nl2.line_bytes 0\nl2.sets 8\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
    // Non-geometry fields are validated too: a zero clock or
    // negative latency would silently produce garbage simulations.
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\ncore.clock_ghz 0\n", "<test>"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\nexec.alu_latency -4\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\ncore.max_ctas_per_sm 0\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
}

TEST(HwConfigFile, MemHierarchyKeysParseAndSerialize)
{
    const HwConfig hw = parseHwConfigText(
        "base test-tiny\n"
        "mem.l1_mshr_entries 4\n"
        "mem.l1_mshr_merges 2\n"
        "mem.l1_mshr_hit_under_miss 3\n"
        "mem.l2_mshr_entries 8\n"
        "mem.l2_mshr_hit_under_miss 6\n"
        "mem.dram_banks 8\n"
        "mem.dram_row_bytes 256\n"
        "mem.dram_trcd 10\n"
        "mem.dram_tras 24\n"
        "mem.dram_trp 10\n"
        "mem.dram_tccd 3\n"
        "mem.dram_scheduler fcfs\n"
        "mem.dram_sched_queue_size 4\n",
        "<test>");
    EXPECT_EQ(hw.gpu.l1Mshr.entries, 4);
    EXPECT_EQ(hw.gpu.l1Mshr.maxMerges, 2);
    EXPECT_EQ(hw.gpu.l1Mshr.hitUnderMiss, 3);
    EXPECT_EQ(hw.gpu.l2Mshr.entries, 8);
    EXPECT_EQ(hw.gpu.dram.numBanks, 8);
    EXPECT_EQ(hw.gpu.dram.rowBytes, 256);
    EXPECT_EQ(hw.gpu.dram.tRcd, 10);
    EXPECT_EQ(hw.gpu.dram.tRas, 24);
    EXPECT_EQ(hw.gpu.dram.tRp, 10);
    EXPECT_EQ(hw.gpu.dram.tCcd, 3);
    EXPECT_EQ(hw.gpu.dram.scheduler, DramSchedPolicy::Fcfs);
    EXPECT_EQ(hw.gpu.dram.schedQueueSize, 4);
    // The customized machine round-trips through the serializer.
    EXPECT_TRUE(parseHwConfigText(serializeGpuConfig(hw.gpu),
                                  "<test>")
                    .gpu == hw.gpu);
}

TEST(HwConfigFile, MemHierarchyKeysRejectBadValues)
{
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\nmem.dram_scheduler drum\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\nmem.dram_banks 3\n", "<test>"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\nmem.l1_mshr_entries 0\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\nmem.dram_sched_queue_size -1\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
}

TEST(HwConfigFile, L1L2SectorMismatchIsFatal)
{
    // The coalescer and the slice chain share one sector size;
    // GpuConfig::validate() pins l1d/l2 sector parity.
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\nl1d.sector_bytes 16\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
}

TEST(HwConfigFile, BaseMustComeFirst)
{
    EXPECT_EXIT(parseHwConfigText(
                    "core.num_sms 4\nbase test-tiny\n", "<test>"),
                ::testing::ExitedWithCode(1), "");
}

TEST(HwConfigFile, OverheadKeysOverrideFrameworkConstants)
{
    const std::string path = "/tmp/gsuite_hwdb_ovh_keys.cfg";
    {
        std::ofstream f(path);
        f << "base test-tiny\n"
             "overhead.pyg.init_us 9e6\n"
             "overhead.dgl.kernel_factor 2.5\n";
    }
    const std::string spec = "file:" + path;

    // Overridden fields take the file's values; untouched fields
    // and frameworks keep the calibrated defaults.
    const FrameworkOverheads pyg =
        resolveFrameworkOverheads(spec, Framework::Pyg);
    EXPECT_DOUBLE_EQ(pyg.initUs, 9e6);
    EXPECT_DOUBLE_EQ(
        pyg.perKernelUs,
        FrameworkOverheads::defaults(Framework::Pyg).perKernelUs);
    EXPECT_DOUBLE_EQ(
        resolveFrameworkOverheads(spec, Framework::Dgl).kernelFactor,
        2.5);
    EXPECT_TRUE(resolveFrameworkOverheads(spec, Framework::Gsuite) ==
                FrameworkOverheads::defaults(Framework::Gsuite));
    // Presets carry no overrides.
    EXPECT_TRUE(resolveFrameworkOverheads("v100-sim", Framework::Pyg) ==
                FrameworkOverheads::defaults(Framework::Pyg));
    std::remove(path.c_str());
}

TEST(HwConfigFile, RejectsUnknownOverheadField)
{
    EXPECT_EXIT(parseHwConfigText(
                    "base test-tiny\noverhead.pyg.magic 1\n",
                    "<test>"),
                ::testing::ExitedWithCode(1), "");
}

TEST(HwPresets, FileSpecResolvesThroughHwdb)
{
    const std::string path = "/tmp/gsuite_hwdb_filespec.cfg";
    {
        std::ofstream f(path);
        f << "base test-tiny\ncore.num_sms 4\n";
    }
    const GpuConfig cfg = resolveGpuSpec("file:" + path);
    EXPECT_EQ(cfg.numSms, 4);
    EXPECT_EQ(cfg.l1d.sizeBytes, 4u * 1024u);
    std::remove(path.c_str());

    EXPECT_EXIT(resolveGpuSpec("file:/nonexistent/gsuite.cfg"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(resolveGpuSpec("a100,p100"),
                ::testing::ExitedWithCode(1), "");
}

TEST(UserParams, GpuOptionParsesExpandsAndValidates)
{
    {
        const char *argv[] = {"prog", "--gpu", "A100, p100",
                              nullptr};
        const UserParams p = UserParams::fromArgs(3, argv);
        EXPECT_EQ(p.gpu, "a100,p100");
    }
    {
        const char *argv[] = {"prog", "--gpu", "all", nullptr};
        const UserParams p = UserParams::fromArgs(3, argv);
        std::string joined;
        for (const std::string &name : sweepableHwPresetNames())
            joined += (joined.empty() ? "" : ",") + name;
        EXPECT_EQ(p.gpu, joined);
    }
    {
        const char *argv[] = {"prog", "--gpu", "gtx9999", nullptr};
        EXPECT_EXIT(UserParams::fromArgs(3, argv),
                    ::testing::ExitedWithCode(1), "");
    }
}

TEST(UserParams, ResolveGpuConfigComposesOverrides)
{
    UserParams p;
    p.gpu = "rtx2060s";
    // No overrides: the preset's own policy survives.
    EXPECT_EQ(p.resolveGpuConfig().scheduler,
              SchedulerPolicy::Gto);
    EXPECT_FALSE(p.resolveGpuConfig().l1BypassLoads);

    p.scheduler = SchedulerPolicy::Lrr;
    p.l1BypassLoads = true;
    const GpuConfig cfg = p.resolveGpuConfig();
    EXPECT_EQ(cfg.scheduler, SchedulerPolicy::Lrr);
    EXPECT_TRUE(cfg.l1BypassLoads);
    // The rest of the machine is untouched by the overrides.
    EXPECT_EQ(cfg.l1d.sizeBytes,
              hwPresetByName("rtx2060s").config.l1d.sizeBytes);

    p.gpu = "a100,p100";
    EXPECT_EXIT(p.resolveGpuConfig(),
                ::testing::ExitedWithCode(1), "");
}

TEST(SweepSpec, GpuAxisExpandsOutermostWithStableLabels)
{
    const SweepSpec spec =
        SweepSpec{}
            .gpus({"v100-sim", "a100"})
            .models({GnnModelKind::Gcn, GnnModelKind::Gin});
    const auto a = spec.expand();
    const auto b = spec.expand();
    ASSERT_EQ(a.size(), 4u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].index, i);
    }
    EXPECT_EQ(a[0].label, "[v100-sim]gsuite/gcn/mp/cora");
    EXPECT_EQ(a[0].params.gpu, "v100-sim");
    EXPECT_EQ(a[2].label, "[a100]gsuite/gcn/mp/cora");
    EXPECT_EQ(a[2].params.gpu, "a100");
}

TEST(SweepSpec, CommaGpuBaseExpandsLikeAnAxis)
{
    UserParams base;
    base.gpu = "v100-sim,p100";
    const auto points = SweepSpec{}.base(base).expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].params.gpu, "v100-sim");
    EXPECT_EQ(points[1].params.gpu, "p100");
    // Single-gpu sweeps keep their historical labels unprefixed.
    const auto single = SweepSpec{}.expand();
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].label, "gsuite/gcn/mp/cora");
}

TEST(SweepSpec, DuplicateGpuEntryIsFatal)
{
    EXPECT_EXIT(SweepSpec{}.gpus({"a100", "a100"}).expand(),
                ::testing::ExitedWithCode(1), "");
}

TEST(BenchSession, CrossGpuSweepIsThreadCountInvariant)
{
    // The acceptance bar: a >=4-machine sweep through one session
    // yields bit-identical sim stats at --sweep-threads 1 and 4.
    const SweepSpec spec =
        SweepSpec{}
            .base(tinySimBase("all"))
            .gpus(sweepableHwPresetNames())
            .models({GnnModelKind::Gcn});

    BenchSession::Options serial;
    serial.sweepThreads = 1;
    const ResultStore a = BenchSession(serial).run(spec);

    BenchSession::Options parallel;
    parallel.sweepThreads = 4;
    const ResultStore b = BenchSession(parallel).run(spec);

    ASSERT_GE(a.size(), 4u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const SweepResult &ra = a.at(i);
        const SweepResult &rb = b.at(i);
        ASSERT_TRUE(ra.ok) << ra.error;
        ASSERT_TRUE(rb.ok) << rb.error;
        EXPECT_EQ(ra.point.label, rb.point.label);
        ASSERT_EQ(ra.outcome.timeline.size(),
                  rb.outcome.timeline.size());
        for (size_t k = 0; k < ra.outcome.timeline.size(); ++k) {
            const KernelRecord &ka = ra.outcome.timeline[k];
            const KernelRecord &kb = rb.outcome.timeline[k];
            EXPECT_EQ(ka.name, kb.name);
            ASSERT_TRUE(ka.hasSim);
            EXPECT_EQ(ka.sim.cycles, kb.sim.cycles);
            EXPECT_EQ(ka.sim.warpInstrs, kb.sim.warpInstrs);
            EXPECT_EQ(ka.sim.l1Hits, kb.sim.l1Hits);
            EXPECT_EQ(ka.sim.l2Misses, kb.sim.l2Misses);
        }
    }

    // Different machines must actually behave differently (the axis
    // is real, not cosmetic): compare total cycles across presets.
    std::set<uint64_t> distinct;
    for (const auto &r : a) {
        uint64_t cycles = 0;
        for (const auto &[cls, st] : r.simByClass)
            cycles += st.cycles;
        distinct.insert(cycles);
    }
    EXPECT_GE(distinct.size(), 3u);
}

TEST(BenchSession, MultiFileSweepGivesEachPointItsOwnOverheads)
{
    // Two machine files with different pyg init_us plus a preset, in
    // one --gpu sweep: every point runs with its own machine's
    // framework constants.
    const std::string pathA = "/tmp/gsuite_hwdb_ovh_a.cfg";
    const std::string pathB = "/tmp/gsuite_hwdb_ovh_b.cfg";
    {
        std::ofstream f(pathA);
        f << "base test-tiny\noverhead.pyg.init_us 5e6\n";
    }
    {
        std::ofstream f(pathB);
        f << "base test-tiny\noverhead.pyg.init_us 7e6\n";
    }
    const std::string specs =
        join(expandGpuSpecs("file:" + pathA + ",file:" + pathB +
                            ",v100-sim"),
             ',');
    UserParams base = tinySimBase(specs);
    base.engine = EngineKind::Functional;
    base.framework = Framework::Pyg;
    const ResultStore store =
        BenchSession().run(SweepSpec{}.base(base).models(
            {GnnModelKind::Gcn}));
    std::remove(pathA.c_str());
    std::remove(pathB.c_str());

    const FrameworkOverheads defaults =
        FrameworkOverheads::defaults(Framework::Pyg);
    const double expectedInit[] = {5e6, 7e6, defaults.initUs};
    ASSERT_EQ(store.size(), 3u);
    for (size_t i = 0; i < store.size(); ++i) {
        const SweepResult &r = store.at(i);
        ASSERT_TRUE(r.ok) << r.error;
        SCOPED_TRACE(r.point.label);
        // endToEndUs = init + kernels x per-kernel + inflated kernel
        // time; everything but init is the defaults' share.
        const double e2e = r.outcome.endToEndSamplesUs.at(0);
        const double rest =
            static_cast<double>(r.outcome.timeline.size()) *
                defaults.perKernelUs +
            r.outcome.kernelSamplesUs.at(0) * defaults.kernelFactor;
        EXPECT_NEAR(e2e - rest, expectedInit[i], 1e-3);
    }
}

namespace {

/** BenchArgs::parse over a literal command line. */
bench::BenchArgs
parseBenchArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::BenchArgs::parse(static_cast<int>(argv.size()),
                                   argv.data());
}

} // namespace

TEST(BenchArgs, FunctionalBaseCarriesTheGpuFilesOverheads)
{
    // Functional benches (fig3, fig4, table4) take their framework
    // constants from the one --gpu machine file.
    const std::string path = "/tmp/gsuite_hwdb_ovh_func.cfg";
    {
        std::ofstream f(path);
        f << "base test-tiny\noverhead.pyg.init_us 5e6\n";
    }
    UserParams base =
        parseBenchArgs({"--quick", "--gpu", "file:" + path})
            .functionalBase();
    EXPECT_EQ(base.gpu, "file:" + path);
    base.framework = Framework::Pyg;
    base.featureCap = 8;
    base.nodeDivisor = 8;
    base.edgeDivisor = 8;
    const ResultStore store = BenchSession().run(
        SweepSpec{}.base(base).models({GnnModelKind::Gcn}));
    std::remove(path.c_str());

    const FrameworkOverheads defaults =
        FrameworkOverheads::defaults(Framework::Pyg);
    ASSERT_EQ(store.size(), 1u);
    const SweepResult &r = store.at(0);
    ASSERT_TRUE(r.ok) << r.error;
    const double rest =
        static_cast<double>(r.outcome.timeline.size()) *
            defaults.perKernelUs +
        r.outcome.kernelSamplesUs.at(0) * defaults.kernelFactor;
    EXPECT_NEAR(r.outcome.endToEndSamplesUs.at(0) - rest, 5e6, 1e-3);
}

TEST(BenchArgsDeathTest, FunctionalBaseRejectsFlagsItCannotHonour)
{
    EXPECT_DEATH(parseBenchArgs({"--gpu", "v100-sim,a100"})
                     .functionalBase(),
                 "one --gpu machine");
    EXPECT_DEATH(parseBenchArgs({"--trace", "t.json"}).functionalBase(),
                 "needs the sim engine");
}

TEST(ResultStore, JsonCarriesGpuNameAndConfigProvenance)
{
    const SweepSpec spec =
        SweepSpec{}
            .engine(EngineKind::Sim) // functional points carry no
                                     // machine provenance
            .gpus({"test-tiny", "a100"})
            .models({GnnModelKind::Gcn});
    const ResultStore store =
        BenchSession().run(spec, [](const SweepPoint &pt) {
            RunOutcome out;
            out.params = pt.params;
            out.meanEndToEndUs = 1.0;
            return out;
        });

    const std::string path = "/tmp/gsuite_hwdb_provenance.json";
    store.toJson(path);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"gpu\": \"a100\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu_configs\""), std::string::npos);
    // Full key table for both machines, with their distinct values.
    EXPECT_NE(json.find("\"test-tiny\": {"), std::string::npos);
    EXPECT_NE(json.find("\"a100\": {"), std::string::npos);
    EXPECT_NE(json.find("\"l2.size_bytes\": \"41943040\""),
              std::string::npos);
    EXPECT_NE(json.find("\"l2.size_bytes\": \"16384\""),
              std::string::npos);
}

TEST(ResultStore, ProvenanceSeparatesOverrideVariants)
{
    // gto/lrr ablation variants share one gpu spec but must get
    // distinct provenance entries keyed by the effective config.
    const SweepSpec spec =
        SweepSpec{}
            .engine(EngineKind::Sim)
            .variants(
                {{"gto",
                  [](UserParams &p) {
                      p.scheduler = SchedulerPolicy::Gto;
                  }},
                 {"lrr", [](UserParams &p) {
                      p.scheduler = SchedulerPolicy::Lrr;
                  }}});
    const ResultStore store =
        BenchSession().run(spec, [](const SweepPoint &pt) {
            RunOutcome out;
            out.params = pt.params;
            return out;
        });

    const std::string path = "/tmp/gsuite_hwdb_override_prov.json";
    store.toJson(path);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"v100-sim+scheduler=gto\": {"),
              std::string::npos);
    EXPECT_NE(json.find("\"v100-sim+scheduler=lrr\": {"),
              std::string::npos);
    EXPECT_NE(
        json.find(
            "\"gpu_config\": \"v100-sim+scheduler=lrr\""),
        std::string::npos);
    // Each entry records its own effective scheduler.
    const size_t lrr_entry =
        json.find("\"v100-sim+scheduler=lrr\": {");
    EXPECT_NE(json.find("\"core.scheduler\": \"lrr\"", lrr_entry),
              std::string::npos);
}

TEST(BenchSession, GraphCacheKeepsStatsBitIdentical)
{
    const SweepSpec spec =
        SweepSpec{}
            .base(tinySimBase("v100-sim"))
            .gpus({"v100-sim", "test-tiny"})
            .models({GnnModelKind::Gcn, GnnModelKind::Gin});

    BenchSession::Options uncached_opts;
    uncached_opts.graphCacheEntries = 0;
    const BenchSession uncached(uncached_opts);
    const ResultStore a = uncached.run(spec);
    EXPECT_EQ(uncached.cacheStats().hits, 0u);
    EXPECT_EQ(uncached.cacheStats().misses, 0u);

    BenchSession::Options cached_opts;
    cached_opts.sweepThreads = 4;
    const BenchSession cached(cached_opts);
    const ResultStore b = cached.run(spec);

    // 4 points, one distinct (dataset, scale, seed): 1 load, 3 hits.
    EXPECT_EQ(cached.cacheStats().misses, 1u);
    EXPECT_EQ(cached.cacheStats().hits, 3u);

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a.at(i).ok) << a.at(i).error;
        ASSERT_TRUE(b.at(i).ok) << b.at(i).error;
        EXPECT_EQ(a.at(i).outcome.graphSummary,
                  b.at(i).outcome.graphSummary);
        const auto &ta = a.at(i).outcome.timeline;
        const auto &tb = b.at(i).outcome.timeline;
        ASSERT_EQ(ta.size(), tb.size());
        for (size_t k = 0; k < ta.size(); ++k) {
            EXPECT_EQ(ta[k].name, tb[k].name);
            EXPECT_EQ(ta[k].sim.cycles, tb[k].sim.cycles);
            EXPECT_EQ(ta[k].sim.warpInstrs, tb[k].sim.warpInstrs);
            EXPECT_EQ(ta[k].sim.l1Hits, tb[k].sim.l1Hits);
            EXPECT_EQ(ta[k].sim.l2Hits, tb[k].sim.l2Hits);
        }
    }
}

TEST(BenchSession, GraphCacheDistinguishesScaleAndSeed)
{
    UserParams base = tinySimBase("test-tiny");
    const SweepSpec spec =
        SweepSpec{}
            .base(base)
            .variants({{"s7", [](UserParams &p) { p.seed = 7; }},
                       {"s8", [](UserParams &p) { p.seed = 8; }},
                       {"s7b",
                        [](UserParams &p) { p.seed = 7; }}});
    const BenchSession session;
    session.run(spec);
    // Two distinct seeds: two loads; the repeat seed hits.
    EXPECT_EQ(session.cacheStats().misses, 2u);
    EXPECT_EQ(session.cacheStats().hits, 1u);
}

TEST(BenchSession, GraphCacheEvictsBeyondCapacity)
{
    UserParams base = tinySimBase("test-tiny");
    BenchSession::Options opts;
    opts.graphCacheEntries = 1;
    std::vector<SweepVariant> vars;
    for (uint64_t s = 1; s <= 3; ++s)
        vars.push_back({std::string("s").append(std::to_string(s)),
                        [s](UserParams &p) { p.seed = s; }});
    const BenchSession session(opts);
    session.run(SweepSpec{}.base(base).variants(vars));
    EXPECT_EQ(session.cacheStats().misses, 3u);
    EXPECT_EQ(session.cacheStats().evictions, 2u);
}
