#include "hwdb/HwPresets.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "hwdb/HwConfigFile.hpp"
#include "util/Csv.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"
#include "util/Table.hpp"

namespace gsuite {

namespace {

/**
 * file: specs parse once per process and stay immutable — sweeps
 * resolve the spec per point, and re-reading from disk would both
 * repeat the I/O and let a mid-sweep edit make points simulate
 * different machines than the recorded provenance.
 */
const HwConfig &
cachedHwConfigFile(const std::string &path)
{
    static std::mutex mtx;
    static std::map<std::string, HwConfig> cache;
    std::lock_guard<std::mutex> lock(mtx);
    auto it = cache.find(path);
    if (it == cache.end())
        it = cache.emplace(path, parseHwConfigFile(path)).first;
    return it->second;
}

/** fatal() unless @p spec names a single machine. */
void
rejectSpecList(const std::string &spec)
{
    if (spec.find(',') != std::string::npos)
        fatal("gpu spec '%s' is a list; sweep specs expand lists "
              "before resolution",
              spec.c_str());
}

/**
 * RTX 2060 SUPER (Turing TU106) — the paper's hardware platform.
 * 34 SMs total (17 simulated x sample factor 2; 34 = 2 x 17 has no
 * smaller exact sampling), 32 warps/SM, 64 KiB L1D, 4 MiB L2,
 * 448 GB/s GDDR6 at a 1.65 GHz core clock (~271.5 B/cyc over
 * 34 SMs => 7.99 B/cyc per SM).
 */
GpuConfig
rtx2060sSim()
{
    GpuConfig cfg;
    cfg.name = "rtx2060s";
    cfg.numSms = 17;
    cfg.smSampleFactor = 2;
    cfg.maxWarpsPerSm = 32;
    cfg.maxThreadsPerSm = 1024;
    cfg.maxCtasPerSm = 16;
    cfg.numSchedulers = 4;
    cfg.l1Latency = 32;
    cfg.l2Latency = 188;
    cfg.dramLatency = 330;
    cfg.dramBytesPerCyclePerSm = 7.99;
    cfg.l1d = {64 * 1024, 128, 32, 32, false};
    cfg.l2 = {4 * 1024 * 1024, 128, 32, 32, true};
    // GDDR6: longer core-clock row timings than the HBM parts and a
    // 2 KiB row buffer over 16 banks per channel slice.
    cfg.dram = {16, 2048, 20, 46, 20, 3, DramSchedPolicy::Frfcfs,
                64};
    cfg.coreClockGhz = 1.65;
    return cfg;
}

/**
 * Tesla P100 (Pascal GP100). 56 SMs total (8 x 7), 64 warps/SM over
 * 2 scheduler partitions, 24 KiB L1D, 4 MiB L2, 732 GB/s HBM2 at
 * 1.33 GHz (~551 B/cyc over 56 SMs => 9.84 B/cyc per SM). Pascal's
 * L1 is slower and smaller than Volta's combined L1/shared array.
 */
GpuConfig
p100Sim()
{
    GpuConfig cfg;
    cfg.name = "p100";
    cfg.numSms = 8;
    cfg.smSampleFactor = 7;
    cfg.maxCtasPerSm = 32;
    cfg.numSchedulers = 2;
    cfg.l1Latency = 82;
    cfg.l2Latency = 218;
    cfg.dramLatency = 380;
    cfg.dramBytesPerCyclePerSm = 9.84;
    cfg.l1d = {24 * 1024, 128, 32, 6, false};
    cfg.l2 = {4 * 1024 * 1024, 128, 32, 16, true};
    // Pascal's small non-adaptive L1 tracks fewer outstanding
    // misses; HBM2 rows over 16 banks with a shallower queue.
    cfg.l1Mshr = {16, 8, 16};
    cfg.dram = {16, 2048, 14, 33, 14, 2, DramSchedPolicy::Frfcfs,
                32};
    cfg.coreClockGhz = 1.33;
    return cfg;
}

/**
 * A100 (Ampere GA100, 40 GB). 108 SMs total (6 x 18), 192 KiB L1D,
 * 40 MiB L2, 1555 GB/s HBM2e at 1.41 GHz (~1103 B/cyc over 108 SMs
 * => 10.2 B/cyc per SM). The large L2 gets 8 address slices.
 */
GpuConfig
a100Sim()
{
    GpuConfig cfg;
    cfg.name = "a100";
    cfg.numSms = 6;
    cfg.smSampleFactor = 18;
    cfg.l1Latency = 33;
    cfg.l2Latency = 200;
    cfg.dramLatency = 290;
    cfg.dramBytesPerCyclePerSm = 10.2;
    cfg.l1d = {192 * 1024, 128, 32, 24, false};
    cfg.l2 = {40ull * 1024 * 1024, 128, 32, 20, true};
    cfg.numL2Slices = 8;
    // HBM2e: twice the banks of the HBM2 parts, deeper L2 miss
    // tracking behind the large cache.
    cfg.l1Mshr = {48, 8, 48};
    cfg.l2Mshr = {128, 8, 128};
    cfg.dram = {32, 2048, 14, 33, 14, 2, DramSchedPolicy::Frfcfs,
                64};
    cfg.coreClockGhz = 1.41;
    return cfg;
}

/**
 * H100 SXM5 (Hopper GH100). 132 SMs total (6 x 22), 64 warps/SM
 * over 4 scheduler partitions, 256 KiB combined L1/shared, 50 MiB
 * L2 (two partitions; we model the averaged ~273-cycle round trip
 * the dissecting microbenchmarks report rather than the near/far
 * split), 3352 GB/s HBM3 at 1.83 GHz boost (~1832 B/cyc over
 * 132 SMs => 13.88 B/cyc per SM). The big L2 gets 8 address slices,
 * like the A100 model.
 */
GpuConfig
h100Sim()
{
    GpuConfig cfg;
    cfg.name = "h100";
    cfg.numSms = 6;
    cfg.smSampleFactor = 22;
    cfg.l1Latency = 33;
    cfg.l2Latency = 273;
    cfg.dramLatency = 478;
    cfg.dramBytesPerCyclePerSm = 13.88;
    cfg.l1d = {256 * 1024, 128, 32, 32, false};
    // 50 MiB / (128 B lines x 25-way) = 16384 sets (power of two).
    cfg.l2 = {50ull * 1024 * 1024, 128, 32, 25, true};
    cfg.numL2Slices = 8;
    // HBM3 at the higher core clock: more cycles per row command,
    // 32 banks, and the deepest scheduler queue of the family.
    cfg.l1Mshr = {64, 8, 64};
    cfg.l2Mshr = {128, 8, 128};
    cfg.dram = {32, 2048, 18, 42, 18, 2, DramSchedPolicy::Frfcfs,
                128};
    cfg.coreClockGhz = 1.83;
    return cfg;
}

/**
 * Jetson AGX Orin (Ampere GA10B, integrated). 16 SMs (4 x 4),
 * 192 KiB combined L1/shared per SM, 4 MiB shared L2, and 204.8 GB/s
 * of LPDDR5 *shared with the CPU* — at the 1.3 GHz GPU clock that is
 * ~157.5 B/cyc over 16 SMs => 9.84 B/cyc per SM, with DRAM latency
 * well above the discrete parts (LPDDR over a coherent fabric). The
 * shared-memory budget class: the natural target for budget-
 * constrained memory planning (src/memplan).
 */
GpuConfig
jetsonOrinSim()
{
    GpuConfig cfg;
    cfg.name = "jetson-orin";
    cfg.numSms = 4;
    cfg.smSampleFactor = 4;
    cfg.l1Latency = 33;
    cfg.l2Latency = 240;
    cfg.dramLatency = 420;
    cfg.dramBytesPerCyclePerSm = 9.84;
    cfg.l1d = {192 * 1024, 128, 32, 24, false};
    cfg.l2 = {4ull * 1024 * 1024, 128, 32, 32, true};
    // LPDDR5 shared with the CPU: few banks, slow row cycles, a
    // shallow queue, and a simple in-order (FCFS) controller.
    cfg.l2Mshr = {32, 8, 32};
    cfg.dram = {8, 1024, 36, 84, 36, 4, DramSchedPolicy::Fcfs, 16};
    cfg.coreClockGhz = 1.3;
    return cfg;
}

std::vector<HwPreset>
buildRegistry()
{
    std::vector<HwPreset> presets;
    presets.push_back(
        {"p100",
         "Tesla P100 (Pascal), 56 SMs, 24KiB L1, 4MiB L2, "
         "732GB/s HBM2",
         p100Sim()});
    presets.push_back(
        {"v100-sim",
         "Tesla V100 (Volta), the paper's GPGPU-Sim model: 80 SMs, "
         "128KiB L1, 3MiB L2, 900GB/s HBM2",
         GpuConfig::v100Sim()});
    presets.push_back(
        {"rtx2060s",
         "GeForce RTX 2060 SUPER (Turing), the paper's hardware "
         "platform: 34 SMs, 64KiB L1, 4MiB L2, 448GB/s GDDR6",
         rtx2060sSim()});
    presets.push_back(
        {"a100",
         "A100 40GB (Ampere), 108 SMs, 192KiB L1, 40MiB L2, "
         "1555GB/s HBM2e",
         a100Sim()});
    presets.push_back(
        {"h100",
         "H100 SXM5 (Hopper), 132 SMs, 256KiB L1, 50MiB L2, "
         "3352GB/s HBM3",
         h100Sim()});
    presets.push_back(
        {"jetson-orin",
         "Jetson AGX Orin (Ampere, integrated), 16 SMs, 192KiB L1, "
         "4MiB L2, 205GB/s shared LPDDR5",
         jetsonOrinSim()});
    presets.push_back(
        {"test-tiny",
         "2-SM miniature with tiny caches for unit tests",
         GpuConfig::testTiny(), /*sweepable=*/false});
    for (const HwPreset &p : presets) {
        panicIf(p.name != p.config.name,
                "hwdb preset name mismatches its config name");
        p.config.validate();
    }
    return presets;
}

} // namespace

const std::vector<HwPreset> &
hwPresets()
{
    static const std::vector<HwPreset> registry = buildRegistry();
    return registry;
}

const HwPreset *
findHwPreset(const std::string &name)
{
    const std::string n = toLower(trim(name));
    for (const HwPreset &p : hwPresets())
        if (p.name == n)
            return &p;
    return nullptr;
}

const HwPreset &
hwPresetByName(const std::string &name)
{
    const HwPreset *p = findHwPreset(name);
    if (!p) {
        std::string known;
        for (const HwPreset &k : hwPresets()) {
            if (!known.empty())
                known += ", ";
            known += k.name;
        }
        fatal("unknown GPU preset '%s' (known: %s; or file:PATH)",
              name.c_str(), known.c_str());
    }
    return *p;
}

std::vector<std::string>
sweepableHwPresetNames()
{
    std::vector<std::string> names;
    for (const HwPreset &p : hwPresets())
        if (p.sweepable)
            names.push_back(p.name);
    return names;
}

std::string
hwPresetTable()
{
    TablePrinter table("registered GPU presets (--gpu NAME)");
    table.header({"name", "SMs", "L1D", "L2", "GHz", "description"});
    for (const HwPreset &p : hwPresets()) {
        const GpuConfig &c = p.config;
        table.row({p.name,
                   std::to_string(c.numSms * c.smSampleFactor),
                   formatBytes(c.l1d.sizeBytes),
                   formatBytes(c.l2.sizeBytes),
                   fmtDouble(c.coreClockGhz, 2), p.description});
    }
    return table.render();
}

void
listHwPresetsAndExit()
{
    std::fputs(hwPresetTable().c_str(), stdout);
    std::exit(0);
}

bool
isFileGpuSpec(const std::string &spec)
{
    return startsWith(spec, "file:");
}

std::string
fileGpuSpecPath(const std::string &spec)
{
    return spec.substr(5);
}

GpuConfig
resolveGpuSpec(const std::string &spec)
{
    rejectSpecList(spec);
    if (isFileGpuSpec(spec))
        return cachedHwConfigFile(fileGpuSpecPath(spec)).gpu;
    return hwPresetByName(spec).config;
}

FrameworkOverheads
resolveFrameworkOverheads(const std::string &spec, Framework fw)
{
    rejectSpecList(spec);
    if (isFileGpuSpec(spec)) {
        const HwConfig &hw = cachedHwConfigFile(fileGpuSpecPath(spec));
        const auto it = hw.overheads.find(fw);
        if (it != hw.overheads.end())
            return it->second;
    }
    return FrameworkOverheads::defaults(fw);
}

std::vector<std::string>
expandGpuSpecs(const std::string &specList)
{
    std::vector<std::string> specs;
    auto push_unique = [&specs](const std::string &s) {
        for (const std::string &seen : specs)
            if (seen == s)
                return;
        specs.push_back(s);
    };
    for (const std::string &part : split(specList, ',')) {
        const std::string p = trim(part);
        if (p.empty())
            fatal("--gpu has an empty component in '%s'",
                  specList.c_str());
        if (isFileGpuSpec(p)) {
            if (fileGpuSpecPath(p).empty())
                fatal("--gpu file: needs a path");
            cachedHwConfigFile(fileGpuSpecPath(p));
            push_unique(p);
        } else if (toLower(p) == "all") {
            for (const std::string &name : sweepableHwPresetNames())
                push_unique(name);
        } else {
            push_unique(hwPresetByName(p).name);
        }
    }
    return specs;
}

} // namespace gsuite
