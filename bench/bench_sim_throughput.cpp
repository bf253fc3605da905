/**
 * @file
 * Simulator-throughput benchmark: wall-clock and resident trace
 * memory per kernel class, comparing the pre-SoA engine shape (the
 * per-warp reference issue path, legacy every-SM-every-cycle
 * stepping, effectively-unbounded trace chunks — the
 * eager-materialization footprint) against the optimized
 * configuration (SoA issue fast path, per-SM fast-forward, streamed
 * chunks). The SGEMM-dense
 * point is the issue-bound archetype the SoA rewrite targets: a
 * deep-K GEMM whose schedulers are saturated with FMA chains.
 *
 * Emits machine-readable JSON (default BENCH_sim_throughput.json)
 * via ResultStore::toJson so later PRs can track the performance
 * trajectory:
 *
 *   --json FILE    output path
 *   --chunk N      trace-chunk instructions (default 256)
 *   --quick        smaller workloads for smoke runs
 *
 * KernelStats are bit-identical between the two configurations (the
 * determinism suite enforces this); only wall-clock and footprint
 * change.
 */

#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "kernels/Spmm.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "sparse/Csr.hpp"
#include "tensor/DenseMatrix.hpp"
#include "util/Logging.hpp"
#include "util/Random.hpp"
#include "util/Timer.hpp"

using namespace gsuite;

namespace {

long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

DenseMatrix
randomMatrix(int64_t r, int64_t c, uint64_t seed)
{
    DenseMatrix m(r, c);
    Rng rng(seed);
    m.fillUniform(rng, -1.0f, 1.0f);
    return m;
}

CsrMatrix
skewedCsr(int64_t n, uint64_t seed)
{
    // Power-law-ish degrees: heavy hubs every 41 rows, like the
    // paper's social/citation graphs after scaling. Hub rows expand
    // to multi-thousand-instruction traces, which is what streaming
    // trace generation exists to bound.
    Rng rng(seed);
    SparseBuilder bld(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t deg = r % 41 == 0 ? 1024 : 2 + r % 9;
        for (int64_t k = 0; k < deg; ++k)
            bld.add(r, static_cast<int64_t>(
                           rng.nextBelow(static_cast<uint64_t>(n))),
                    rng.nextFloat(-1.0f, 1.0f));
    }
    return bld.finish();
}

/**
 * Simulate @p launch under both engine configurations, repeating
 * @p reps times and keeping the best wall-clock of each (standard
 * min-of-N timing). The baseline is the pre-SoA engine shape: the
 * per-warp reference issue path (GpuConfig::referenceIssue), legacy
 * every-SM-every-cycle stepping, and eager-size trace chunks; the
 * optimized configuration is the default SoA issue fast path with
 * per-SM fast-forward and streamed chunks. Everything lands in the
 * outcome's metrics so ResultStore::toJson can emit it for trend
 * tracking.
 */
void
measure(RunOutcome &out, const KernelLaunch &launch,
        const GpuConfig &cfg, int64_t max_ctas, int chunk, int reps)
{
    SimOptions base;
    base.maxCtas = max_ctas;
    base.traceChunkInstrs = 1 << 22;  // eager-equivalent footprint
    base.perSmFastForward = false;    // legacy stepping

    SimOptions opt;
    opt.maxCtas = max_ctas;
    opt.traceChunkInstrs = chunk;

    double baseline_ms = 0.0, optimized_ms = 0.0;
    uint64_t cycles = 0;

    GpuConfig ref_cfg = cfg;
    ref_cfg.referenceIssue = true; // pre-SoA per-warp issue path
    GpuSimulator ref_sim(ref_cfg);
    GpuSimulator sim(cfg);
    for (int i = 0; i < reps; ++i) {
        Timer t;
        const KernelStats st = ref_sim.run(launch, base);
        const double ms = t.elapsedMs();
        if (i == 0 || ms < baseline_ms)
            baseline_ms = ms;
        cycles = st.cycles;
        out.metrics["baseline_trace_bytes_peak"] =
            static_cast<double>(st.traceBytesPeak);
        out.metrics["cycles"] = static_cast<double>(st.cycles);
        out.metrics["warp_instrs"] =
            static_cast<double>(st.warpInstrs);
    }
    for (int i = 0; i < reps; ++i) {
        Timer t;
        const KernelStats st = sim.run(launch, opt);
        const double ms = t.elapsedMs();
        if (i == 0 || ms < optimized_ms)
            optimized_ms = ms;
        out.metrics["optimized_trace_bytes_peak"] =
            static_cast<double>(st.traceBytesPeak);
        panicIf(st.cycles != cycles,
                "optimized config changed simulated cycles");
    }
    out.metrics["baseline_ms"] = baseline_ms;
    out.metrics["optimized_ms"] = optimized_ms;
    out.metrics["speedup"] =
        optimized_ms > 0.0 ? baseline_ms / optimized_ms : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionSet opts;
    opts.parseArgs(argc, argv);
    const std::string json_path =
        opts.getString("json", "BENCH_sim_throughput.json");
    const int chunk = static_cast<int>(opts.getInt("chunk", 256));
    const bool quick = opts.getBool("quick", false);
    opts.rejectUnread();

    const int64_t n = quick ? 1200 : 4000;
    const int64_t feat = quick ? 32 : 64;
    const int64_t max_ctas = quick ? 256 : 1024;
    // Min-of-N wall-clock; a single rep is too noisy even for smoke
    // runs (first-touch page faults land on the baseline).
    const int reps = quick ? 2 : 3;

    const GpuConfig cfg = GpuConfig::v100Sim();

    bench::banner(
        "simulator throughput",
        "baseline: reference issue, eager-size chunks | optimized: " +
            std::to_string(chunk) + "-instr chunks");

    // One point per kernel archetype; each point measures the
    // baseline-vs-optimized pair. Serial session: this is a timing
    // bench, concurrent points would skew each other's wall-clock.
    const SweepSpec spec =
        SweepSpec{}
            .engine(EngineKind::Sim)
            .variants({{"SpMM", nullptr},
                       {"SGEMM", nullptr},
                       {"SGEMM-dense", nullptr},
                       {"Scatter", nullptr}});

    const ResultStore store = BenchSession().run(
        spec, [&](const SweepPoint &pt) {
            RunOutcome out;
            out.params = pt.params;
            DeviceAllocator alloc;
            if (pt.variant == "SpMM") {
                // Irregular gather archetype.
                const CsrMatrix a = skewedCsr(n, 11);
                const DenseMatrix b = randomMatrix(n, feat, 12);
                DenseMatrix c;
                SpmmKernel k("spmm", a, b, c);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        chunk, reps);
            } else if (pt.variant == "SGEMM") {
                // Dense compute archetype.
                const DenseMatrix a = randomMatrix(n / 2, 256, 13);
                const DenseMatrix b = randomMatrix(256, 128, 14);
                DenseMatrix c;
                SgemmKernel k("sgemm", a, b, c);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        chunk, reps);
            } else if (pt.variant == "SGEMM-dense") {
                // Deep-K dense GEMM: long FMA chains over shared-
                // memory tiles keep every scheduler issue-bound —
                // the workload the SoA issue fast path targets.
                const DenseMatrix a =
                    randomMatrix(n / 4, 1024, 17);
                const DenseMatrix b = randomMatrix(1024, 256, 18);
                DenseMatrix c;
                SgemmKernel k("sgemm_dense", a, b, c);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        chunk, reps);
            } else {
                // Atomic contention archetype.
                const int64_t e = n * 4;
                const DenseMatrix msg = randomMatrix(e, 16, 15);
                Rng rng(16);
                std::vector<int64_t> idx(static_cast<size_t>(e));
                for (auto &v : idx)
                    v = static_cast<int64_t>(rng.nextBelow(
                        static_cast<uint64_t>(n)));
                DenseMatrix dst(n, 16);
                ScatterKernel k("scatter", msg, idx, dst,
                                ScatterKernel::Reduce::Sum);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        chunk, reps);
            }
            return out;
        });

    TablePrinter table("simulator throughput");
    table.header({"kernel", "base ms", "opt ms", "speedup",
                  "base trace KiB", "opt trace KiB"});
    for (const auto &r : store) {
        if (!r.ok)
            continue;
        const auto &m = r.outcome.metrics;
        table.row(
            {r.point.variant, fmtDouble(m.at("baseline_ms"), 2),
             fmtDouble(m.at("optimized_ms"), 2),
             fmtDouble(m.at("speedup"), 2),
             fmtDouble(m.at("baseline_trace_bytes_peak") / 1024.0,
                       1),
             fmtDouble(m.at("optimized_trace_bytes_peak") / 1024.0,
                       1)});
    }
    table.print();

    store.toJson(json_path,
                 {{"chunk", static_cast<double>(chunk)},
                  {"peak_rss_kb", static_cast<double>(peakRssKb())},
                  {"quick", quick ? 1.0 : 0.0}});
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
