/**
 * @file
 * gSuite's own benchmark: runs one named workload through the suite's
 * public entry points with the library's default options (sim points
 * on one SM thread, see Workloads.hpp), checks the outputs, and prints
 * one JSON result as its last stdout line.
 *
 *   gsuite_perfbench --workload sim-exact --seed 1 --seconds 38 \
 *                    --trace 0 [--out-dir DIR] [--git-sha SHA]
 *
 * --trace 0 measures the end-to-end metrics: repetitions of set-up
 * and one untraced sweep, at least kMinReps of them and more while
 * another fits in the given seconds, reported as medians. --trace 1
 * runs one untraced and one traced sweep plus the uncapped reference
 * and reports the per-layer metrics; the traced spans go to a
 * Chrome-trace file in the output directory.
 *
 * Limits, stated with every result: every launch starts on a flushed
 * device (cold caches, no warm-up), and the timing model is not
 * validated against hardware; the only error figure is
 * sim_cycle_err_pct, measured against the uncapped simulator.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "frameworks/FrameworkAdapter.hpp"
#include "models/Reference.hpp"
#include "suite/BenchSession.hpp"
#include "suite/ResultStore.hpp"
#include "suite/Runner.hpp"
#include "util/RunError.hpp"
#include "util/ThreadPool.hpp"
#include "util/Timer.hpp"

#include "Metrics.hpp"
#include "Traced.hpp"
#include "Workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace gsuite;
using namespace perfbench;

namespace {

/**
 * Repetitions of an untraced run. Each one times set-up next to a
 * sweep, so both see the same host load. There are at least
 * kMinReps, so every counter is compared across sweeps.
 */
constexpr size_t kMinReps = 2;
/**
 * Set-ups per repetition (setup_s is the median of all of them): at
 * least kSetupMinReps, and more, up to kSetupMaxReps, until
 * kSetupMinSeconds have passed, so a fast set-up is sampled enough.
 */
constexpr int kSetupMinReps = 2;
constexpr int kSetupMaxReps = 30;
constexpr double kSetupMinSeconds = 0.5;
/** Largest elementError the output check accepts. */
constexpr double kOutputTolerance = 1e-3;

const char *const kLimits[] = {
    "every launch starts on a flushed device: caches are cold and "
    "there is no warm-up",
    "the timing model is unvalidated against hardware; the only "
    "error figure is sim_cycle_err_pct, measured against the "
    "uncapped simulator",
};

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string outDir = ".bench_build/perfbench-out";
    std::string gitSha = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload") {
            a.workload = value;
            haveWorkload = true;
        } else if (key == "--seed") {
            a.seed = std::stoull(value);
        } else if (key == "--seconds") {
            a.seconds = std::stod(value);
        } else if (key == "--trace") {
            a.trace = std::stoi(value);
        } else if (key == "--out-dir") {
            a.outDir = value;
        } else if (key == "--git-sha") {
            a.gitSha = value;
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
    }
    if (!haveWorkload)
        throw std::invalid_argument("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    if (!(a.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Graph-cache key: everything loadDatasetFor derives a graph from. */
std::string
graphKey(const UserParams &p)
{
    return p.dataset + "|" + p.resolveScale().describe() + "|" +
           std::to_string(p.seed);
}

/** The workload's inputs: generated graphs and resolved machines. */
struct Inputs {
    std::map<std::string, std::shared_ptr<const Graph>> graphs;
    std::vector<GpuConfig> machines; ///< per point
    int64_t edges = 0;               ///< over distinct graphs

    const Graph &
    graphFor(const UserParams &p) const
    {
        return *graphs.at(graphKey(p));
    }
};

Inputs
loadInputs(const std::vector<UserParams> &params, Tracer *tracer)
{
    Inputs in;
    for (const UserParams &p : params) {
        const std::string key = graphKey(p);
        if (in.graphs.count(key))
            continue;
        Scoped s(tracer, "graph.load", -1);
        auto g = std::make_shared<const Graph>(loadDatasetFor(p));
        in.edges += g->numEdges();
        in.graphs.emplace(key, std::move(g));
    }
    Scoped s(tracer, "suite.resolve_gpu", -1);
    for (const UserParams &p : params)
        in.machines.push_back(p.resolveGpuConfig());
    return in;
}

/**
 * Simulated counters of a timeline, one string per kernel. The cache
 * profiler's counters are left out: they do not repeat between
 * identical runs of a point (see hwMismatches).
 */
std::vector<std::string>
fingerprints(const std::vector<KernelRecord> &timeline)
{
    std::vector<std::string> out;
    for (const KernelRecord &rec : timeline)
        out.push_back(rec.hasSim ? counterFingerprint(rec.sim) : rec.name);
    return out;
}

/**
 * Launches whose cache-profiler counters differ between two timelines
 * of the same point. Counted, not failed: with runs > 1 and batch 1
 * they differ between identical runs, likely because the engine's
 * shared DeviceAllocator maps each run's new host buffers by host
 * address, and the addresses malloc returns are not repeatable.
 */
size_t
hwMismatches(const std::vector<KernelRecord> &a,
             const std::vector<KernelRecord> &b)
{
    size_t n = 0;
    for (size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
        const HwProfileResult &x = a[k].hw, &y = b[k].hw;
        n += a[k].hasHw != b[k].hasHw || x.l1Hits != y.l1Hits ||
             x.l1Misses != y.l1Misses || x.l2Hits != y.l2Hits ||
             x.l2Misses != y.l2Misses;
    }
    return n;
}

/** One untraced BenchSession sweep over the workload's points. */
struct Sweep {
    double wallS = 0.0; ///< session.run plus ResultStore::toJson
    double runWallS = 0.0; ///< session.run alone
    double cpuS = 0.0;
    double emitMs = 0.0;
    std::vector<double> pointWallS;
    ResultStore store;
};

Sweep
runSweep(const std::vector<PointSpec> &points,
         const std::vector<UserParams> &params, const Inputs &in,
         const std::string &emitPath, Tracer *tracer)
{
    SweepSpec spec;
    spec.base(params.front());
    std::vector<SweepVariant> variants;
    for (size_t i = 0; i < params.size(); ++i)
        variants.push_back(
            {points[i].label, [p = params[i]](UserParams &u) { u = p; }});
    spec.variants(std::move(variants));

    Sweep sw;
    sw.pointWallS.assign(params.size(), 0.0);
    // Library defaults: a serial session, no watchdogs; the graphs
    // come from set-up through runPoint(params, graph).
    const BenchSession session;
    const double cpu0 = processCpuSeconds();
    const Timer sweepTimer;
    sw.store = session.run(spec, [&](const SweepPoint &pt) {
        const Timer pointTimer;
        try {
            RunOutcome o =
                BenchSession::runPoint(pt.params, in.graphFor(pt.params));
            sw.pointWallS[pt.index] = pointTimer.elapsedSec();
            return o;
        } catch (...) {
            sw.pointWallS[pt.index] = pointTimer.elapsedSec();
            throw;
        }
    });
    sw.runWallS = sweepTimer.elapsedSec();
    {
        Scoped s(tracer, "suite.emit", -1);
        const Timer emitTimer;
        sw.store.toJson(emitPath);
        sw.emitMs = emitTimer.elapsedMs();
    }
    sw.wallS = sweepTimer.elapsedSec();
    sw.cpuS = processCpuSeconds() - cpu0;
    return sw;
}

/** Pass/fail bookkeeping per point execution. */
struct Ledger {
    size_t attempted = 0;
    size_t failed = 0;
    /** One line per failed check: point, RunError kind, reason. */
    std::vector<std::string> notes;

    void
    fail(const std::string &label, RunError kind,
         const std::string &why)
    {
        notes.push_back(label + " [" + runErrorName(kind) + "]: " + why);
    }
};

/** Account one sweep's point executions; returns per-point ok. */
std::vector<bool>
account(const Sweep &sw, const std::vector<PointSpec> &points, Ledger &led)
{
    std::vector<bool> ok(points.size(), true);
    for (size_t i = 0; i < points.size(); ++i) {
        ++led.attempted;
        const SweepResult &r = sw.store.at(i);
        if (!r.ok) {
            ok[i] = false;
            led.fail(points[i].label, r.errorKind, r.error);
        }
    }
    return ok;
}

uint64_t
steppedCycles(const ResultStore &store)
{
    uint64_t c = 0;
    for (const SweepResult &r : store)
        if (r.ok)
            for (const KernelRecord &rec : r.outcome.timeline)
                if (rec.hasSim)
                    c += rec.sim.cycles;
    return c;
}

/**
 * The sim_cycle_err_pct reference: every sim point rerun untimed with
 * the CTA cap lifted and sampling off. A launch whose cycles were
 * neither capped nor extrapolated must match the measured run counter
 * for counter; a mismatch fails the point.
 */
double
exactCycleError(const std::vector<PointSpec> &points,
                const std::vector<UserParams> &params, const Inputs &in,
                const ResultStore &measured, std::vector<bool> &pointOk,
                Ledger &led, std::vector<double> &pointErrPct)
{
    std::vector<std::pair<double, double>> pairs;
    pointErrPct.assign(params.size(), -1.0);
    for (size_t i = 0; i < params.size(); ++i) {
        const SweepResult &m = measured.at(i);
        if (!m.ok)
            continue;
        UserParams p = params[i];
        p.maxCtas = int64_t{1} << 40;
        p.sample = "off";
        RunOutcome exact;
        try {
            exact = BenchSession::runPoint(p, in.graphFor(p));
        } catch (const std::exception &e) {
            pointOk[i] = false;
            led.fail(points[i].label, RunError::Unknown,
                     std::string("uncapped reference: ") + e.what());
            continue;
        }
        const auto &got = m.outcome.timeline;
        const auto &want = exact.timeline;
        if (got.size() != want.size()) {
            pointOk[i] = false;
            led.fail(points[i].label, RunError::Unknown,
                     "uncapped reference has another kernel count");
            continue;
        }
        const size_t first = pairs.size();
        for (size_t k = 0; k < got.size(); ++k) {
            if (!got[k].hasSim || !want[k].hasSim)
                continue;
            pairs.emplace_back(reportedCycles(got[k].sim),
                               static_cast<double>(want[k].sim.cycles));
            if (!isExtrapolated(got[k].sim) &&
                counterFingerprint(got[k].sim) !=
                    counterFingerprint(want[k].sim)) {
                pointOk[i] = false;
                led.fail(points[i].label, RunError::Unknown,
                         "counters of " + got[k].name +
                             " differ from the uncapped reference");
            }
        }
        pointErrPct[i] = cycleErrorPct(
            {pairs.begin() + static_cast<std::ptrdiff_t>(first), pairs.end()});
    }
    return cycleErrorPct(pairs);
}

/**
 * Output error of every replica of a point against referenceForward:
 * the largest elementError over all their elements. GIN's sum
 * aggregation reaches magnitudes near 1e4 on reddit, where one float
 * ulp is 1e-3, so each element's bound scales with its own reference
 * value; below 1 it is the plain absolute difference.
 */
double
outputError(const Graph &graph, const ModelConfig &cfg,
            const std::vector<std::unique_ptr<GnnPipeline>> &pipelines)
{
    const DenseMatrix ref =
        referenceForward(graph, cfg, pipelines.front()->weights());
    double worst = 0.0;
    for (const auto &p : pipelines) {
        const DenseMatrix &out = p->output();
        if (out.rows() != ref.rows() || out.cols() != ref.cols())
            return INFINITY;
        for (int64_t i = 0; i < ref.rows(); ++i)
            for (int64_t j = 0; j < ref.cols(); ++j) {
                const double e = elementError(out.at(i, j), ref.at(i, j));
                if (std::isnan(e))
                    return INFINITY;
                worst = std::max(worst, e);
            }
    }
    return worst;
}

/**
 * Output check of an untraced run: each point once more, its
 * embeddings against referenceForward. Functional points run through
 * AbstractionModule's engine in the measured configuration; sim
 * points run the same kernels on the functional engine, since their
 * simulated counters are checked by repetition instead.
 */
void
checkOutputs(const std::vector<PointSpec> &points,
             const std::vector<UserParams> &params, const Inputs &in,
             const ResultStore &measured, std::vector<bool> &pointOk,
             Ledger &led)
{
    for (size_t i = 0; i < params.size(); ++i) {
        if (!measured.at(i).ok)
            continue;
        UserParams p = params[i];
        const Graph &graph = in.graphFor(p);
        p.engine = EngineKind::Functional;
        try {
            auto engine = AbstractionModule::makeEngine(p);
            const FrameworkAdapter adapter(p.framework);
            ModelConfig cfg = p.modelConfig();
            cfg.comp = adapter.resolveCompModel(cfg.model, cfg.comp);
            std::vector<std::unique_ptr<GnnPipeline>> pipelines;
            std::vector<const OpGraph *> graphs;
            for (int b = 0; b < p.batch; ++b) {
                pipelines.push_back(
                    std::make_unique<GnnPipeline>(graph, cfg));
                graphs.push_back(&pipelines.back()->opGraph());
            }
            if (p.batch > 1)
                engine->run(OpGraph::merge(graphs));
            else
                pipelines.front()->run(*engine);
            const double err = outputError(graph, cfg, pipelines);
            if (!(err <= kOutputTolerance)) {
                pointOk[i] = false;
                led.fail(points[i].label, RunError::Unknown,
                         "embeddings differ from referenceForward by " +
                             std::to_string(err));
            }
        } catch (const std::exception &e) {
            pointOk[i] = false;
            led.fail(points[i].label, RunError::Unknown,
                     std::string("output check: ") + e.what());
        }
    }
}

// ---- output ------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    return out + "}";
}

/** Host signature and resolved defaults recorded with every result. */
std::string
provenanceJson(const Args &args, const Workload &w,
               const std::vector<UserParams> &params, const Inputs &in)
{
    const UserParams &p = params.front();
    const int lanes = ThreadPool::defaultLanes();
    const int numSms = in.machines.front().numSms;
    std::string out = "{";
    out += "\"git_sha\": " + jsonString(args.gitSha);
    out += ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"compiler\": " + jsonString(PERFBENCH_COMPILER);
    out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
    out += ", \"workload\": " + jsonString(w.name);
    out += ", \"seed\": " + std::to_string(args.seed);
    out += ", \"defaults\": \"UserParams::fromArgs (library), "
           "--sim-threads 1 on sim points\"";
    // What "auto" resolved to on this host (SimOptions::numThreads,
    // SimEngine launch lanes, BenchSession lanes).
    out += ", \"sim_threads_per_launch\": " +
           std::to_string(std::clamp(p.simThreads > 0 ? p.simThreads
                                                      : lanes,
                                     1, numSms));
    out += ", \"sim_launch_lanes\": " +
           std::to_string(p.simParallelLaunches > 0
                              ? p.simParallelLaunches
                              : std::min(4, lanes));
    out += ", \"session_lanes\": " +
           std::to_string(BenchSession::Options{}.sweepThreads);
    out += ", \"points\": [";
    for (size_t i = 0; i < params.size(); ++i)
        out += (i ? ", " : "") + jsonString(w.points[i].label);
    out += "]}";
    return out;
}

/**
 * Per-point detail for the result file: label, wall time of each
 * sweep, cycle error against the uncapped reference (-1 when not
 * measured) and the gpuConfigSnapshot of the machine it simulated.
 */
std::string
pointsJson(const Workload &w, const std::vector<const Sweep *> &sweeps,
           const std::vector<double> &pointErrPct)
{
    std::string out = "[";
    for (size_t i = 0; i < w.points.size(); ++i) {
        out += (i ? ",\n " : "") + std::string("{\"label\": ") +
               jsonString(w.points[i].label) + ", \"wall_s\": [";
        for (size_t r = 0; r < sweeps.size(); ++r)
            out += (r ? ", " : "") + jsonNumber(sweeps[r]->pointWallS[i]);
        out += "], \"cycle_err_pct\": " +
               jsonNumber(i < pointErrPct.size() ? pointErrPct[i] : -1.0);
        out += ", \"gpu_config\": {";
        const auto &snap = sweeps.front()->store.at(i).outcome.gpuConfigSnapshot;
        for (size_t k = 0; k < snap.size(); ++k)
            out += (k ? ", " : "") + jsonString(snap[k].first) + ": " +
                   jsonString(snap[k].second);
        out += "}}";
    }
    return out + "]";
}

void
printTable(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** Write the full result (provenance, points, metrics) to a file. */
void
writeResultFile(const std::string &path, const std::string &provenance,
                const std::string &points,
                const std::vector<Metric> &metrics, const Ledger &led)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::string notes = "[";
    for (size_t i = 0; i < led.notes.size(); ++i)
        notes += (i ? ", " : "") + jsonString(led.notes[i]);
    notes += "]";
    std::string limits = "[";
    for (size_t i = 0; i < std::size(kLimits); ++i)
        limits += (i ? ", " : "") + jsonString(kLimits[i]);
    limits += "]";
    std::fprintf(f,
                 "{\"provenance\": %s,\n\"limits\": %s,\n"
                 "\"points\": %s,\n\"metrics\": %s,\n"
                 "\"failures\": %s}\n",
                 provenance.c_str(), limits.c_str(), points.c_str(),
                 metricsJson(metrics).c_str(), notes.c_str());
    std::fclose(f);
}

// ---- the two run kinds ------------------------------------------------

struct Result {
    std::vector<Metric> endToEnd; ///< the JSON line's metrics
    std::vector<Metric> info;     ///< printed, not in the JSON line
    std::string points; ///< pointsJson()
};

/**
 * --trace 0: repetitions of set-up and one sweep, timed, then the
 * checks: counters identical across the sweeps, and embeddings
 * against referenceForward.
 */
Result
measureRun(const Args &args, const Workload &w,
           const std::vector<UserParams> &params, Inputs &in, Ledger &led)
{
    const std::string emitPath =
        args.outDir + "/" + w.name + "-sweep.json";
    std::vector<double> setupS;
    std::vector<Sweep> sweeps;
    std::vector<std::vector<bool>> ok;
    const Timer runTimer;
    double repS = 0.0; // wall of the latest repetition
    while (sweeps.size() < kMinReps ||
           runTimer.elapsedSec() + repS <= args.seconds) {
        const Timer repTimer;
        const Timer setupTimer;
        for (int r = 0; r < kSetupMinReps ||
                        (r < kSetupMaxReps &&
                         setupTimer.elapsedSec() < kSetupMinSeconds);
             ++r) {
            in = Inputs{}; // one graph set alive at a time
            const Timer t;
            in = loadInputs(params, nullptr);
            setupS.push_back(t.elapsedSec());
        }
        sweeps.push_back(runSweep(w.points, params, in, emitPath, nullptr));
        ok.push_back(account(sweeps.back(), w.points, led));
        repS = repTimer.elapsedSec();
    }
    const double rssMiB = peakRssMiB();

    const Timer checkTimer;
    std::vector<bool> pointOk(params.size(), true);
    for (size_t s = 1; s < sweeps.size(); ++s)
        for (size_t i = 0; i < params.size(); ++i)
            if (ok[0][i] && ok[s][i] &&
                fingerprints(sweeps[0].store.at(i).outcome.timeline) !=
                    fingerprints(sweeps[s].store.at(i).outcome.timeline)) {
                pointOk[i] = false;
                led.fail(w.points[i].label, RunError::Unknown,
                         "counters differ between repetitions");
            }
    checkOutputs(w.points, params, in, sweeps[0].store, pointOk, led);
    const double checkS = checkTimer.elapsedSec();
    for (size_t s = 0; s < sweeps.size(); ++s)
        for (size_t i = 0; i < params.size(); ++i)
            if (ok[s][i] && !pointOk[i])
                ++led.failed;
    for (const auto &row : ok)
        led.failed += static_cast<size_t>(
            std::count(row.begin(), row.end(), false));

    // Per point, the median over sweeps, so one slow sweep moves it
    // less. The gated point metric is their geometric mean: every
    // point weighs the same whatever its cost. Their median (the
    // ungated point_wall_s_p50) is one or two points' time, and on
    // points of very different cost it jumps between them.
    std::vector<double> wall, cpu, pointWall, mcps, cpm;
    for (size_t i = 0; i < params.size(); ++i) {
        std::vector<double> walls;
        for (const Sweep &sw : sweeps)
            walls.push_back(sw.pointWallS[i]);
        pointWall.push_back(median(walls));
    }
    const double mcycles = static_cast<double>(
                               steppedCycles(sweeps[0].store)) /
                           1e6;
    for (const Sweep &sw : sweeps) {
        wall.push_back(sw.wallS);
        cpu.push_back(sw.cpuS);
        if (mcycles > 0) {
            mcps.push_back(mcycles / sw.wallS);
            cpm.push_back(sw.cpuS / mcycles);
        }
    }

    Result res;
    res.endToEnd = {
        {"sweep_wall_s", median(wall), "s"},
        {"sweep_cpu_s", median(cpu), "s"},
        {"point_wall_s_gmean", geometricMean(pointWall), "s"},
        {"peak_rss_mib", rssMiB, "MiB"},
        {"setup_s", median(setupS), "s"},
    };
    res.info = {
        {"point_wall_s_p50", median(pointWall), "s"},
        {"sim_mcycles_per_s", median(mcps), "Mcycle/s"},
        {"cpu_s_per_mcycle", median(cpm), "s"},
        {"point_fail_frac",
         static_cast<double>(led.failed) /
             static_cast<double>(led.attempted),
         "ratio"},
        {"sweeps", static_cast<double>(sweeps.size()), "count"},
        {"setup_reps", static_cast<double>(setupS.size()), "count"},
        {"check_s", checkS, "s"},
    };
    std::vector<const Sweep *> swp;
    for (const Sweep &sw : sweeps)
        swp.push_back(&sw);
    res.points = pointsJson(w, swp, {});
    return res;
}

/** Per-layer aggregates of the traced sweep. */
struct LayerTotals {
    TracedPoint sum; ///< counters summed over points (no pipelines)
    KernelStats sim; ///< every launch's simulator statistics merged
    uint64_t profilerAccesses = 0;
    size_t profilerMismatches = 0; ///< see hwMismatches
};

/** --trace 1: one untraced and one traced sweep, per-layer metrics. */
Result
traceRun(const Args &args, const Workload &w,
         const std::vector<UserParams> &params, Inputs &in, Ledger &led)
{
    Tracer tracer;
    in = loadInputs(params, &tracer);

    const Sweep untraced = runSweep(
        w.points, params, in, args.outDir + "/" + w.name + "-sweep.json",
        &tracer);
    std::vector<bool> ok = account(untraced, w.points, led);
    std::vector<bool> pointOk(params.size(), true);

    // The traced sweep: same points, same graphs, spans on.
    LayerTotals tot;
    std::vector<size_t> tracedOk;
    for (size_t i = 0; i < params.size(); ++i) {
        ++led.attempted;
        TracedPoint tp;
        try {
            tp = runTraced(params[i], in.graphFor(params[i]), tracer,
                           static_cast<int>(i));
        } catch (const RunException &e) {
            led.fail(w.points[i].label, e.kind(), e.what());
            ++led.failed;
            continue;
        } catch (const std::exception &e) {
            led.fail(w.points[i].label, RunError::Unknown, e.what());
            ++led.failed;
            continue;
        }
        tracedOk.push_back(i);
        const auto &untracedTimeline = untraced.store.at(i).outcome.timeline;
        if (ok[i] && fingerprints(tp.records) != fingerprints(untracedTimeline)) {
            pointOk[i] = false;
            led.fail(w.points[i].label, RunError::Unknown,
                     "traced counters differ from the untraced run");
        }
        if (ok[i])
            tot.profilerMismatches +=
                hwMismatches(tp.records, untracedTimeline);
        if (!w.sim) {
            const double err = outputError(in.graphFor(params[i]),
                                           tp.modelConfig, tp.pipelines);
            if (!(err <= kOutputTolerance)) {
                pointOk[i] = false;
                led.fail(w.points[i].label, RunError::Unknown,
                         "embeddings differ from referenceForward by " +
                             std::to_string(err));
            }
        }
        TracedPoint &s = tot.sum;
        s.ops += tp.ops;
        s.planPeak += tp.planPeak;
        s.naivePeak += tp.naivePeak;
        s.traceInstrs += tp.traceInstrs;
        s.traceNs += tp.traceNs;
        s.simCpuS += tp.simCpuS;
        s.simWallS += tp.simWallS;
        s.smCycles += tp.smCycles;
        s.sampledPopulation += tp.sampledPopulation;
        s.sampledCtas += tp.sampledCtas;
        for (const auto &[k, c] : tp.cyclesByClass)
            s.cyclesByClass[k] += c;
        for (const KernelRecord &rec : tp.records) {
            if (rec.hasSim)
                tot.sim.merge(rec.sim);
            if (rec.hasHw)
                tot.profilerAccesses += rec.hw.l1Hits + rec.hw.l1Misses;
        }
    }

    double errPct = 0.0;
    std::vector<double> pointErr;
    if (w.sim)
        errPct = exactCycleError(w.points, params, in, untraced.store,
                                 pointOk, led, pointErr);
    for (size_t i = 0; i < params.size(); ++i)
        if (!ok[i] || !pointOk[i])
            ++led.failed;
    for (size_t i : tracedOk)
        if (!pointOk[i])
            ++led.failed;

    // ---- span rollups
    const std::vector<Span> &spans = tracer.spans();
    const std::vector<int64_t> self = selfTimesNs(spans);
    std::map<std::string, double> msByName, selfMsByLayer;
    double minCoverage = spans.empty() ? 0.0 : 1.0;
    double pointSpanMs = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const double ms =
            static_cast<double>(spans[i].endNs - spans[i].startNs) / 1e6;
        msByName[spans[i].name] += ms;
        selfMsByLayer[layerOf(spans[i].name)] +=
            static_cast<double>(self[i]) / 1e6;
        if (spans[i].name == "point") {
            pointSpanMs += ms;
            if (ms > 0)
                minCoverage = std::min(
                    minCoverage,
                    1.0 - static_cast<double>(self[i]) / 1e6 / ms);
        }
    }
    auto spanMs = [&](const std::string &prefix) {
        double total = 0.0;
        for (const auto &[name, ms] : msByName)
            if (name == prefix || name.rfind(prefix + ".", 0) == 0)
                total += ms;
        return total;
    };

    std::vector<Metric> m;
    const double loadMs = spanMs("graph.load");
    m.push_back({"graph.load_ms", loadMs, "ms"});
    m.push_back({"graph.edges_per_s",
                 loadMs > 0 ? static_cast<double>(in.edges) / loadMs * 1e3
                            : 0.0,
                 "1/s"});
    m.push_back({"models.build_ms", spanMs("models"), "ms"});
    m.push_back({"models.ops", static_cast<double>(tot.sum.ops), "count"});
    m.push_back({"kernels.execute_ms", spanMs("kernels.execute"), "ms"});
    for (KernelClass k : allKernelClasses())
        m.push_back({std::string("kernels.execute_ms.") + classKey(k),
                     spanMs(std::string("kernels.execute.") + classKey(k)),
                     "ms"});
    m.push_back({"kernels.launch_ms", spanMs("kernels.launch"), "ms"});
    m.push_back({"kernels.trace_ns_per_instr",
                 tot.sum.traceInstrs
                     ? static_cast<double>(tot.sum.traceNs) /
                           static_cast<double>(tot.sum.traceInstrs)
                     : 0.0,
                 "ns"});

    const double simRunMs = spanMs("simgpu.run");
    m.push_back({"simgpu.run_ms", simRunMs, "ms"});
    for (KernelClass k : allKernelClasses()) {
        const double ms =
            spanMs(std::string("simgpu.run.") + classKey(k));
        m.push_back({std::string("simgpu.run_ms.") + classKey(k), ms,
                     "ms"});
        const auto it = tot.sum.cyclesByClass.find(k);
        const double cyc =
            it == tot.sum.cyclesByClass.end()
                ? 0.0
                : static_cast<double>(it->second);
        m.push_back({std::string("simgpu.ns_per_cycle.") + classKey(k),
                     cyc > 0 ? ms * 1e6 / cyc : 0.0, "ns"});
    }
    const KernelStats &all = tot.sim;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m.push_back({"simgpu.cpu_per_wall",
                 ratio(tot.sum.simCpuS, tot.sum.simWallS), "ratio"});
    m.push_back({"simgpu.classify_per_warp_instr",
                 ratio(static_cast<double>(all.classifyEvals),
                       static_cast<double>(all.warpInstrs)),
                 "ratio"});
    m.push_back({"simgpu.fast_forward_frac",
                 ratio(static_cast<double>(all.fastForwardCycles),
                       static_cast<double>(tot.sum.smCycles)),
                 "ratio"});
    uint64_t stepped = 0;
    for (const auto &[k, c] : tot.sum.cyclesByClass)
        stepped += c;
    m.push_back({"simgpu.cycles", static_cast<double>(stepped), "count"});
    m.push_back({"simgpu.warp_instrs", static_cast<double>(all.warpInstrs),
                 "count"});
    m.push_back({"simgpu.l1_accesses",
                 static_cast<double>(all.l1Hits + all.l1Misses), "count"});
    m.push_back({"simgpu.l2_accesses",
                 static_cast<double>(all.l2Hits + all.l2Misses), "count"});
    m.push_back({"simgpu.dram_bytes", static_cast<double>(all.dramBytes),
                 "count"});
    m.push_back({"simgpu.classify_evals",
                 static_cast<double>(all.classifyEvals), "count"});
    m.push_back({"simgpu.sample_plan_ms", spanMs("simgpu.sample_plan"),
                 "ms"});
    m.push_back({"simgpu.sampled_ctas_frac",
                 ratio(static_cast<double>(tot.sum.sampledCtas),
                       static_cast<double>(tot.sum.sampledPopulation)),
                 "ratio"});

    // Simulated time per GNN phase (reported cycles, as timeMs uses).
    std::map<Phase, double> phaseCycles, phaseDram;
    for (const SweepResult &r : untraced.store)
        if (r.ok)
            for (const KernelRecord &rec : r.outcome.timeline)
                if (rec.hasSim) {
                    const Phase ph = phaseOf(rec.kind);
                    phaseCycles[ph] += reportedCycles(rec.sim);
                    phaseDram[ph] +=
                        rec.sim.estimate("dram_bytes") *
                        (rec.sim.sampledCtas > 0
                             ? 1.0
                             : rec.sim.samplingFactor());
                }
    for (Phase ph : {Phase::Aggregation, Phase::Combination, Phase::Other})
        m.push_back({std::string("sim.cycles.") + phaseName(ph),
                     phaseCycles[ph], "cycle"});
    for (Phase ph : {Phase::Aggregation, Phase::Combination})
        m.push_back({std::string("sim.dram_bytes.") + phaseName(ph),
                     phaseDram[ph], "B"});
    double stallTotal = 0.0;
    for (uint64_t c : all.stallCycles)
        stallTotal += static_cast<double>(c);
    auto stall = [&](StallReason r) {
        return ratio(static_cast<double>(
                         all.stallCycles[static_cast<size_t>(r)]),
                     stallTotal);
    };
    m.push_back({"sim.stall_mshr_full_frac", stall(StallReason::MshrFull),
                 "ratio"});
    m.push_back({"sim.stall_memory_dep_frac",
                 stall(StallReason::MemoryDependency), "ratio"});
    m.push_back({"sim.l1_hit_rate", all.l1HitRate(), "ratio"});
    m.push_back({"sim.l2_hit_rate", all.l2HitRate(), "ratio"});

    m.push_back({"profiler.replay_ms", spanMs("profiler.replay"), "ms"});
    m.push_back({"profiler.accesses",
                 static_cast<double>(tot.profilerAccesses), "count"});
    m.push_back({"profiler.counter_mismatches",
                 static_cast<double>(tot.profilerMismatches), "count"});
    m.push_back({"memplan.build_ms", spanMs("memplan.build"), "ms"});
    m.push_back({"memplan.peak_over_naive",
                 ratio(static_cast<double>(tot.sum.planPeak),
                       static_cast<double>(tot.sum.naivePeak)),
                 "ratio"});

    double pointSum = 0.0;
    for (double s : untraced.pointWallS)
        pointSum += s;
    m.push_back({"suite.session_overhead_ms",
                 (untraced.runWallS - pointSum) * 1e3, "ms"});
    m.push_back({"suite.emit_ms", untraced.emitMs, "ms"});

    for (const char *layer : {"graph", "models", "kernels", "simgpu",
                              "profiler", "memplan", "suite"})
        m.push_back({std::string("trace.self_ms.") + layer,
                     selfMsByLayer[layer], "ms"});
    m.push_back({"trace.coverage", minCoverage, "ratio"});
    // Traced point spans vs the untraced sweep of the same points (the
    // output checks run outside the point spans).
    m.push_back({"trace.overhead_frac",
                 ratio(pointSpanMs / 1e3, untraced.runWallS) - 1.0, "ratio"});
    m.push_back({"trace.simgpu_share", ratio(simRunMs, pointSpanMs),
                 "ratio"});

    const double mcycles =
        static_cast<double>(steppedCycles(untraced.store)) / 1e6;
    m.push_back({"sim_mcycles_per_s", ratio(mcycles, untraced.wallS),
                 "Mcycle/s"});
    m.push_back({"cpu_s_per_mcycle", ratio(untraced.cpuS, mcycles), "s"});
    m.push_back({"sim_cycle_err_pct", errPct, "%"});
    m.push_back({"point_fail_frac",
                 ratio(static_cast<double>(led.failed),
                       static_cast<double>(led.attempted)),
                 "ratio"});

    std::vector<std::string> labels;
    for (const PointSpec &p : w.points)
        labels.push_back(p.label);
    const std::string tracePath = args.outDir + "/trace-" + w.name +
                                  "-seed" + std::to_string(args.seed) +
                                  ".json";
    tracer.writeChromeTrace(tracePath, labels);
    std::printf("chrome trace: %s\n", tracePath.c_str());

    Result res;
    res.endToEnd = std::move(m);
    res.points = pointsJson(w, {&untraced}, pointErr);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Workload w;
    std::vector<UserParams> params;
    try {
        args = parseArgs(argc, argv);
        w = makeWorkload(args.workload, args.seed);
        for (const PointSpec &p : w.points)
            params.push_back(paramsOf(p));
        std::filesystem::create_directories(args.outDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gsuite_perfbench: %s\n", e.what());
        return 2;
    }

    Inputs in;
    Ledger led;
    Result res;
    try {
        res = args.trace ? traceRun(args, w, params, in, led)
                         : measureRun(args, w, params, in, led);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gsuite_perfbench: %s\n", e.what());
        return 1;
    }

    const std::string provenance = provenanceJson(args, w, params, in);
    std::printf("workload %s, seed %llu, %zu points, trace %d\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                w.points.size(), args.trace);
    std::printf("provenance: %s\n", provenance.c_str());
    for (const char *limit : kLimits)
        std::printf("limit: %s\n", limit);
    for (const std::string &note : led.notes)
        std::printf("failure: %s\n", note.c_str());
    std::printf("%s metrics:\n", args.trace ? "per-layer" : "end-to-end");
    printTable(res.endToEnd);
    if (!res.info.empty()) {
        std::printf("also measured:\n");
        printTable(res.info);
    }

    std::vector<Metric> all = res.endToEnd;
    all.insert(all.end(), res.info.begin(), res.info.end());
    const std::string resultPath =
        args.outDir + "/" + w.name + "-seed" + std::to_string(args.seed) +
        "-trace" + std::to_string(args.trace) + ".json";
    writeResultFile(resultPath, provenance, res.points, all, led);
    std::printf("result file: %s\n", resultPath.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                led.failed == 0 ? "true" : "false", led.attempted,
                led.failed, metricsJson(res.endToEnd).c_str());
    return 0;
}
