#include "Traced.hpp"

#include <algorithm>

#include "frameworks/FrameworkAdapter.hpp"
#include "ir/OpGraph.hpp"
#include "memplan/MemPlan.hpp"
#include "profiler/HwProfiler.hpp"
#include "simgpu/CtaSampler.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "simgpu/Trace.hpp"

namespace perfbench {

using namespace gsuite;

namespace {

/** CTAs whose warp streams the trace-build probe drains per launch. */
constexpr int64_t kProbeCtas = 2;
/** Instruction budget per streamed chunk (SimOptions' default). */
constexpr size_t kProbeChunk = 256;

/** Drain the probe prefix of @p launch; returns instructions built. */
uint64_t
drainTracePrefix(const KernelLaunch &launch)
{
    uint64_t instrs = 0;
    WarpTrace buf;
    const int64_t ctas = std::min(kProbeCtas, launch.dims.numCtas);
    for (int64_t cta = 0; cta < ctas; ++cta)
        for (int w = 0; w < launch.dims.warpsPerCta(); ++w) {
            WarpTraceStream stream = launch.makeStream(cta, w);
            uint8_t cursor = 0;
            bool done = false;
            while (!done) {
                buf.clear();
                TraceBuilder builder(buf, kProbeChunk, cursor);
                done = stream(builder);
                instrs += buf.instrs.size();
            }
        }
    return instrs;
}

} // namespace

TracedPoint
runTraced(const UserParams &params, const Graph &graph, Tracer &tracer,
          int point)
{
    Tracer *t = &tracer;
    Scoped pointSpan(t, "point", point);
    TracedPoint out;
    const bool sim = params.engine == EngineKind::Sim;

    // The machine and the engine-level state BenchSession::runPoint
    // builds once per point: the resolved config, one simulator and
    // the engine's shared device address space.
    GpuConfig gpu;
    {
        Scoped s(t, "suite.resolve_gpu", point);
        gpu = params.resolveGpuConfig();
    }
    SimOptions simOpts;
    simOpts.maxCtas = params.maxCtas;
    simOpts.numThreads = params.simThreads;
    simOpts.cycleCeiling = params.cycleCeiling;
    HwProfilerConfig hwCfg;
    hwCfg.numThreads = params.simThreads;
    hwCfg.numSms = gpu.numSms;
    hwCfg.smSampleFactor = gpu.smSampleFactor;
    hwCfg.maxCtas = params.maxCtas;
    std::unique_ptr<GpuSimulator> simulator;
    if (sim) {
        Scoped s(t, "simgpu.init", point);
        simulator = std::make_unique<GpuSimulator>(gpu);
    }
    DeviceAllocator engineAlloc;
    const FrameworkAdapter adapter(params.framework);

    for (int run = 0; run < params.runs; ++run) {
        ModelConfig cfg = params.modelConfig();
        cfg.comp = adapter.resolveCompModel(cfg.model, cfg.comp);
        std::vector<std::unique_ptr<GnnPipeline>> pipelines;
        OpGraph merged;
        {
            Scoped s(t, "models.build", point);
            for (int b = 0; b < params.batch; ++b)
                pipelines.push_back(
                    std::make_unique<GnnPipeline>(graph, cfg));
            if (params.batch > 1) {
                std::vector<const OpGraph *> graphs;
                for (const auto &p : pipelines)
                    graphs.push_back(&p->opGraph());
                merged = OpGraph::merge(graphs);
            }
        }
        const OpGraph &og =
            params.batch > 1 ? merged : pipelines.front()->opGraph();
        {
            Scoped s(t, "models.validate", point);
            og.validate();
        }
        out.ops += og.numNodes();

        // Merged graphs give each part its own address space, as
        // ExecutionEngine::run(OpGraph&) does.
        std::vector<std::unique_ptr<DeviceAllocator>> partAllocs;
        if (og.numParts() > 1)
            for (size_t p = 0; p < og.numParts(); ++p)
                partAllocs.push_back(std::make_unique<DeviceAllocator>());
        auto allocFor = [&](const OpNode &n) -> DeviceAllocator & {
            return partAllocs.empty()
                       ? engineAlloc
                       : *partAllocs[static_cast<size_t>(n.part)];
        };

        std::vector<KernelRecord> records(og.numNodes());
        auto execute = [&](const OpNode &n) {
            KernelRecord &rec = records[n.index];
            rec.name = n.kernel->name();
            rec.kind = n.kernel->kind();
            Scoped s(t, std::string("kernels.execute.") + classKey(rec.kind),
                     point);
            const int64_t t0 = nowNs();
            n.kernel->execute();
            rec.wallUs = static_cast<double>(nowNs() - t0) / 1e3;
        };
        auto measure = [&](const OpNode &n) {
            KernelRecord &rec = records[n.index];
            DeviceAllocator &alloc = allocFor(n);
            KernelLaunch launch;
            {
                Scoped s(t, "kernels.launch", point);
                launch = n.kernel->makeLaunch(alloc);
            }
            {
                Scoped s(t, "kernels.trace", point);
                const int64_t t0 = nowNs();
                out.traceInstrs += drainTracePrefix(launch);
                out.traceNs += nowNs() - t0;
            }
            if (params.profileCaches) {
                Scoped s(t, "profiler.replay", point);
                HwProfiler prof(hwCfg);
                rec.hw = prof.profile(launch);
                rec.hasHw = true;
            }
            if (!sim)
                return;
            if (gpu.sampleMode == CtaSampleMode::Cta) {
                // The plan GpuSimulator::run builds for this launch,
                // built here once more so its cost has a span.
                Scoped s(t, "simgpu.sample_plan", point);
                const int64_t expected =
                    (launch.dims.numCtas + gpu.smSampleFactor - 1) /
                    gpu.smSampleFactor;
                const CtaSamplePlan plan = buildCtaSamplePlan(
                    gpu, launch, expected, simOpts.maxCtas);
                out.sampledPopulation += expected;
                out.sampledCtas +=
                    plan.engaged ? static_cast<int64_t>(plan.order.size())
                                 : std::min(expected, simOpts.maxCtas);
            }
            const uint64_t devPeak = alloc.bytesPeak();
            Scoped s(t, std::string("simgpu.run.") + classKey(rec.kind),
                     point);
            const double cpu0 = processCpuSeconds();
            const int64_t t0 = nowNs();
            rec.sim = simulator->run(launch, simOpts);
            out.simWallS += static_cast<double>(nowNs() - t0) * 1e-9;
            out.simCpuS += processCpuSeconds() - cpu0;
            rec.sim.deviceBytesPeak = devPeak;
            rec.hasSim = true;
            out.cyclesByClass[rec.kind] += rec.sim.cycles;
            out.smCycles += rec.sim.cycles *
                            static_cast<uint64_t>(gpu.numSms);
        };

        MemPlan plan;
        if (params.memPlan) {
            // Plan-backed placement: execute, plan from the sized
            // spans, freeze the canonical layout, then measure — the
            // engine's order, with the functional phase serial.
            for (const OpNode &n : og.nodes())
                execute(n);
            {
                Scoped s(t, "memplan.build", point);
                plan = MemPlan::build(og);
            }
            if (plan.fullSpanCoverage()) {
                Scoped s(t, "memplan.bind", point);
                if (partAllocs.empty())
                    plan.bindAllocator(engineAlloc, 0);
                else
                    for (size_t p = 0; p < partAllocs.size(); ++p)
                        plan.bindAllocator(*partAllocs[p], p);
            }
            for (const OpNode &n : og.nodes())
                measure(n);
            engineAlloc.thaw();
        } else {
            for (const OpNode &n : og.nodes()) {
                execute(n);
                measure(n);
            }
            Scoped s(t, "memplan.build", point);
            plan = MemPlan::build(og);
        }
        if (plan.fullSpanCoverage())
            for (size_t i = 0; i < records.size(); ++i)
                if (records[i].hasSim)
                    records[i].sim.deviceBytesPeak =
                        plan.nodeNaiveHighWater()[i];

        out.planPeak = plan.peakBytes();
        out.naivePeak = plan.naiveBytes();
        out.records = std::move(records);
        out.pipelines = std::move(pipelines);
        out.modelConfig = cfg;
    }
    return out;
}

} // namespace perfbench
