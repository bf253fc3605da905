/**
 * @file
 * The traced run of one sweep point: the same work
 * BenchSession::runPoint does, driven call by call through the
 * suite's public entry points so every layer gets its own span. Calls
 * run in the OpGraph schedule order with one DeviceAllocator per
 * part, which reproduces the untraced run's counters exactly.
 */

#ifndef PERFBENCH_TRACED_HPP
#define PERFBENCH_TRACED_HPP

#include <map>
#include <memory>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "graph/Graph.hpp"
#include "models/GnnModel.hpp"
#include "suite/UserParams.hpp"
#include "Tracer.hpp"

namespace perfbench {

/** What one traced point produced, beyond its spans. */
struct TracedPoint {
    /** Per-kernel records of the final run, in schedule order. */
    std::vector<gsuite::KernelRecord> records;
    /** The final run's pipelines (one per batch replica). */
    std::vector<std::unique_ptr<gsuite::GnnPipeline>> pipelines;
    gsuite::ModelConfig modelConfig;

    size_t ops = 0;          ///< op-graph nodes, summed over runs
    uint64_t planPeak = 0;   ///< MemPlan::peakBytes, final run
    uint64_t naivePeak = 0;  ///< MemPlan::naiveBytes, final run

    uint64_t traceInstrs = 0; ///< instructions drained by the probe
    int64_t traceNs = 0;      ///< time the probe took
    double simCpuS = 0.0;     ///< process CPU during simgpu.run
    double simWallS = 0.0;    ///< wall of simgpu.run
    /** Stepped cycles per kernel class, summed over runs. */
    std::map<gsuite::KernelClass, uint64_t> cyclesByClass;
    /** Stepped cycles times simulated SMs, summed over runs. */
    uint64_t smCycles = 0;
    int64_t sampledPopulation = 0; ///< CTAs the sample plans cover
    int64_t sampledCtas = 0;       ///< CTAs they simulate
};

/**
 * Run @p params on @p graph (loaded by the caller) with spans on
 * @p tracer under point id @p point. Throws what the suite throws.
 */
TracedPoint runTraced(const gsuite::UserParams &params,
                      const gsuite::Graph &graph, Tracer &tracer,
                      int point);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HPP
