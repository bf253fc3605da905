/**
 * @file
 * The benchmark's workloads. Each point is a command line for
 * UserParams::fromArgs, so it gets the library's defaults for every
 * option it does not set. It sets the workload inputs (dataset, model,
 * comp, engine, gpu, sample, profile-caches, mem-plan, batch, seed),
 * runs = 1 on sim points, and one SM thread per launch on sim points.
 * The default of one spinning SM thread per core made a sim point's
 * wall time follow the host's other load, not the simulator: one busy
 * process beside the benchmark made sim-sampled 2.5 times slower with
 * the default and left it unchanged with one thread. No lane,
 * trace-chunk or CTA-cap option is set.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "suite/UserParams.hpp"

namespace perfbench {

struct PointSpec {
    std::string label;
    std::vector<std::string> args; ///< UserParams::fromArgs options
};

struct Workload {
    std::string name;
    bool sim = false; ///< points run the timing simulator
    std::vector<PointSpec> points;
};

/** The workload @p name with its inputs derived from @p seed;
 *  throws std::invalid_argument on an unknown name. */
Workload makeWorkload(const std::string &name, uint64_t seed);

/** Parse a point's options the way the suite's CLIs do. */
gsuite::UserParams paramsOf(const PointSpec &point);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
