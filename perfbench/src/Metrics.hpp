/**
 * @file
 * Pure arithmetic of the benchmark: medians and geometric means, span
 * self time, the kernel-class -> GNN-phase rollup and the
 * sampled-cycle error.
 * Kept free of I/O and clocks so the unit tests pin it exactly.
 */

#ifndef PERFBENCH_METRICS_HPP
#define PERFBENCH_METRICS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "simgpu/KernelStats.hpp"

namespace perfbench {

/** Median of @p values (mean of the middle two when even); 0 if empty. */
double median(std::vector<double> values);

/** Geometric mean of positive @p values; 0 if empty. */
double geometricMean(const std::vector<double> &values);

/**
 * One recorded span. Spans nest: `parent` is the index of the
 * enclosing span in the same vector, or -1 for a root.
 */
struct Span {
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;
    int point = -1; ///< sweep point id; -1 outside any point
};

/**
 * Self time of every span: its duration minus the part of that
 * interval its direct children cover (children are clipped to the
 * parent and their overlap with each other is counted once).
 */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

/** The layer a span belongs to: its name up to the first '.'. */
std::string layerOf(const std::string &spanName);

/**
 * GNN execution phase of a kernel class (arXiv 2009.00804): the
 * sparse neighbour gather/reduce is aggregation, the dense feature
 * transform is combination, everything else is other.
 */
enum class Phase { Aggregation, Combination, Other };
Phase phaseOf(gsuite::KernelClass kind);
const char *phaseName(Phase phase);

/** Metric-name form of a kernel class ("index_select", ...). */
const char *classKey(gsuite::KernelClass kind);

/** Every kernel class, in enum order. */
const std::vector<gsuite::KernelClass> &allKernelClasses();

/**
 * The simulated cycles a launch reports: what KernelStats::timeMs
 * converts to time. The stratified estimate when CTA sampling
 * engaged, otherwise the stepped cycles scaled by the CTA-cap
 * sampling factor.
 */
double reportedCycles(const gsuite::KernelStats &stats);

/** True when the launch's cycles are an extrapolation, not a count. */
bool isExtrapolated(const gsuite::KernelStats &stats);

/**
 * Sum of |reported - exact| over sum of exact, in percent, over
 * (reported, exact) cycle pairs. 0 when the exact sum is 0.
 */
double cycleErrorPct(const std::vector<std::pair<double, double>> &pairs);

/**
 * Output error of one element against its reference:
 * |output - reference| / max(1, |reference|). Absolute below 1,
 * relative above, so a large correct float32 result (one ulp of 1e4
 * is 1e-3) passes while small elements keep an absolute bound.
 */
double elementError(double output, double reference);

/**
 * Every deterministic counter of a launch as one string (the
 * toStatSet() table at full precision); equal strings mean equal
 * counters.
 */
std::string counterFingerprint(const gsuite::KernelStats &stats);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HPP
