/**
 * @file
 * Framework overhead models for the PyG / DGL baselines.
 *
 * The Python frameworks cannot run in this environment (and linking
 * them would defeat the suite's framework-independence), so the
 * baselines execute the *same* core kernels wrapped in the overhead
 * structure of each framework:
 *
 *  - initUs: one-time interpreter + framework + CUDA-context
 *    initialization ("the initializations performed as part of their
 *    implementation", Section V-D1, which make PyG's end-to-end times
 *    the longest).
 *  - perKernelUs: per-operator dispatch cost (Python call, autograd
 *    bookkeeping, tensor wrapper allocation).
 *  - kernelFactor: multiplicative kernel-time inflation from extra
 *    materializations (PyG's gather/scatter path creates index and
 *    broadcast temporaries; DGL's fused SpMM path is closer to raw
 *    kernels).
 *
 * Constants are calibrated ONLY to reproduce the paper's *shape*
 * (PyG slowest, gSuite fastest, distribution of kernel time similar
 * across frameworks) — never absolute numbers.
 *
 * A hwdb config file can override the built-in constants
 * (`overhead.<framework>.<key>` keys, see src/hwdb/README.md), so
 * recalibration does not require a rebuild. The overrides are part
 * of that machine's description: each sweep point resolves its own
 * constants from its gpu spec (resolveFrameworkOverheads in
 * hwdb/HwPresets.hpp) and hands them to its FrameworkAdapter.
 */

#ifndef GSUITE_FRAMEWORKS_OVERHEADS_HPP
#define GSUITE_FRAMEWORKS_OVERHEADS_HPP

namespace gsuite {

/** Framework selector (Fig. 1's three paths). */
enum class Framework {
    Gsuite, ///< gSuite's own kernels, no framework overhead
    Pyg,    ///< PyTorch Geometric emulation (MP computational model)
    Dgl,    ///< Deep Graph Library emulation (SpMM computational model)
};

/** Overhead structure of one framework. */
struct FrameworkOverheads {
    double initUs = 0.0;
    double perKernelUs = 0.0;
    double kernelFactor = 1.0;

    bool operator==(const FrameworkOverheads &) const = default;

    /** The compile-time calibrated constants. */
    static FrameworkOverheads defaults(Framework fw);
};

} // namespace gsuite

#endif // GSUITE_FRAMEWORKS_OVERHEADS_HPP
