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
 * The built-in constants can be overridden at runtime through the
 * hwdb config-file layer (`overhead.<framework>.<key>` keys, see
 * src/hwdb/README.md) so recalibration does not require a rebuild.
 * Overrides are process-global and must be installed before runs
 * start (the CLI applies them while parsing `--gpu file:PATH`).
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

    /**
     * The effective per-framework constants: the calibrated
     * defaults, unless overridden via setFrameworkOverheads().
     */
    static FrameworkOverheads of(Framework fw);

    /** The compile-time calibrated constants, override-proof. */
    static FrameworkOverheads defaults(Framework fw);
};

/**
 * Install a process-global override for one framework's overheads
 * (the hwdb `overhead.<framework>.<key>` path). Not synchronized:
 * call before any engines run, never concurrently with them.
 */
void setFrameworkOverheads(Framework fw, const FrameworkOverheads &v);

/** Drop all overrides, restoring the calibrated defaults. */
void resetFrameworkOverheads();

} // namespace gsuite

#endif // GSUITE_FRAMEWORKS_OVERHEADS_HPP
