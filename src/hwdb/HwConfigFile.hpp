/**
 * @file
 * The config-file half of the hwdb subsystem: GpuConfig (plus
 * framework overhead constants) parsed from and serialized to
 * GPGPU-Sim-style text files, so wholly different machines can be
 * described without recompiling — the way gpgpusim.config files
 * drive GPGPU-Sim.
 *
 * File format (see src/hwdb/README.md for the full key table):
 *
 *   # comment                        ; comment
 *   base v100-sim                    # optional: preset to start from
 *   core.num_sms 8                   # "key value"
 *   l1d.size_bytes = 131072          # or "key = value"
 *   -mem.l1_latency 28               # leading '-' tolerated (gpgpusim)
 *   overhead.pyg.init_us 1.2e6       # framework overhead override
 *
 * Guarantees:
 *  - every GpuConfig field is addressable by a stable key;
 *  - unknown keys and ill-typed values are rejected with fatal();
 *  - derived parameters are cross-checked (l1d.sets / l2.sets must
 *    equal size / (line * assoc) when given, and the parsed config
 *    passes GpuConfig::validate());
 *  - serialize(parse(x)) == x for every reachable config, so result
 *    files can embed their exact machine description (provenance).
 */

#ifndef GSUITE_HWDB_HWCONFIGFILE_HPP
#define GSUITE_HWDB_HWCONFIGFILE_HPP

#include <map>
#include <string>
#include <vector>

#include "frameworks/Overheads.hpp"
#include "simgpu/GpuConfig.hpp"

namespace gsuite {

/** Everything one hwdb config file describes. */
struct HwConfig {
    GpuConfig gpu;

    /**
     * Framework overhead overrides, only for frameworks the file
     * mentions; each starts from the calibrated defaults so a file
     * may override a single constant. They apply to the points that
     * run on this machine (resolveFrameworkOverheads).
     */
    std::map<Framework, FrameworkOverheads> overheads;
};

/**
 * Parse config text. @p origin labels error messages (a path or
 * "<string>"). fatal() on malformed lines, unknown keys, ill-typed
 * values, inconsistent derived parameters, or a config rejected by
 * GpuConfig::validate().
 */
HwConfig parseHwConfigText(const std::string &text,
                           const std::string &origin);

/** Parse a config file; fatal() on unreadable path. */
HwConfig parseHwConfigFile(const std::string &path);

/**
 * Serialize every key of @p cfg (sectioned, commented, including
 * the derived l1d.sets/l2.sets check keys). Reparses to an
 * identical GpuConfig.
 */
std::string serializeGpuConfig(const GpuConfig &cfg);

/** serializeGpuConfig plus the overhead.* keys of @p hw. */
std::string serializeHwConfig(const HwConfig &hw);

/** Write serializeHwConfig to @p path; fatal() on I/O error. */
void writeHwConfigFile(const HwConfig &hw, const std::string &path);

/**
 * The GpuConfig key/value pairs of @p cfg in serialization order —
 * the provenance record ResultStore embeds in JSON output.
 */
std::vector<std::pair<std::string, std::string>>
gpuConfigKeyValues(const GpuConfig &cfg);

} // namespace gsuite

#endif // GSUITE_HWDB_HWCONFIGFILE_HPP
