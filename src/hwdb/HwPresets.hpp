/**
 * @file
 * Named GPU machine presets — the registry half of the hwdb
 * subsystem. Each preset is a complete, validated GpuConfig with a
 * name and a one-line description, spanning real GPU generations so
 * sweeps can characterize the same GNN pipeline across machines the
 * way GPGPU-Sim drives different targets from different config
 * files. `--gpu <name>` on any CLI selects one; `--gpu all` sweeps
 * every machine preset; `--list-gpus` prints this registry.
 */

#ifndef GSUITE_HWDB_HWPRESETS_HPP
#define GSUITE_HWDB_HWPRESETS_HPP

#include <string>
#include <vector>

#include "frameworks/Overheads.hpp"
#include "simgpu/GpuConfig.hpp"

namespace gsuite {

/** One registered machine model. */
struct HwPreset {
    std::string name;        ///< stable CLI name, lowercase
    std::string description; ///< one line for --list-gpus
    GpuConfig config;
    /** Included in the "all" sweep (test-tiny is not). */
    bool sweepable = true;
};

/** Every registered preset, in registry (generation) order. */
const std::vector<HwPreset> &hwPresets();

/** Preset by name (case-insensitive); nullptr when unknown. */
const HwPreset *findHwPreset(const std::string &name);

/** Preset by name; fatal() with the known names when unknown. */
const HwPreset &hwPresetByName(const std::string &name);

/** Names of the sweepable machine presets ("all" expansion). */
std::vector<std::string> sweepableHwPresetNames();

/** Rendered registry table for --list-gpus. */
std::string hwPresetTable();

/** The shared --list-gpus behavior: print the registry, exit 0. */
[[noreturn]] void listHwPresetsAndExit();

/**
 * True if @p spec names an on-disk config ("file:PATH") rather than
 * a registered preset.
 */
bool isFileGpuSpec(const std::string &spec);

/** The PATH part of a "file:PATH" gpu spec. */
std::string fileGpuSpecPath(const std::string &spec);

/**
 * Resolve a single gpu spec — preset name or "file:PATH" — to a
 * validated GpuConfig. fatal() on unknown preset, unreadable or
 * invalid file, or a comma-separated list (expand sweeps first).
 */
GpuConfig resolveGpuSpec(const std::string &spec);

/**
 * The framework overheads a point on the single gpu spec @p spec
 * runs with: the spec file's overhead.<fw>.* entry when it has one,
 * else FrameworkOverheads::defaults(fw). fatal() like
 * resolveGpuSpec.
 */
FrameworkOverheads resolveFrameworkOverheads(const std::string &spec,
                                             Framework fw);

/**
 * Normalize a CLI --gpu value into the ordered, deduplicated spec
 * list a sweep runs over: splits on commas, expands "all" to the
 * sweepable presets, canonicalizes and validates preset names, and
 * parses (and caches) every file spec. fatal() on an unknown
 * preset, an empty component, or an invalid file.
 */
std::vector<std::string> expandGpuSpecs(const std::string &specList);

} // namespace gsuite

#endif // GSUITE_HWDB_HWPRESETS_HPP
