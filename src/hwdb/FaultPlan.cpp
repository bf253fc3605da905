#include "hwdb/FaultPlan.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "hwdb/KeyValueFile.hpp"
#include "util/Logging.hpp"
#include "util/Random.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

namespace {

/** Decorrelate the per-kind Poisson streams from one plan seed. */
constexpr uint64_t kKindSalt[] = {
    0x6b65726e656c00ULL, // KernelFailure
    0x7374616c6c0000ULL, // DeviceStall
    0x6d656d70726573ULL, // MemPressure
};

/**
 * Draw seeded-Poisson arrival cycles for one kind over the horizon:
 * exponential gaps with mean 1e6/rate cycles, accumulated from 0.
 */
void
drawArrivals(std::vector<FaultEvent> &out, FaultKind kind,
             double ratePerMcycle, uint64_t seed, uint64_t horizon,
             uint64_t duration, double magnitude)
{
    if (ratePerMcycle <= 0.0)
        return;
    Rng rng(seed ^ kKindSalt[static_cast<size_t>(kind)]);
    const double mean_gap = 1e6 / ratePerMcycle;
    double t = 0.0;
    for (;;) {
        // Inverse-CDF exponential; 1-u keeps the argument in (0, 1].
        const double u = rng.nextDouble();
        t += -std::log(1.0 - u) * mean_gap;
        const uint64_t cycle = static_cast<uint64_t>(t);
        if (t >= static_cast<double>(horizon))
            return;
        out.push_back(FaultEvent{kind, cycle, duration, magnitude});
    }
}

FaultEvent
parseEventValue(const std::string &value, const std::string &origin,
                int lineno)
{
    const std::vector<std::string> parts = split(value, '@');
    if (parts.size() < 2 || parts.size() > 4)
        fatal("%s:%d: fault.event expects "
              "kind@cycle[@duration[@magnitude]], got '%s'",
              origin.c_str(), lineno, value.c_str());
    FaultEvent ev;
    ev.kind = faultKindFromName(parts[0]);
    int64_t cycle;
    if (!parseInt(parts[1], cycle) || cycle < 0)
        fatal("%s:%d: fault.event cycle must be a non-negative "
              "integer, got '%s'",
              origin.c_str(), lineno, parts[1].c_str());
    ev.cycle = static_cast<uint64_t>(cycle);
    if (parts.size() >= 3) {
        int64_t dur;
        if (!parseInt(parts[2], dur) || dur < 0)
            fatal("%s:%d: fault.event duration must be a "
                  "non-negative integer, got '%s'",
                  origin.c_str(), lineno, parts[2].c_str());
        ev.durationCycles = static_cast<uint64_t>(dur);
    }
    if (parts.size() == 4) {
        if (!parseDouble(parts[3], ev.magnitude))
            fatal("%s:%d: fault.event magnitude must be a number, "
                  "got '%s'",
                  origin.c_str(), lineno, parts[3].c_str());
    }
    return ev;
}

std::string
serializeEventValue(const FaultEvent &ev)
{
    std::string out = std::string(faultKindName(ev.kind)) + "@" +
                      std::to_string(ev.cycle);
    if (ev.durationCycles > 0 || ev.magnitude != 0.0)
        out.append("@").append(std::to_string(ev.durationCycles));
    if (ev.magnitude != 0.0)
        out.append("@").append(fmtTrimmedDouble(ev.magnitude));
    return out;
}

double
parseDoubleKey(const char *key, const std::string &value,
               const std::string &origin, int lineno)
{
    double v;
    if (!parseDouble(value, v))
        fatal("%s:%d: key '%s' expects a number, got '%s'",
              origin.c_str(), lineno, key, value.c_str());
    return v;
}

uint64_t
parseU64Key(const char *key, const std::string &value,
            const std::string &origin, int lineno)
{
    int64_t v;
    if (!parseInt(value, v) || v < 0)
        fatal("%s:%d: key '%s' expects a non-negative integer, "
              "got '%s'",
              origin.c_str(), lineno, key, value.c_str());
    return static_cast<uint64_t>(v);
}

FaultPlan
presetLight()
{
    FaultPlan p;
    p.name = "light";
    p.seed = 7;
    p.kernelFailPerMcycle = 0.4;
    p.stallPerMcycle = 0.2;
    p.memPressurePerMcycle = 0.1;
    return p;
}

FaultPlan
presetHeavy()
{
    FaultPlan p;
    p.name = "heavy";
    p.seed = 7;
    p.kernelFailPerMcycle = 2.0;
    p.stallPerMcycle = 1.0;
    p.stallCycles = 50'000;
    p.memPressurePerMcycle = 0.5;
    p.memPressureCycles = 400'000;
    p.memPressureFraction = 0.75;
    return p;
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::KernelFailure: return "kernel-fail";
      case FaultKind::DeviceStall: return "stall";
      case FaultKind::MemPressure: return "mem-pressure";
    }
    panic("unknown FaultKind");
}

FaultKind
faultKindFromName(const std::string &name)
{
    const std::string n = toLower(trim(name));
    if (n == "kernel-fail" || n == "kernel_fail")
        return FaultKind::KernelFailure;
    if (n == "stall" || n == "device-stall")
        return FaultKind::DeviceStall;
    if (n == "mem-pressure" || n == "mem_pressure")
        return FaultKind::MemPressure;
    fatal("unknown fault kind '%s' (known: kernel-fail, stall, "
          "mem-pressure)",
          name.c_str());
}

bool
FaultPlan::empty() const
{
    return kernelFailPerMcycle <= 0.0 && stallPerMcycle <= 0.0 &&
           memPressurePerMcycle <= 0.0 && fixedEvents.empty();
}

std::vector<FaultEvent>
FaultPlan::events(uint64_t horizonCycles) const
{
    std::vector<FaultEvent> out;
    drawArrivals(out, FaultKind::KernelFailure, kernelFailPerMcycle,
                 seed, horizonCycles, 0, 0.0);
    drawArrivals(out, FaultKind::DeviceStall, stallPerMcycle, seed,
                 horizonCycles, stallCycles, 0.0);
    drawArrivals(out, FaultKind::MemPressure, memPressurePerMcycle,
                 seed, horizonCycles, memPressureCycles,
                 memPressureFraction);
    for (const FaultEvent &ev : fixedEvents)
        if (ev.cycle < horizonCycles)
            out.push_back(ev);
    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.cycle != b.cycle)
                             return a.cycle < b.cycle;
                         return static_cast<int>(a.kind) <
                                static_cast<int>(b.kind);
                     });
    return out;
}

bool
FaultPlan::operator==(const FaultPlan &o) const
{
    return name == o.name && seed == o.seed &&
           kernelFailPerMcycle == o.kernelFailPerMcycle &&
           stallPerMcycle == o.stallPerMcycle &&
           memPressurePerMcycle == o.memPressurePerMcycle &&
           stallCycles == o.stallCycles &&
           memPressureCycles == o.memPressureCycles &&
           memPressureFraction == o.memPressureFraction &&
           fixedEvents == o.fixedEvents;
}

void
FaultPlan::validate() const
{
    if (name.empty())
        fatal("fault plan name must not be empty");
    if (kernelFailPerMcycle < 0 || stallPerMcycle < 0 ||
        memPressurePerMcycle < 0)
        fatal("fault plan '%s': rates must be >= 0", name.c_str());
    if (stallCycles == 0 || memPressureCycles == 0)
        fatal("fault plan '%s': window lengths must be > 0",
              name.c_str());
    if (memPressureFraction < 0.0 || memPressureFraction > 1.0)
        fatal("fault plan '%s': mem-pressure fraction must be in "
              "[0, 1]",
              name.c_str());
    for (const FaultEvent &ev : fixedEvents)
        if (ev.magnitude < 0.0 || ev.magnitude > 1.0)
            fatal("fault plan '%s': event magnitude must be in "
                  "[0, 1]",
                  name.c_str());
}

FaultPlan
parseFaultPlanText(const std::string &text, const std::string &origin)
{
    FaultPlan p;
    p.name = "unnamed";
    for (const KeyValueLine &kv : parseKeyValueText(text, origin)) {
        const std::string &v = kv.value;
        if (kv.key == "name")
            p.name = v;
        else if (kv.key == "fault.seed")
            p.seed = parseU64Key("fault.seed", v, origin, kv.lineno);
        else if (kv.key == "fault.kernel_fail_per_mcycle")
            p.kernelFailPerMcycle = parseDoubleKey(
                "fault.kernel_fail_per_mcycle", v, origin,
                kv.lineno);
        else if (kv.key == "fault.stall_per_mcycle")
            p.stallPerMcycle = parseDoubleKey(
                "fault.stall_per_mcycle", v, origin, kv.lineno);
        else if (kv.key == "fault.mem_pressure_per_mcycle")
            p.memPressurePerMcycle = parseDoubleKey(
                "fault.mem_pressure_per_mcycle", v, origin,
                kv.lineno);
        else if (kv.key == "fault.stall_cycles")
            p.stallCycles = parseU64Key("fault.stall_cycles", v,
                                        origin, kv.lineno);
        else if (kv.key == "fault.mem_pressure_cycles")
            p.memPressureCycles = parseU64Key(
                "fault.mem_pressure_cycles", v, origin, kv.lineno);
        else if (kv.key == "fault.mem_pressure_fraction")
            p.memPressureFraction = parseDoubleKey(
                "fault.mem_pressure_fraction", v, origin,
                kv.lineno);
        else if (kv.key == "fault.event")
            p.fixedEvents.push_back(
                parseEventValue(v, origin, kv.lineno));
        else
            fatal("%s:%d: unknown fault-plan key '%s' (see "
                  "src/hwdb/README.md for the key table)",
                  origin.c_str(), kv.lineno, kv.key.c_str());
    }
    p.validate();
    return p;
}

FaultPlan
parseFaultPlanFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault-plan file '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseFaultPlanText(text.str(), path);
}

std::string
serializeFaultPlan(const FaultPlan &plan)
{
    std::string out = "# gSuite fault-injection plan (hwdb)\n";
    out += "name " + plan.name + "\n";
    out += "fault.seed " + std::to_string(plan.seed) + "\n";
    out += "\n# seeded-Poisson rates, events per million cycles\n";
    out += "fault.kernel_fail_per_mcycle " +
           fmtTrimmedDouble(plan.kernelFailPerMcycle) + "\n";
    out += "fault.stall_per_mcycle " +
           fmtTrimmedDouble(plan.stallPerMcycle) + "\n";
    out += "fault.mem_pressure_per_mcycle " +
           fmtTrimmedDouble(plan.memPressurePerMcycle) + "\n";
    out += "\n# window shapes of generated events\n";
    out += "fault.stall_cycles " + std::to_string(plan.stallCycles) +
           "\n";
    out += "fault.mem_pressure_cycles " +
           std::to_string(plan.memPressureCycles) + "\n";
    out += "fault.mem_pressure_fraction " +
           fmtTrimmedDouble(plan.memPressureFraction) + "\n";
    if (!plan.fixedEvents.empty()) {
        out += "\n# events pinned to exact cycles\n";
        for (const FaultEvent &ev : plan.fixedEvents)
            out += "fault.event " + serializeEventValue(ev) + "\n";
    }
    return out;
}

bool
isFileFaultPlanSpec(const std::string &spec)
{
    return startsWith(spec, "file:");
}

FaultPlan
resolveFaultPlanSpec(const std::string &spec)
{
    const std::string s = trim(spec);
    if (s.find(',') != std::string::npos)
        fatal("fault-plan spec '%s' is a list; sweeps must expand "
              "it first",
              spec.c_str());
    if (isFileFaultPlanSpec(s)) {
        FaultPlan p = parseFaultPlanFile(s.substr(5));
        p.validate();
        return p;
    }
    const std::string n = toLower(s);
    if (n == "none" || n.empty())
        return FaultPlan{};
    if (n == "light")
        return presetLight();
    if (n == "heavy")
        return presetHeavy();
    fatal("unknown fault plan '%s' (known: none, light, heavy, "
          "file:PATH)",
          spec.c_str());
}

std::vector<std::string>
expandFaultPlanSpecs(const std::string &specList)
{
    std::vector<std::string> out;
    if (trim(specList).empty())
        return {"none"}; // no flag: fault-free sweeps
    for (const std::string &part : split(specList, ',')) {
        std::string s = trim(part);
        if (s.empty())
            fatal("--fault-plan has an empty component in '%s'",
                  specList.c_str());
        if (!isFileFaultPlanSpec(s))
            s = toLower(s);
        resolveFaultPlanSpec(s); // validate early
        if (std::find(out.begin(), out.end(), s) == out.end())
            out.push_back(s);
    }
    if (out.empty())
        out.push_back("none");
    return out;
}

} // namespace gsuite
