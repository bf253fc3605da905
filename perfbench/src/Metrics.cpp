#include "Metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using gsuite::KernelClass;
using gsuite::KernelStats;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<size_t>(spans[i].parent)].push_back(i);

    std::vector<int64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Union of the children's intervals clipped to this span.
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (size_t c : children[i]) {
            const int64_t b = std::max(s.startNs, spans[c].startNs);
            const int64_t e = std::min(s.endNs, spans[c].endNs);
            if (e > b)
                iv.emplace_back(b, e);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t curB = 0, curE = 0;
        bool open = false;
        for (const auto &[b, e] : iv) {
            if (open && b <= curE) {
                curE = std::max(curE, e);
                continue;
            }
            if (open)
                covered += curE - curB;
            curB = b;
            curE = e;
            open = true;
        }
        if (open)
            covered += curE - curB;
        self[i] = std::max<int64_t>(0, s.endNs - s.startNs - covered);
    }
    return self;
}

std::string
layerOf(const std::string &spanName)
{
    return spanName.substr(0, spanName.find('.'));
}

Phase
phaseOf(KernelClass kind)
{
    switch (kind) {
      case KernelClass::IndexSelect:
      case KernelClass::Scatter:
      case KernelClass::SpMM:
      case KernelClass::SpGemm:
        return Phase::Aggregation;
      case KernelClass::Sgemm:
        return Phase::Combination;
      case KernelClass::Elementwise:
      case KernelClass::Aux:
        return Phase::Other;
    }
    return Phase::Other;
}

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Aggregation: return "aggregation";
      case Phase::Combination: return "combination";
      case Phase::Other: return "other";
    }
    return "other";
}

const char *
classKey(KernelClass kind)
{
    switch (kind) {
      case KernelClass::IndexSelect: return "index_select";
      case KernelClass::Scatter: return "scatter";
      case KernelClass::Sgemm: return "sgemm";
      case KernelClass::SpGemm: return "spgemm";
      case KernelClass::SpMM: return "spmm";
      case KernelClass::Elementwise: return "elementwise";
      case KernelClass::Aux: return "aux";
    }
    return "aux";
}

const std::vector<KernelClass> &
allKernelClasses()
{
    static const std::vector<KernelClass> classes = {
        KernelClass::IndexSelect, KernelClass::Scatter,
        KernelClass::Sgemm,       KernelClass::SpGemm,
        KernelClass::SpMM,        KernelClass::Elementwise,
        KernelClass::Aux,
    };
    return classes;
}

bool
isExtrapolated(const KernelStats &stats)
{
    return stats.sampledCtas > 0 || stats.samplingFactor() != 1.0;
}

double
reportedCycles(const KernelStats &stats)
{
    // Same precedence as KernelStats::timeMs.
    if (stats.sampledCtas > 0)
        for (const gsuite::SampleEstimate &e : stats.estimates)
            if (e.name == "cycles" && e.est > 0.0)
                return e.est;
    return static_cast<double>(stats.cycles) * stats.samplingFactor();
}

double
cycleErrorPct(const std::vector<std::pair<double, double>> &pairs)
{
    double absErr = 0.0, exact = 0.0;
    for (const auto &[reported, truth] : pairs) {
        absErr += std::fabs(reported - truth);
        exact += truth;
    }
    return exact > 0.0 ? 100.0 * absErr / exact : 0.0;
}

double
elementError(double output, double reference)
{
    return std::fabs(output - reference) /
           std::max(1.0, std::fabs(reference));
}

std::string
counterFingerprint(const KernelStats &stats)
{
    const gsuite::StatSet set = stats.toStatSet();
    std::string out = stats.name;
    char buf[64];
    for (const std::string &n : set.names()) {
        std::snprintf(buf, sizeof(buf), "=%.17g;", set.get(n));
        out += n;
        out += buf;
    }
    return out;
}

} // namespace perfbench
