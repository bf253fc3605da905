#include "suite/SweepSpec.hpp"

#include <set>

#include "frameworks/FrameworkAdapter.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

SweepSpec &
SweepSpec::base(const UserParams &p)
{
    baseParams = p;
    return *this;
}

SweepSpec &
SweepSpec::datasets(const std::vector<DatasetId> &ids)
{
    dsAxis.clear();
    for (const DatasetId id : ids)
        dsAxis.push_back(datasetInfo(id).name);
    return *this;
}

SweepSpec &
SweepSpec::datasetNames(const std::vector<std::string> &names)
{
    dsAxis = names;
    return *this;
}

SweepSpec &
SweepSpec::models(const std::vector<GnnModelKind> &ms)
{
    modelAxis = ms;
    return *this;
}

SweepSpec &
SweepSpec::comps(const std::vector<CompModel> &cs)
{
    compAxis = cs;
    return *this;
}

SweepSpec &
SweepSpec::frameworks(const std::vector<Framework> &fs)
{
    fwAxis = fs;
    return *this;
}

SweepSpec &
SweepSpec::engines(const std::vector<EngineKind> &es)
{
    engineAxis = es;
    return *this;
}

SweepSpec &
SweepSpec::engine(EngineKind e)
{
    engineAxis = {e};
    return *this;
}

SweepSpec &
SweepSpec::variants(std::vector<SweepVariant> vs)
{
    variantAxis = std::move(vs);
    return *this;
}

SweepSpec &
SweepSpec::batches(const std::vector<int> &bs)
{
    for (const int b : bs)
        if (b < 1)
            fatal("batch axis values must be >= 1 (got %d)", b);
    batchAxis = bs;
    return *this;
}

SweepSpec &
SweepSpec::gpus(const std::vector<std::string> &specs)
{
    gpuAxis = specs;
    return *this;
}

SweepSpec &
SweepSpec::samples(const std::vector<std::string> &specs)
{
    sampleAxis = specs;
    return *this;
}

SweepSpec &
SweepSpec::layers(int l)
{
    baseParams.layers = l;
    return *this;
}

SweepSpec &
SweepSpec::runs(int r)
{
    baseParams.runs = r;
    return *this;
}

SweepSpec &
SweepSpec::maxCtas(int64_t ctas)
{
    baseParams.maxCtas = ctas;
    return *this;
}

SweepSpec &
SweepSpec::profileCaches(bool on)
{
    baseParams.profileCaches = on;
    return *this;
}

SweepSpec &
SweepSpec::configure(const std::function<void(UserParams &)> &fn)
{
    fn(baseParams);
    return *this;
}

SweepSpec &
SweepSpec::skip(const std::function<bool(const UserParams &)> &pred)
{
    skips.push_back(pred);
    return *this;
}

std::vector<SweepPoint>
SweepSpec::expand() const
{
    // The dataset and gpu axes honour comma-separated base values —
    // the CLI sweep shorthand ("--dataset cora,pubmed",
    // "--gpu v100-sim,a100").
    const std::vector<std::string> ds =
        dsAxis.empty() ? splitDatasetList(baseParams.dataset)
                       : dsAxis;
    const std::vector<std::string> gpus =
        gpuAxis.empty() ? split(baseParams.gpu, ',') : gpuAxis;
    const std::vector<std::string> samples =
        sampleAxis.empty()
            ? (baseParams.sample.empty()
                   ? std::vector<std::string>{""}
                   : split(baseParams.sample, ','))
            : sampleAxis;
    const std::vector<GnnModelKind> models =
        modelAxis.empty()
            ? std::vector<GnnModelKind>{baseParams.model}
            : modelAxis;
    const std::vector<CompModel> comps =
        compAxis.empty() ? std::vector<CompModel>{baseParams.comp}
                         : compAxis;
    const std::vector<Framework> fws =
        fwAxis.empty() ? std::vector<Framework>{baseParams.framework}
                       : fwAxis;
    const std::vector<EngineKind> engines =
        engineAxis.empty()
            ? std::vector<EngineKind>{baseParams.engine}
            : engineAxis;
    const std::vector<int> batches =
        batchAxis.empty() ? std::vector<int>{baseParams.batch}
                          : batchAxis;
    std::vector<SweepVariant> vars = variantAxis;
    if (vars.empty())
        vars.push_back(SweepVariant{"", nullptr});

    {
        std::set<std::string> labels;
        for (const SweepVariant &v : vars)
            if (!labels.insert(v.label).second)
                fatal("duplicate sweep variant label '%s'",
                      v.label.c_str());
    }
    {
        std::set<std::string> seen;
        for (const std::string &g : gpus)
            if (!seen.insert(g).second)
                fatal("duplicate gpu axis entry '%s'", g.c_str());
    }
    {
        std::set<std::string> seen;
        for (const std::string &s : samples)
            if (!seen.insert(s).second)
                fatal("duplicate sample axis entry '%s'", s.c_str());
    }

    std::vector<SweepPoint> points;
    points.reserve(gpus.size() * vars.size() * fws.size() *
                   models.size() * comps.size() * engines.size() *
                   ds.size() * samples.size() * batches.size());
    for (const std::string &g : gpus) {
      for (const SweepVariant &v : vars) {
        for (const Framework fw : fws) {
            for (const GnnModelKind m : models) {
                for (const CompModel c : comps) {
                    for (const EngineKind e : engines) {
                        for (const std::string &d : ds) {
                          for (const std::string &sm : samples) {
                          for (const int b : batches) {
                            UserParams p = baseParams;
                            p.gpu = g;
                            p.framework = fw;
                            p.model = m;
                            p.comp = c;
                            p.engine = e;
                            p.dataset = d;
                            p.sample = sm;
                            p.batch = b;
                            if (v.apply)
                                v.apply(p);

                            bool skipped = false;
                            for (const auto &pred : skips)
                                skipped = skipped || pred(p);
                            if (skipped)
                                continue;

                            SweepPoint pt;
                            pt.index = points.size();
                            pt.variant = v.label;
                            std::string label;
                            if (gpus.size() > 1)
                                label += "[" + g + "]";
                            if (!v.label.empty())
                                label += v.label + ":";
                            label += frameworkName(fw);
                            label += "/";
                            label += gnnModelName(m);
                            label += "/";
                            label += compModelName(c);
                            label += "/";
                            label += d;
                            if (engines.size() > 1)
                                label += e == EngineKind::Sim
                                             ? "@sim"
                                             : "@functional";
                            if (samples.size() > 1)
                                label += "~" +
                                         (sm.empty()
                                              ? std::string("off")
                                              : sm);
                            if (batches.size() > 1)
                                label.append("x").append(
                                    std::to_string(b));
                            pt.label = std::move(label);
                            pt.params = std::move(p);
                            points.push_back(std::move(pt));
                          }
                          }
                        }
                    }
                }
            }
        }
      }
    }
    return points;
}

} // namespace gsuite
