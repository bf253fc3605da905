#include "Workloads.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

struct Model {
    const char *model;
    const char *comp;
};

PointSpec
point(const std::string &label, std::vector<std::string> args,
      uint64_t seed)
{
    args.insert(args.end(), {"--seed", std::to_string(seed)});
    return {label, std::move(args)};
}

} // namespace

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "sim-exact") {
        // GEMM-bound (cora, f=1433) and gather-bound (pubmed
        // indexSelect/scatter) kernels at the default sim scale,
        // every launch cycle-simulated. gin-mp and sage-mp bring
        // launches over the default CTA cap.
        w.sim = true;
        const Model models[] = {{"gcn", "mp"},
                                {"gcn", "spmm"},
                                {"gin", "mp"},
                                {"gin", "spmm"},
                                {"sage", "mp"}};
        for (const char *ds : {"cora", "pubmed"})
            for (const Model &m : models)
                w.points.push_back(point(
                    std::string(m.model) + "-" + m.comp + "/" + ds,
                    {"--dataset", ds, "--model", m.model, "--comp",
                     m.comp, "--engine", "sim", "--gpu", "v100-sim",
                     "--runs", "1", "--sim-threads", "1"},
                    seed));
    } else if (name == "sim-sampled") {
        // 1/8 CTA sampling with extrapolation; a100's large L2 is
        // where sampling bias was documented.
        w.sim = true;
        const std::string rmat =
            "rmat:scale=16,ef=8,seed=" + std::to_string(seed);
        const struct {
            std::string dataset, label;
            Model m;
        } cases[] = {{rmat, "rmat16", {"gcn", "mp"}},
                     {"pubmed", "pubmed", {"gin", "mp"}},
                     {"reddit", "reddit", {"gcn", "spmm"}}};
        for (const char *gpu : {"v100-sim", "a100"})
            for (const auto &c : cases)
                w.points.push_back(point(
                    std::string(c.m.model) + "-" + c.m.comp + "/" +
                        c.label + "@" + gpu,
                    {"--dataset", c.dataset, "--model", c.m.model,
                     "--comp", c.m.comp, "--engine", "sim", "--gpu",
                     gpu, "--sample", "cta:0.125", "--runs", "1",
                     "--sim-threads", "1"},
                    seed));
    } else if (name == "host-profile") {
        // Functional engine with cache-profiler replay and planned
        // placement; the timing simulator does no work here.
        const std::vector<std::string> common = {
            "--dataset", "reddit", "--engine", "functional",
            "--profile-caches", "true", "--mem-plan", "true"};
        auto with = [&](std::vector<std::string> extra) {
            extra.insert(extra.begin(), common.begin(), common.end());
            return extra;
        };
        w.points.push_back(point(
            "gcn-spmm/reddit",
            with({"--model", "gcn", "--comp", "spmm"}), seed));
        w.points.push_back(point(
            "gin-mp/reddit", with({"--model", "gin", "--comp", "mp"}),
            seed));
        w.points.push_back(point(
            "gcn-mp/reddit/batch4",
            with({"--model", "gcn", "--comp", "mp", "--batch", "4"}),
            seed));
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

gsuite::UserParams
paramsOf(const PointSpec &point)
{
    std::vector<const char *> argv = {"perfbench"};
    for (const std::string &a : point.args)
        argv.push_back(a.c_str());
    return gsuite::UserParams::fromArgs(static_cast<int>(argv.size()),
                                        argv.data());
}

} // namespace perfbench
