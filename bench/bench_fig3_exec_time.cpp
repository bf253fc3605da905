/**
 * @file
 * Fig. 3: end-to-end execution time of PyG, DGL, gSuite-MP and
 * gSuite-SpMM with each GNN model on the five datasets (mean of
 * three runs, like the paper's methodology).
 *
 * Expected shape: PyG slowest (framework initialization), gSuite
 * variants fastest; RD/LJ dominate runtime.
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

/** The four measurement columns of Fig. 3. */
std::vector<SweepVariant>
columns()
{
    return {
        {"PyG", [](UserParams &p) { p.framework = Framework::Pyg;
                                    p.comp = CompModel::Mp; }},
        {"DGL", [](UserParams &p) { p.framework = Framework::Dgl;
                                    p.comp = CompModel::Spmm; }},
        {"gSuite-MP",
         [](UserParams &p) { p.framework = Framework::Gsuite;
                             p.comp = CompModel::Mp; }},
        {"gSuite-SpMM",
         [](UserParams &p) { p.framework = Framework::Gsuite;
                             p.comp = CompModel::Spmm; }},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    const int runs = args.quick ? 1 : 3;
    banner("Fig. 3: end-to-end execution time (seconds)",
           "Mean of " + std::to_string(runs) +
               " runs; functional engine at the functional dataset "
               "scales. gSuite-SpMM omits SAG "
               "(paper Section II-C); kernel times are host "
               "wall-clock, framework overheads per "
               "frameworks/Overheads.");

    const SweepSpec spec =
        SweepSpec{}
            .base(args.functionalBase())
            .variants(columns())
            .models(paperModels())
            .datasets(paperDatasets())
            .skip(sageSpmmUnsupported);

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    store.toCsv(args.csvPath,
                {"model", "dataset", "framework", "end_to_end_sec",
                 "kernel_sec", "scale"},
                [](const SweepResult &r)
                    -> std::vector<std::vector<std::string>> {
                    if (!r.ok)
                        return {};
                    return {{gnnModelName(r.point.params.model),
                             dsShortByName(r.point.params.dataset),
                             r.point.variant,
                             fmtDouble(
                                 r.outcome.meanEndToEndUs / 1e6, 6),
                             fmtDouble(r.outcome.meanKernelUs / 1e6,
                                       6),
                             r.outcome.scaleDescription}};
                });

    for (const GnnModelKind model : paperModels()) {
        TablePrinter table(std::string("model: ") +
                           gnnModelName(model));
        table.header({"dataset", "PyG", "DGL", "gSuite-MP",
                      "gSuite-SpMM", "scale"});
        for (const DatasetId id : paperDatasets()) {
            const std::string ds = datasetInfo(id).name;
            std::vector<std::string> cells = {dsShort(id)};
            std::string scale;
            for (const SweepVariant &col : columns()) {
                const SweepResult *r = store.find(
                    [&](const SweepPoint &pt) {
                        return pt.variant == col.label &&
                               pt.params.model == model &&
                               pt.params.dataset == ds;
                    });
                if (!r || !r->ok) {
                    cells.push_back("n/a");
                    continue;
                }
                cells.push_back(fmtDouble(
                    r->outcome.meanEndToEndUs / 1e6, 3));
                scale = r->outcome.scaleDescription;
            }
            cells.push_back(scale);
            table.row(cells);
        }
        table.print();
        std::printf("\n");
    }
    return 0;
}
