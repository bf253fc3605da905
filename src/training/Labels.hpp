/**
 * @file
 * Synthetic node labels for the training extension.
 *
 * Real planetoid labels are unavailable (graph/DatasetInfo.hpp), so
 * labels are derived from graph structure: each node takes the class
 * of its highest-degree in-neighbour (hub), falling back to a hash of
 * its own id. This gives classes that correlate with the topology, so a
 * GNN can actually reduce the loss — which is what the training
 * benchmarks need to exercise realistic convergence behaviour.
 */

#ifndef GSUITE_TRAINING_LABELS_HPP
#define GSUITE_TRAINING_LABELS_HPP

#include <cstdint>
#include <vector>

#include "graph/Graph.hpp"

namespace gsuite {

/** Deterministic structure-correlated labels in [0, num_classes). */
std::vector<int64_t> makeSyntheticLabels(const Graph &graph,
                                         int64_t num_classes,
                                         uint64_t seed = 7);

} // namespace gsuite

#endif // GSUITE_TRAINING_LABELS_HPP
