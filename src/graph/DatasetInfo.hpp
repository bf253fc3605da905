/**
 * @file
 * The dataset registry: Table IV of the paper.
 *
 * The real datasets (planetoid citation graphs, Reddit, LiveJournal)
 * are not redistributable and not downloadable in this environment, so
 * gsuite ships seeded synthetic generators matched to each dataset's
 * published statistics (node count, edge count, feature length) and a
 * skewed degree distribution.
 */

#ifndef GSUITE_GRAPH_DATASETINFO_HPP
#define GSUITE_GRAPH_DATASETINFO_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace gsuite {

/** Identifiers for the five Table IV datasets. */
enum class DatasetId {
    Cora,
    CiteSeer,
    PubMed,
    Reddit,
    LiveJournal,
};

/** Static description of one dataset (one Table IV row). */
struct DatasetInfo {
    DatasetId id;
    std::string name;      ///< lowercase canonical name, e.g. "cora"
    std::string shortForm; ///< paper's two-letter label, e.g. "CR"
    int64_t nodes;         ///< |V| from Table IV
    int64_t featureLen;    ///< f from Table IV
    int64_t edges;         ///< |E| from Table IV
    double powerLawSkew;   ///< RMAT skew used by the generator
};

/** All five datasets in Table IV order. */
const std::vector<DatasetInfo> &allDatasets();

/** Lookup by enum id; panic() on unknown id. */
const DatasetInfo &datasetInfo(DatasetId id);

/**
 * Lookup by name or short form, case-insensitive ("cora", "CR",
 * "livejournal", "LJ", ...). fatal() on unknown name.
 */
const DatasetInfo &datasetInfoByName(const std::string &name);

/** True if @p name refers to a known dataset. */
bool isKnownDataset(const std::string &name);

} // namespace gsuite

#endif // GSUITE_GRAPH_DATASETINFO_HPP
