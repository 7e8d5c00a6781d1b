#include "sram/fault_map.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "sram/cell_hash.hpp"

namespace vboost::sram {

using detail::cellHash;
using detail::mix64;
using detail::probThreshold;

void
ClusterParams::validate() const
{
    if (rowCells == 0)
        fatal("ClusterParams: rowCells must be positive");
    if (rowDefectProb < 0.0 || rowDefectProb > 1.0 ||
        colDefectProb < 0.0 || colDefectProb > 1.0) {
        fatal("ClusterParams: defect probabilities must be in [0,1]");
    }
    if (rowDefectProb + colDefectProb <= 0.0)
        fatal("ClusterParams: clustered model needs a nonzero defect "
              "process (row or column)");
    if (coverage() >= 1.0)
        fatal("ClusterParams: defect coverage must be below 1");
    if (defectBoost < 1.0)
        fatal("ClusterParams: defectBoost must be >= 1, got ", defectBoost);
}

VulnerabilityMap::VulnerabilityMap(std::uint64_t seed,
                                   std::uint64_t map_index)
    : seed_(seed), mapIndex_(map_index)
{
    streamKey_ = mix64(seed ^ mix64(map_index + 0x5851f42d4c957f2dull));
}

VulnerabilityMap::VulnerabilityMap(std::uint64_t seed,
                                   std::uint64_t map_index, MapModel model,
                                   const ClusterParams &cluster)
    : VulnerabilityMap(seed, map_index)
{
    model_ = model;
    if (model_ == MapModel::Clustered) {
        cluster.validate();
        cluster_ = cluster;
        // Independent defect streams so the row/column processes do
        // not alias the per-cell draws (which use streamKey_ itself).
        rowKey_ = mix64(streamKey_ ^ 0x60bee2bee120fc15ull);
        colKey_ = mix64(streamKey_ ^ 0xa3aac0aac0330ca3ull);
    }
}

double
VulnerabilityMap::cellUniform(std::uint64_t cell) const
{
    return (cellHash(streamKey_, cell) >> 11) * 0x1.0p-53;
}

bool
VulnerabilityMap::inDefectCluster(std::uint64_t cell) const
{
    if (model_ != MapModel::Clustered)
        return false;
    const std::uint64_t row = cell / cluster_.rowCells;
    const std::uint64_t col = cell % cluster_.rowCells;
    return cellHash(rowKey_, row) <
               probThreshold(cluster_.rowDefectProb) ||
           cellHash(colKey_, col) < probThreshold(cluster_.colDefectProb);
}

void
VulnerabilityMap::stratumProbs(double fail_prob, double &hi,
                               double &lo) const
{
    // Calibration: cov*hi + (1-cov)*lo == fail_prob exactly, with hi
    // boosted as far as defectBoost allows. Both hi(F) and lo(F) are
    // continuous and nondecreasing in F, so inclusivity (a fixed cell
    // draw against a moving threshold) carries over to the clustered
    // model unchanged.
    const double cov = cluster_.coverage();
    hi = std::min(1.0, cluster_.defectBoost * fail_prob);
    if (cov * hi > fail_prob) {
        hi = fail_prob / cov;
        lo = 0.0;
    } else {
        lo = (fail_prob - cov * hi) / (1.0 - cov);
    }
}

double
VulnerabilityMap::effectiveFailProb(std::uint64_t cell,
                                    double fail_prob) const
{
    if (model_ != MapModel::Clustered || fail_prob <= 0.0 ||
        fail_prob >= 1.0) {
        return fail_prob;
    }
    double hi = 0.0;
    double lo = 0.0;
    stratumProbs(fail_prob, hi, lo);
    return inDefectCluster(cell) ? hi : lo;
}

bool
VulnerabilityMap::isFaulty(std::uint64_t cell, double fail_prob) const
{
    if (model_ == MapModel::Clustered) {
        return cellHash(streamKey_, cell) <
               probThreshold(effectiveFailProb(cell, fail_prob));
    }
    return cellHash(streamKey_, cell) < probThreshold(fail_prob);
}

double
VulnerabilityMap::vulnerability(std::uint64_t cell) const
{
    // Cell is faulty iff u < F(v) iff Phi^-1(1-u) >= Phi^-1(1-F(v)),
    // so x = Phi^-1(1-u) is the N(0,1) vulnerability of the paper's
    // model. Clamp u away from the endpoints for a finite quantile.
    double u = cellUniform(cell);
    u = std::min(std::max(u, 1e-15), 1.0 - 1e-15);
    return inverseNormalCdf(1.0 - u);
}

std::vector<std::uint64_t>
VulnerabilityMap::faultyCells(std::uint64_t num_cells,
                              double fail_prob) const
{
    std::vector<std::uint64_t> out;
    if (model_ == MapModel::Clustered) {
        for (std::uint64_t c = 0; c < num_cells; ++c) {
            if (isFaulty(c, fail_prob))
                out.push_back(c);
        }
        return out;
    }
    const std::uint64_t thr = probThreshold(fail_prob);
    for (std::uint64_t c = 0; c < num_cells; ++c) {
        if (cellHash(streamKey_, c) < thr)
            out.push_back(c);
    }
    return out;
}

std::uint64_t
VulnerabilityMap::countFaulty(std::uint64_t num_cells,
                              double fail_prob) const
{
    std::uint64_t n = 0;
    if (model_ == MapModel::Clustered) {
        for (std::uint64_t c = 0; c < num_cells; ++c)
            n += isFaulty(c, fail_prob);
        return n;
    }
    const std::uint64_t thr = probThreshold(fail_prob);
    for (std::uint64_t c = 0; c < num_cells; ++c)
        n += cellHash(streamKey_, c) < thr;
    return n;
}

double
VulnerabilityMap::minUniform(std::uint64_t num_cells) const
{
    if (num_cells == 0)
        fatal("VulnerabilityMap::minUniform: empty cell range");
    if (model_ != MapModel::Iid) {
        fatal("VulnerabilityMap::minUniform: defined for i.i.d. maps "
              "only (clustered cells face per-stratum thresholds)");
    }
    std::uint64_t min_hash = ~0ull;
    for (std::uint64_t c = 0; c < num_cells; ++c)
        min_hash = std::min(min_hash, cellHash(streamKey_, c));
    return (min_hash >> 11) * 0x1.0p-53;
}

} // namespace vboost::sram
