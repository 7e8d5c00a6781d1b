/**
 * @file
 * Per-bitcell vulnerability and fault maps (paper Sec. 5.1, Fig. 11).
 *
 * The paper models inter-cell Vt variation by giving each bitcell a
 * vulnerability drawn from N(0,1): at supply voltage v the cell is
 * *faulty* iff its draw x satisfies P(X >= x1) = F(v), i.e.
 * x >= Phi^-1(1 - F(v)). A faulty cell manifests a bit flip on any
 * given read with probability p (0.5 by default). Fault maps are
 * *inclusive*: every cell faulty at voltage V2 is also faulty at any
 * V1 < V2.
 *
 * Implementation: the N(0,1) draw for cell c in Monte-Carlo map m is
 * derived from a counter-based hash of (seed, m, c), so maps need no
 * storage, are reproducible, and inclusivity across voltages holds by
 * construction (the draw is fixed; only the threshold moves).
 */

#ifndef VBOOST_SRAM_FAULT_MAP_HPP
#define VBOOST_SRAM_FAULT_MAP_HPP

#include <cstdint>
#include <vector>

namespace vboost::sram {

/** Spatial structure of the per-cell fault process. */
enum class MapModel {
    /** Independent per-cell draws (the paper's baseline model). */
    Iid,
    /** MoRS-lite: row/column defect processes layered over the
     *  i.i.d. baseline. A deterministic per-map subset of wordline
     *  rows and bitline columns is *defective*; cells inside a
     *  defective row or column fail at a boosted probability, the
     *  rest at a depressed one, calibrated so the aggregate expected
     *  fault fraction stays exactly F(v). */
    Clustered,
};

/** Parameters of the clustered (MoRS-lite) defect process. */
struct ClusterParams
{
    /** Cells per wordline row (row id = cell / rowCells, column id =
     *  cell % rowCells). Defaults to the resilience layer's 8-word
     *  72-bit-codeword rows so same-row clustering lines up with
     *  spare-row quarantine granularity. */
    std::uint64_t rowCells = 576;
    /** Fraction of rows that are defective. */
    double rowDefectProb = 0.05;
    /** Fraction of columns that are defective. */
    double colDefectProb = 0.02;
    /** Fail-probability multiplier inside defective rows/columns
     *  (clamped so calibration keeps the aggregate at F(v)). */
    double defectBoost = 12.0;

    /** Fatals on out-of-range parameters. */
    void validate() const;

    /** Fraction of cells covered by a defective row or column. */
    double coverage() const
    {
        return rowDefectProb + colDefectProb -
               rowDefectProb * colDefectProb;
    }

    friend bool operator==(const ClusterParams &,
                           const ClusterParams &) = default;
};

/** Everything that decides which cells of a map are faulty at a fail
 *  probability: maps with equal keys fail the same cells at every
 *  probability, so anything packed from one serves the other. */
struct MapKey
{
    std::uint64_t streamKey = 0;
    MapModel model = MapModel::Iid;
    ClusterParams cluster;

    friend bool operator==(const MapKey &, const MapKey &) = default;
};

/**
 * Deterministic per-cell vulnerability for one Monte-Carlo fault map.
 * Cheap to copy; all methods are const and thread-safe.
 */
class VulnerabilityMap
{
  public:
    /**
     * @param seed experiment seed shared across maps.
     * @param map_index Monte-Carlo map number.
     */
    VulnerabilityMap(std::uint64_t seed, std::uint64_t map_index);

    /** As above, with an explicit spatial model. `cluster` is ignored
     *  under MapModel::Iid. */
    VulnerabilityMap(std::uint64_t seed, std::uint64_t map_index,
                     MapModel model, const ClusterParams &cluster);

    /**
     * Is cell `cell` faulty when the bit failure probability is
     * `fail_prob`? Monotone in fail_prob (inclusivity), under both
     * spatial models: the per-cell draw and the defect structure are
     * fixed; only the (per-stratum) threshold moves with fail_prob.
     */
    bool isFaulty(std::uint64_t cell, double fail_prob) const;

    /** Spatial model of this map. */
    MapModel model() const { return model_; }

    /** Cluster parameters (meaningful under MapModel::Clustered). */
    const ClusterParams &cluster() const { return cluster_; }

    /** Is the cell inside a defective row or column? Always false
     *  under MapModel::Iid. */
    bool inDefectCluster(std::uint64_t cell) const;

    /**
     * Effective per-cell fail probability at aggregate probability
     * `fail_prob`: the boosted/depressed stratum probability under
     * Clustered, `fail_prob` itself under Iid. The expectation over
     * cells equals `fail_prob` exactly under both models.
     */
    double effectiveFailProb(std::uint64_t cell, double fail_prob) const;

    /** The cell's N(0,1) vulnerability draw (diagnostics/tests). */
    double vulnerability(std::uint64_t cell) const;

    /** Enumerate faulty cells in [0, num_cells) at fail_prob. */
    std::vector<std::uint64_t>
    faultyCells(std::uint64_t num_cells, double fail_prob) const;

    /** Count faulty cells in [0, num_cells) at fail_prob. */
    std::uint64_t
    countFaulty(std::uint64_t num_cells, double fail_prob) const;

    /**
     * Smallest uniform draw among cells [0, num_cells): the map's most
     * vulnerable cell. A fail probability above this value makes at
     * least one cell faulty; at or below it the array is error-free.
     * Used by the yield analyzer to compute exact per-die V_min.
     */
    double minUniform(std::uint64_t num_cells) const;

    std::uint64_t seed() const { return seed_; }
    std::uint64_t mapIndex() const { return mapIndex_; }

    /** Internal hash stream key; lets PackedFaultMap reproduce the
     *  exact per-cell draws without going through isFaulty(). */
    std::uint64_t streamKey() const { return streamKey_; }

    /** The map's identity. Iid maps keep default-constructed cluster
     *  params, so the field never splits two iid maps. */
    MapKey key() const { return {streamKey_, model_, cluster_}; }

  private:
    /** Counter-based hash of the cell id to a uniform in [0,1). */
    double cellUniform(std::uint64_t cell) const;

    /** Stratum fail probabilities (boosted, depressed) calibrated so
     *  cov*hi + (1-cov)*lo == fail_prob. */
    void stratumProbs(double fail_prob, double &hi, double &lo) const;

    std::uint64_t seed_;
    std::uint64_t mapIndex_;
    std::uint64_t streamKey_;
    MapModel model_ = MapModel::Iid;
    ClusterParams cluster_;
    std::uint64_t rowKey_ = 0; // defect stream for row ids
    std::uint64_t colKey_ = 0; // defect stream for column ids
};

/** Read-manifestation parameters for fault injection. */
struct FaultParams
{
    /** Bit failure probability F(v) at the operating voltage. */
    double failProb = 0.0;
    /** Probability a faulty cell flips on a given read (paper: 0.5). */
    double flipProb = 0.5;
};

} // namespace vboost::sram

#endif // VBOOST_SRAM_FAULT_MAP_HPP
