/**
 * @file
 * MATIC-style memory-adaptive training (PAPERS.md: MATIC). Where
 * fi::FaultAwareTrainer hardens a model against the fault *rate* by
 * resampling a fresh vulnerability map every minibatch, MapAwareTrainer
 * freezes ONE chip's profiled sram::VulnerabilityMap — i.i.d. or
 * clustered — into every forward/backward pass, so the optimizer
 * learns around that chip's specific broken cells and tolerates a
 * lower SRAM voltage (a lower boost level) on that chip than any
 * chip-agnostic model can.
 *
 * Two MATIC mechanisms are modeled on top of the straight-through
 * machinery shared with fault-aware training:
 *
 *  - Curriculum voltage descent: the injected bit failure probability
 *    ramps geometrically across epochs from a gentle start to the
 *    deployment rate, mimicking MATIC's staged supply lowering.
 *  - Periodic map refresh: real profiling is not free, so the injected
 *    rate is frozen at its last profiled value and re-snapped to the
 *    curriculum only every refreshInterval batches — training between
 *    refreshes runs against a stale profile, exactly the
 *    profile-then-train loop of the hardware flow.
 */

#ifndef VBOOST_RECOVERY_MAP_AWARE_TRAINER_HPP
#define VBOOST_RECOVERY_MAP_AWARE_TRAINER_HPP

#include <cstdint>
#include <vector>

#include "fi/fault_training.hpp"
#include "obs/observability.hpp"
#include "sram/fault_map.hpp"

namespace vboost::recovery {

/** Configuration of map-aware (per-chip) training. */
struct MapAwareConfig
{
    /** The shared straight-through training knobs: base SGD config,
     *  deployment failProb, flipProb, warmupEpochs, grad/weight clips,
     *  flip-stream seed and cell layout. */
    fi::FaultTrainConfig train;

    /** Seed identifying the chip whose map is frozen into training. */
    std::uint64_t chipSeed = 1234;
    /** Map index of the chip (VulnerabilityMap(chipSeed, chipMapIndex)). */
    std::uint64_t chipMapIndex = 0;
    /** Spatial structure of the chip's fault map. */
    sram::MapModel mapModel = sram::MapModel::Iid;
    /** Defect-process parameters under MapModel::Clustered. */
    sram::ClusterParams cluster;

    /** Batches between profile refreshes (0 = profile once at the
     *  start of injection and never refresh). */
    int refreshInterval = 32;
    /** Epochs of curriculum voltage descent after warmup: the
     *  curriculum rate ramps geometrically from
     *  curriculumStartScale * failProb up to failProb. 0 disables the
     *  ramp (injection starts at the deployment rate). */
    int curriculumEpochs = 2;
    /** Starting fraction of the deployment failProb for the ramp. */
    double curriculumStartScale = 0.125;

    /** Fatals with a usage-style message on invalid values. */
    void validate() const;
};

/** Per-run statistics of map-aware training. */
struct MapAwareStats
{
    /** Per-epoch loss / accuracy (through the corrupted weights). */
    std::vector<dnn::EpochStats> epochs;
    /** Minibatches processed. */
    std::uint64_t batches = 0;
    /** Profile refreshes performed (initial profile included). */
    std::uint64_t mapRefreshes = 0;
    /** Total weight bits flipped across all batches. */
    std::uint64_t bitFlips = 0;
    /** The injected failProb of the last processed batch (equals the
     *  deployment rate once warmup + curriculum have completed and a
     *  refresh has landed). */
    double finalInjectedProb = 0.0;

    /** FNV-1a digest over the per-epoch loss/accuracy bits plus the
     *  batch/refresh/flip counters — the bitwise acceptance value for
     *  determinism tests. */
    std::uint64_t digest() const;
};

/**
 * SGD against one frozen chip map. Forward/backward run through
 * weights corrupted under the chip's VulnerabilityMap at the current
 * (curriculum- and refresh-gated) failure probability; updates apply
 * to the clean parameters (straight-through), with the same gradient
 * clamp and Q-format projection as fi::FaultAwareTrainer. Per-batch
 * flip streams are counter-derived (Rng(seed).split(batch)), so the
 * whole run is bitwise reproducible.
 */
class MapAwareTrainer
{
  public:
    explicit MapAwareTrainer(MapAwareConfig cfg = {});

    /**
     * Train `net` in place against the configured chip map.
     *
     * @param net the network being trained (receives clean updates).
     * @param scratch structurally identical instance holding the
     *        corrupted weights during each batch.
     * @param train_set training data.
     * @param rng shuffling randomness.
     */
    MapAwareStats train(dnn::Network &net, dnn::Network &scratch,
                        const dnn::Dataset &train_set, Rng &rng);

    /** The frozen chip map training runs against. */
    const sram::VulnerabilityMap &chipMap() const { return map_; }

    /** Publish training counters (`recovery.matic.*`) into `o` after
     *  each train() call. Pass nullptr to detach. */
    void attachObservability(obs::Observability *o,
                             obs::Labels labels = {});

    const MapAwareConfig &config() const { return cfg_; }

  private:
    MapAwareConfig cfg_;
    sram::VulnerabilityMap map_;
    obs::Observability *obs_ = nullptr;
    obs::Labels labels_;
};

} // namespace vboost::recovery

#endif // VBOOST_RECOVERY_MAP_AWARE_TRAINER_HPP
