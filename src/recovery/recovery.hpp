/**
 * @file
 * Chip-adaptive accuracy recovery (DESIGN.md §15): the shared
 * vocabulary of the recovery subsystem — the recovery-mode menu the
 * serving planner chooses from, the planner-facing descriptor of one
 * recovery option (accuracy curve + per-inference overheads), and the
 * ChipEvaluator that measures a model's accuracy under ONE frozen
 * chip's vulnerability map across Monte-Carlo read realizations.
 *
 * Layering: recovery sits between fi (whose injection machinery both
 * engines reuse) and serve (whose planner consumes PlannedRecovery
 * options). Everything here obeys the §7 determinism discipline:
 * counter-based flip streams, read-order reductions, and bitwise
 * thread-count invariance with FNV digests as acceptance values.
 */

#ifndef VBOOST_RECOVERY_RECOVERY_HPP
#define VBOOST_RECOVERY_RECOVERY_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/fnv.hpp"
#include "common/units.hpp"
#include "dnn/dataset.hpp"
#include "dnn/network.hpp"
#include "fi/injector.hpp"
#include "obs/observability.hpp"
#include "recovery/input_transform.hpp"
#include "sram/fault_map.hpp"

namespace vboost::recovery {

/** The recovery menu a serving plan can select from. */
enum class RecoveryMode
{
    /** Boost-only: no training-side or input-side recovery. */
    None = 0,
    /** MATIC map-aware retrained weights for the serving chip. */
    MapAware = 1,
    /** NeuralFuse learned input transform in front of frozen weights. */
    InputTransform = 2,
    /** Map-aware weights plus the input transform. */
    Combined = 3,
};

/** Display name ("none"/"map_aware"/"input_transform"/"combined"). */
const char *toString(RecoveryMode mode);

/**
 * One recovery option as the serving planner sees it: the accuracy
 * the mode achieves as a function of the weight-SRAM voltage, and the
 * per-inference overheads the mode costs. The planner folds the
 * overheads into its energy objective (and accel::RecoveryOverhead
 * folds them into the performance model), so "lower Vdd + transform"
 * competes fairly against "higher boost".
 */
struct PlannedRecovery
{
    RecoveryMode mode = RecoveryMode::None;
    /** Accuracy at a weight-SRAM voltage under this mode (e.g. a
     *  sampled ChipEvaluator curve for the serving chip). */
    std::function<double(Volt)> accuracy;
    /** Fault-free ceiling of this mode (diagnostics/reporting). */
    double faultFreeAccuracy = 0.0;
    /** Extra multiply-accumulates per inference (the transform). */
    std::uint64_t extraComputeOps = 0;
    /** Extra input-memory operand accesses per inference. */
    std::uint64_t extraInputAccesses = 0;

    /** Fatals with a usage-style message on invalid values. */
    void validate() const;
};

/** FNV-1a seed shared by the recovery digests (fnv::kTruncatedBasis). */
inline constexpr std::uint64_t kFnvOffset = fnv::kTruncatedBasis;

/** FNV-1a fold of one 64-bit word into `h`, byte by byte. */
std::uint64_t fnvMix(std::uint64_t h, std::uint64_t word);

/** FNV-1a fold of a double's raw bits into `h`. */
std::uint64_t fnvMixDouble(std::uint64_t h, double value);

/** FNV-1a digest over the raw float bits of every parameter of `net`,
 *  in parameter order — the bitwise identity of a trained model. */
std::uint64_t weightsDigest(dnn::Network &net);

/** Monte-Carlo configuration of per-chip evaluation. */
struct ChipEvalConfig
{
    /** Independent read realizations of the frozen map (faulty cells
     *  flip per read with flipProb; the paper averages reads the same
     *  way it averages maps). */
    int numReads = 8;
    /** Test samples evaluated per read (0 = whole test set). */
    std::size_t maxTestSamples = 400;
    /** Per-read flip probability of a faulty cell. */
    double flipProb = 0.5;
    /** Seed of the counter-based per-read flip streams. */
    std::uint64_t flipSeed = 1;
    /** Cell layout of the modeled memories. */
    fi::MemoryLayout layout;
    /** Worker threads (0 = hardware_concurrency, 1 = serial). Any
     *  value produces bitwise identical results. */
    int numThreads = 0;

    /** Fatals with a usage-style message on invalid values. */
    void validate() const;
};

/** Accuracy of one model on one chip at one failure probability. */
struct ChipAccuracy
{
    /** Mean accuracy across read realizations. */
    double meanAccuracy = 0.0;
    /** Stddev of accuracy across reads. */
    double stddevAccuracy = 0.0;
    /** Worst / best read. */
    double minAccuracy = 0.0;
    double maxAccuracy = 0.0;
    /** Mean weight bits flipped per read. */
    double meanBitFlips = 0.0;
    /** FNV-1a digest over per-read (accuracy, flips) bits in read
     *  order — the thread-invariance acceptance value. */
    std::uint64_t digest = 0;
};

/**
 * Evaluates a trained network's accuracy under ONE frozen chip map
 * (the per-chip view MATIC optimizes for; fi::FaultInjectionRunner is
 * the across-chips population view). Read realizations run in
 * parallel on the shared pool with slot-exclusive scratch clones and
 * reduce in read order, so results are bitwise thread-count invariant.
 */
class ChipEvaluator
{
  public:
    /**
     * @param net trained network (golden parameters; must outlive the
     *        evaluator).
     * @param test_set evaluation data.
     * @param map the chip's frozen vulnerability map.
     * @param cfg Monte-Carlo configuration.
     */
    ChipEvaluator(dnn::Network &net, const dnn::Dataset &test_set,
                  sram::VulnerabilityMap map, ChipEvalConfig cfg = {});

    /** Fault-free accuracy (the ceiling): the network as a zero-rate
     *  corruptNetwork stages it, i.e. every weight through the int16
     *  round trip with no faults. */
    double baselineAccuracy();

    /** Monte-Carlo accuracy at one bit failure probability, weights
     *  corrupted under the chip map. */
    ChipAccuracy evaluate(double fail_prob);

    /**
     * As evaluate(), with `tf` applied to every test input before the
     * corrupted forward pass (the NeuralFuse deployment: the input
     * memory is boosted above the Table-2 reliability floor, so
     * transformed inputs are stored reliably while weights fault).
     */
    ChipAccuracy evaluateWithTransform(double fail_prob,
                                       InputTransform &tf);

    /** The frozen chip map. */
    const sram::VulnerabilityMap &map() const { return map_; }

    /** Publish evaluation counters (`recovery.eval.*`) into `o` after
     *  each evaluate call. Pass nullptr to detach. */
    void attachObservability(obs::Observability *o,
                             obs::Labels labels = {});

    const ChipEvalConfig &config() const { return cfg_; }

  private:
    /** Shared Monte-Carlo loop; `inputs` are the (possibly
     *  transformed) evaluation images. */
    ChipAccuracy run(double fail_prob, const dnn::Tensor &inputs,
                     const char *kind);

    /** Grow the per-worker scratch-clone pool to `count` networks. */
    void ensureScratch(unsigned count);

    dnn::Network &net_;
    dnn::Dataset evalSet_;
    sram::VulnerabilityMap map_;
    ChipEvalConfig cfg_;
    /** One scratch clone per worker slot, created lazily. */
    std::vector<std::unique_ptr<dnn::Network>> scratch_;

    obs::Observability *obs_ = nullptr;
    obs::Labels labels_;
};

} // namespace vboost::recovery

#endif // VBOOST_RECOVERY_RECOVERY_HPP
