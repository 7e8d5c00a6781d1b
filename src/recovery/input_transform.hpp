/**
 * @file
 * NeuralFuse-style learned input transform (PAPERS.md: NeuralFuse).
 * A small residual preprocessing network rewrites each input into an
 * error-resistant pattern *before* it enters the accelerator, so a
 * model whose weights are corrupted by low-voltage SRAM faults
 * recovers accuracy with NO weight retraining — the access-limited
 * setting where the deployed base model is frozen (a sealed chip, a
 * tenant without training rights) and only the transform is trained,
 * through the corrupted forward pass.
 *
 * The transform is deliberately tiny (two dense layers) so its
 * energy/latency overhead — extra MACs and operand traffic per
 * inference, accounted by the planner and accel::RecoveryOverhead —
 * stays a small fraction of the base network it protects.
 */

#ifndef VBOOST_RECOVERY_INPUT_TRANSFORM_HPP
#define VBOOST_RECOVERY_INPUT_TRANSFORM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/trainer.hpp"
#include "fi/injector.hpp"
#include "obs/observability.hpp"

namespace vboost::recovery {

/** Shape/scale of the learned input transform. */
struct TransformConfig
{
    /** Input feature count (784 for the MNIST FC-DNN). */
    int inputDim = 784;
    /** Hidden width of the two-layer residual MLP. */
    int hiddenDim = 32;
    /** Residual scale: y = clamp(x + alpha * t(x), 0, 1). Bounded
     *  perturbation keeps the transformed input in the base model's
     *  training distribution (NeuralFuse's bounded-energy constraint). */
    double alpha = 0.25;
    /** Initializer seed for the transform parameters. */
    std::uint64_t initSeed = 1;

    /** Fatals with a usage-style message on invalid values. */
    void validate() const;
};

/**
 * The learned transform: y = clamp(x + alpha * t(x), 0, 1) with
 * t = Dense(in, h) -> ReLU -> Dense(h, in). apply(train=true) caches
 * the clamp mask so backward() can route loss gradients from the
 * (frozen, corrupted) base network into the transform parameters —
 * straight-through where the clamp saturates.
 */
class InputTransform
{
  public:
    explicit InputTransform(TransformConfig cfg = {});

    /** Transform a batch [B, inputDim]. */
    dnn::Tensor apply(const dnn::Tensor &x, bool train = false);

    /**
     * Backward through the last apply(train=true): writes the
     * transform parameters' gradients and returns dL/dx.
     *
     * @param grad_out dL/dy from the base network's input gradient.
     */
    dnn::Tensor backward(const dnn::Tensor &grad_out);

    /** The transform parameters' network (for SGD updates, cloning,
     *  serialization). */
    dnn::Network &network() { return net_; }

    /** Extra multiply-accumulates per transformed sample
     *  (2 * inputDim * hiddenDim for the two dense layers). */
    std::uint64_t macsPerSample() const;

    /** Extra SRAM operand accesses per transformed sample at the
     *  given packing (int16 elements per access), DANA-style: weight,
     *  input and output operands each streamed once. */
    std::uint64_t accessesPerSample(int elems_per_access = 4) const;

    /** Number of learned scalar parameters. */
    std::size_t parameterCount();

    /** Save the transform parameters via dnn::serialize. */
    void save(const std::string &path);

    /** Load transform parameters; false if the file does not exist. */
    bool load(const std::string &path);

    const TransformConfig &config() const { return cfg_; }

  private:
    TransformConfig cfg_;
    dnn::Network net_;
    /** Pre-clamp output of the last apply(train=true). */
    dnn::Tensor lastRaw_;
};

/** Configuration of access-limited transform training. */
struct TransformTrainConfig
{
    /** Underlying SGD configuration (epochs, batch size, lr, ...). */
    dnn::TrainConfig base;
    /** Bit failure probability injected into the frozen base weights
     *  during training (the intended deployment voltage's rate). */
    double failProb = 5e-3;
    /** Per-read flip probability of a faulty cell. */
    double flipProb = 0.5;
    /** Clean epochs before injection starts (the transform first
     *  learns to be harmless, then learns to protect). Warm-up runs
     *  the float base weights unstaged (no int16 round trip). */
    int warmupEpochs = 0;
    /** Element-wise gradient clamp on transform gradients (0 = off). */
    double gradClip = 0.5;
    /** Seed for the per-batch vulnerability maps: training sees a
     *  fresh map every batch, so the transform generalizes across
     *  chips instead of memorizing one (NeuralFuse's transferability
     *  setting; contrast MapAwareTrainer's frozen chip map). */
    std::uint64_t seed = 7;
    /** Cell layout used for the injected faults. */
    fi::MemoryLayout layout;

    /** Fatals with a usage-style message on invalid values. */
    void validate() const;
};

/** Per-run statistics of transform training. */
struct TransformTrainStats
{
    /** Per-epoch loss / accuracy (through the corrupted base). */
    std::vector<dnn::EpochStats> epochs;
    /** Minibatches processed. */
    std::uint64_t batches = 0;
    /** Total weight bits flipped across all batches. */
    std::uint64_t bitFlips = 0;

    /** FNV-1a digest over the per-epoch loss/accuracy bits, epoch
     *  order — the bitwise acceptance value for determinism tests. */
    std::uint64_t digest() const;
};

/**
 * Trains an InputTransform through a *frozen* corrupted base network:
 * each minibatch corrupts the base weights under a fresh vulnerability
 * map (fi::corruptNetwork), forwards transform -> corrupted base,
 * and backpropagates the loss through the base into the transform.
 * Only transform parameters are updated; the base never changes.
 * Deterministic under the §7 discipline: per-batch maps and flip
 * streams are counter-derived from the config seed.
 */
class TransformTrainer
{
  public:
    explicit TransformTrainer(TransformTrainConfig cfg = {});

    /**
     * Train `tf` in place.
     *
     * @param tf the transform being trained.
     * @param base the frozen base network (never modified).
     * @param scratch structurally identical to `base`; holds the
     *        corrupted weights during each batch.
     * @param train_set training data.
     * @param rng shuffling randomness.
     */
    TransformTrainStats train(InputTransform &tf, dnn::Network &base,
                              dnn::Network &scratch,
                              const dnn::Dataset &train_set, Rng &rng);

    /** Publish training counters (`recovery.fuse.*`) into `o` after
     *  each train() call. Pass nullptr to detach. */
    void attachObservability(obs::Observability *o,
                             obs::Labels labels = {});

    const TransformTrainConfig &config() const { return cfg_; }

  private:
    TransformTrainConfig cfg_;
    obs::Observability *obs_ = nullptr;
    obs::Labels labels_;
};

} // namespace vboost::recovery

#endif // VBOOST_RECOVERY_INPUT_TRANSFORM_HPP
