/**
 * @file
 * Fault-aware training (the paper's related work [20-22]: training in
 * the presence of faults improves model resilience; the paper notes
 * its boosting "mitigates the need for fault-aware training" but the
 * two compose). Each minibatch runs forward/backward through a
 * *corrupted* copy of the weights — quantize, flip bits under a fresh
 * vulnerability map at the training failure probability, dequantize —
 * while the SGD update is applied to the clean weights
 * (straight-through estimation). The resulting model tolerates higher
 * bit error rates at deployment, letting the boost controller pick a
 * lower level.
 */

#ifndef VBOOST_FI_FAULT_TRAINING_HPP
#define VBOOST_FI_FAULT_TRAINING_HPP

#include "dnn/trainer.hpp"
#include "fi/injector.hpp"

namespace vboost::fi {

/** Configuration of fault-aware training. */
struct FaultTrainConfig
{
    /** Underlying SGD configuration. */
    dnn::TrainConfig base;
    /** Bit failure probability injected during training (pick the
     *  rate of the intended deployment voltage). */
    double failProb = 5e-3;
    /** Per-read flip probability of a faulty cell. */
    double flipProb = 0.5;
    /** Clean epochs before injection starts; the model learns the
     *  task first, then hardens. Warm-up trains the float weights
     *  unstaged (no int16 round trip). */
    int warmupEpochs = 1;
    /** Element-wise gradient clamp (0 = off). Bit flips in high bits
     *  produce outlier activations whose gradients would otherwise
     *  blow up the clean parameters. */
    double gradClip = 0.5;
    /** Projected-SGD weight clamp (0 = off): keeps the deployment
     *  Q-format fixed during training so flip magnitudes stay
     *  bounded. */
    double weightClip = 0.5;
    /** Seed for the per-batch vulnerability maps. */
    std::uint64_t seed = 99;
    /** Cell layout used for the injected faults. */
    MemoryLayout layout;

    /** Fatals with a usage-style message on invalid values. */
    void validate() const;
};

/**
 * SGD with per-minibatch weight fault injection.
 *
 * The network sees a different fault map every batch, so it cannot
 * memorize specific broken cells; it must become robust to the error
 * *rate*.
 */
class FaultAwareTrainer
{
  public:
    explicit FaultAwareTrainer(FaultTrainConfig cfg = {});

    /**
     * Train `net` in place.
     *
     * @param net the network being trained (receives clean updates).
     * @param scratch structurally identical instance that holds the
     *        corrupted weights during each batch.
     * @param train_set training data.
     * @param rng shuffling randomness.
     */
    std::vector<dnn::EpochStats> train(dnn::Network &net,
                                       dnn::Network &scratch,
                                       const dnn::Dataset &train_set,
                                       Rng &rng);

    const FaultTrainConfig &config() const { return cfg_; }

  private:
    FaultTrainConfig cfg_;
};

} // namespace vboost::fi

#endif // VBOOST_FI_FAULT_TRAINING_HPP
