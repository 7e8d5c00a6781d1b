/**
 * @file
 * Minibatch SGD with momentum for the from-scratch DNN engine: the one
 * training loop behind plain, fault-aware, MATIC and NeuralFuse
 * training. Those differ only in a per-batch step (BatchStep) that
 * corrupts scratch weights and names what the update touches.
 * Training happens at full float precision; quantization to the
 * accelerator's int16 storage format is a separate post-training step
 * (see dnn/quantize.hpp), matching the paper's flow where networks are
 * trained offline and deployed to the accelerator's SRAM.
 */

#ifndef VBOOST_DNN_TRAINER_HPP
#define VBOOST_DNN_TRAINER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dnn/dataset.hpp"
#include "dnn/network.hpp"

namespace vboost::dnn {

/** Trainer configuration. */
struct TrainConfig
{
    int epochs = 6;
    int batchSize = 64;
    double learningRate = 0.1;
    double momentum = 0.9;
    /** Learning-rate decay multiplier applied after each epoch. */
    double lrDecay = 0.85;
    /** Participants each batch's ops split across by output
     *  (DESIGN.md §12, "Split training"): 0 = all hardware threads,
     *  1 = serial. Trained bits do not depend on it. */
    int numThreads = 0;

    /** Fatals with a usage-style message on invalid values. */
    void validate() const;
};

/** Per-epoch training record. */
struct EpochStats
{
    double meanLoss = 0.0;
    double trainAccuracy = 0.0;
};

/**
 * The per-batch step of runSgd(). beforeBatch() is the corruption
 * hook; forward()/backward() run one training pass, and targets()
 * names the parameters the update writes.
 */
class BatchStep
{
  public:
    virtual ~BatchStep() = default;

    /** Parameters to update. Each one's `grad` is the gradient that
     *  drives it (straight-through steps point it at a scratch copy).
     *  Queried once per run. */
    virtual std::vector<ParamRef> targets() = 0;

    /** Called before each batch with the epoch and the global batch
     *  index (counted from 0 across epochs); corrupts scratch weights.
     *  The default does nothing. */
    virtual void beforeBatch(int /*epoch*/, std::uint64_t /*batch*/) {}

    /** Run the training forward pass. */
    virtual Tensor forward(const Tensor &images) = 0;

    /** Backpropagate dL/d(logits), writing the targets' gradients. */
    virtual void backward(const Tensor &grad) = 0;
};

/**
 * Straight-through step: forward/backward run through `scratch`, and
 * the gradients update the matching parameters of `net`. With
 * `scratch` the same object as `net` this is plain SGD.
 */
class NetworkStep : public BatchStep
{
  public:
    NetworkStep(Network &net, Network &scratch)
        : net_(net), scratch_(scratch)
    {
    }

    std::vector<ParamRef> targets() override;
    Tensor forward(const Tensor &images) override;
    void backward(const Tensor &grad) override;

  protected:
    Network &net_;
    Network &scratch_;
};

/**
 * The minibatch SGD loop: a Fisher-Yates shuffle per epoch, then per
 * batch the step's hook, forward, softmax cross-entropy,
 * backward and a momentum update of the step's targets; the learning
 * rate decays after each epoch. The run holds a dnn::SplitScope of
 * cfg.numThreads participants, so the step's layer ops, fault-map
 * packs and the update split by output.
 *
 * @param cfg validated SGD configuration.
 * @param step the per-batch step.
 * @param train_set training data.
 * @param rng shuffling randomness.
 * @param grad_clip element-wise gradient clamp (0 = off).
 * @param weight_clip element-wise weight clamp after each update
 *        (0 = off).
 * @return per-epoch loss/accuracy.
 */
std::vector<EpochStats> runSgd(const TrainConfig &cfg, BatchStep &step,
                               const Dataset &train_set, Rng &rng,
                               double grad_clip = 0.0,
                               double weight_clip = 0.0);

/**
 * runSgd()'s update of n elements, per element in this exact order
 * (trained weights are part of the bitwise contract):
 *
 *     g = clamp(grad, -grad_clip, grad_clip)            if grad_clip > 0
 *     velocity = float(momentum * velocity - lr * g)    in double
 *     value = value + velocity                          in float
 *     value = clamp(value, -weight_clip, weight_clip)   if weight_clip > 0
 *
 * Four elements at a time on SSE2, with the same double operations.
 */
void momentumUpdate(float *value, float *velocity, const float *grad,
                    std::size_t n, double momentum, double lr,
                    float grad_clip, float weight_clip);

/** Minibatch SGD with classical momentum. */
class SgdTrainer
{
  public:
    explicit SgdTrainer(TrainConfig cfg = {});

    /**
     * Train the network in place.
     *
     * @param net network to train.
     * @param train_set training data.
     * @param rng shuffling randomness.
     * @return per-epoch loss/accuracy.
     */
    std::vector<EpochStats> train(Network &net, const Dataset &train_set,
                                  Rng &rng);

    /**
     * Top-1 accuracy of `net` on `test_set`, evaluated in batches.
     *
     * @param max_samples cap on evaluated samples (0 = all).
     */
    static double evaluate(Network &net, const Dataset &test_set,
                           std::size_t max_samples = 0);

    const TrainConfig &config() const { return cfg_; }

  private:
    TrainConfig cfg_;
};

} // namespace vboost::dnn

#endif // VBOOST_DNN_TRAINER_HPP
