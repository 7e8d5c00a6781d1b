#include "recovery/input_transform.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "dnn/layers.hpp"
#include "dnn/serialize.hpp"
#include "recovery/recovery.hpp"

namespace vboost::recovery {

void
TransformConfig::validate() const
{
    if (inputDim < 1)
        fatal("TransformConfig: inputDim must be positive (got ",
              inputDim, ")");
    if (hiddenDim < 1)
        fatal("TransformConfig: hiddenDim must be positive (got ",
              hiddenDim, ")");
    if (alpha <= 0.0 || alpha > 1.0)
        fatal("TransformConfig: alpha must be in (0, 1] (got ", alpha,
              ")");
}

InputTransform::InputTransform(TransformConfig cfg) : cfg_(cfg)
{
    cfg_.validate();
    Rng rng(cfg_.initSeed);
    net_.addLayer<dnn::Dense>(cfg_.inputDim, cfg_.hiddenDim, rng,
                              "tf_fc1");
    net_.addLayer<dnn::Relu>("tf_relu");
    net_.addLayer<dnn::Dense>(cfg_.hiddenDim, cfg_.inputDim, rng,
                              "tf_fc2");
}

dnn::Tensor
InputTransform::apply(const dnn::Tensor &x, bool train)
{
    if (x.rank() != 2 || x.dim(1) != cfg_.inputDim)
        fatal("InputTransform::apply: input ", x.shapeString(),
              " does not match [B, ", cfg_.inputDim, "]");
    dnn::Tensor t = net_.forward(x, train);
    const auto alpha = static_cast<float>(cfg_.alpha);
    dnn::Tensor raw = dnn::Tensor::uninitialized(x.shape());
    dnn::Tensor y = dnn::Tensor::uninitialized(x.shape());
    for (std::size_t e = 0; e < x.numel(); ++e) {
        const float r = x[e] + alpha * t[e];
        raw[e] = r;
        y[e] = std::clamp(r, 0.0f, 1.0f);
    }
    if (train)
        lastRaw_ = std::move(raw);
    return y;
}

dnn::Tensor
InputTransform::backward(const dnn::Tensor &grad_out)
{
    if (lastRaw_.numel() != grad_out.numel())
        fatal("InputTransform::backward: no cached apply(train=true) "
              "pass for this batch shape");
    const auto alpha = static_cast<float>(cfg_.alpha);
    // Gradient passes where the clamp is inactive; saturated elements
    // are pinned at the bound, so their gradient is zero (exact, not
    // straight-through: the residual keeps most elements interior).
    dnn::Tensor pass = dnn::Tensor::uninitialized(grad_out.shape());
    for (std::size_t e = 0; e < grad_out.numel(); ++e) {
        pass[e] = (lastRaw_[e] > 0.0f && lastRaw_[e] < 1.0f)
                      ? grad_out[e]
                      : 0.0f;
    }
    dnn::Tensor gt = dnn::Tensor::uninitialized(grad_out.shape());
    for (std::size_t e = 0; e < grad_out.numel(); ++e)
        gt[e] = alpha * pass[e];
    dnn::Tensor gx = net_.backward(gt);
    // The identity path of the residual adds the passed gradient.
    for (std::size_t e = 0; e < gx.numel(); ++e)
        gx[e] += pass[e];
    return gx;
}

std::uint64_t
InputTransform::macsPerSample() const
{
    return 2ull * static_cast<std::uint64_t>(cfg_.inputDim) *
           static_cast<std::uint64_t>(cfg_.hiddenDim);
}

std::uint64_t
InputTransform::accessesPerSample(int elems_per_access) const
{
    if (elems_per_access < 1)
        fatal("InputTransform::accessesPerSample: elems_per_access "
              "must be positive");
    const auto in = static_cast<std::uint64_t>(cfg_.inputDim);
    const auto h = static_cast<std::uint64_t>(cfg_.hiddenDim);
    // Streamed int16 elements: both weight matrices once, the input
    // read, the hidden activation written and read back, the output
    // written (biases ride along with the weights).
    const std::uint64_t elems = 2 * in * h + 2 * in + 2 * h;
    const auto per = static_cast<std::uint64_t>(elems_per_access);
    return (elems + per - 1) / per;
}

std::size_t
InputTransform::parameterCount()
{
    std::size_t n = 0;
    for (const auto &p : net_.params())
        n += p.value->numel();
    return n;
}

void
InputTransform::save(const std::string &path)
{
    dnn::saveParameters(net_, path);
}

bool
InputTransform::load(const std::string &path)
{
    return dnn::loadParameters(net_, path);
}

void
TransformTrainConfig::validate() const
{
    if (failProb < 0.0 || failProb > 1.0)
        fatal("TransformTrainConfig: failProb must be in [0,1] (got ",
              failProb, ")");
    if (flipProb < 0.0 || flipProb > 1.0)
        fatal("TransformTrainConfig: flipProb must be in [0,1] (got ",
              flipProb, ")");
    if (warmupEpochs < 0)
        fatal("TransformTrainConfig: warmupEpochs must be >= 0 (got ",
              warmupEpochs, ")");
    if (gradClip < 0.0)
        fatal("TransformTrainConfig: gradClip must be >= 0 (got ",
              gradClip, ")");
    base.validate();
}

std::uint64_t
TransformTrainStats::digest() const
{
    std::uint64_t h = kFnvOffset;
    for (const auto &e : epochs) {
        h = fnvMixDouble(h, e.meanLoss);
        h = fnvMixDouble(h, e.trainAccuracy);
    }
    h = fnvMix(h, batches);
    h = fnvMix(h, bitFlips);
    return h;
}

TransformTrainer::TransformTrainer(TransformTrainConfig cfg)
    : cfg_(std::move(cfg))
{
    cfg_.validate();
}

void
TransformTrainer::attachObservability(obs::Observability *o,
                                      obs::Labels labels)
{
    obs_ = o;
    labels_ = std::move(labels);
}

namespace {

/** Trains the transform through the frozen base: each batch corrupts
 *  the scratch copy of the base under a fresh map (the transform must
 *  transfer across chips, never memorize one chip's broken cells),
 *  then runs tf.apply -> corrupted base; only the transform's
 *  parameters are updated. */
class TransformStep : public dnn::BatchStep
{
  public:
    TransformStep(const TransformTrainConfig &cfg, InputTransform &tf,
                  dnn::Network &base, dnn::Network &scratch,
                  TransformTrainStats &stats)
        : cfg_(cfg), tf_(tf), base_(base), scratch_(scratch),
          stats_(stats)
    {
        spec_.flipProb = cfg_.flipProb;
    }

    std::vector<dnn::ParamRef>
    targets() override
    {
        return tf_.network().params();
    }

    void
    beforeBatch(int epoch, std::uint64_t batch) override
    {
        if (epoch < cfg_.warmupEpochs) {
            // Warm-up epochs run the float base weights unstaged.
            scratch_.copyParamsFrom(base_);
        } else {
            const sram::VulnerabilityMap map(cfg_.seed, batch);
            Rng flip_rng = Rng(cfg_.seed).split(batch);
            stats_.bitFlips += fi::corruptNetwork(
                scratch_, base_, map, cfg_.failProb, spec_, cfg_.layout,
                flip_rng);
        }
        ++stats_.batches;
    }

    dnn::Tensor
    forward(const dnn::Tensor &images) override
    {
        return scratch_.forward(tf_.apply(images, /*train=*/true),
                                /*train=*/true);
    }

    void
    backward(const dnn::Tensor &grad) override
    {
        // The base is frozen: its backward pass only transports the
        // gradient to the transform's output.
        tf_.backward(scratch_.backward(grad));
    }

  private:
    const TransformTrainConfig &cfg_;
    InputTransform &tf_;
    dnn::Network &base_;
    dnn::Network &scratch_;
    TransformTrainStats &stats_;
    fi::InjectionSpec spec_ = fi::InjectionSpec::allWeights();
};

} // namespace

TransformTrainStats
TransformTrainer::train(InputTransform &tf, dnn::Network &base,
                        dnn::Network &scratch,
                        const dnn::Dataset &train_set, Rng &rng)
{
    if (base.params().size() != scratch.params().size())
        fatal("TransformTrainer: base and scratch structure mismatch");

    TransformTrainStats stats;
    TransformStep step(cfg_, tf, base, scratch, stats);
    stats.epochs =
        dnn::runSgd(cfg_.base, step, train_set, rng, cfg_.gradClip);

    if (obs_ != nullptr) {
        obs_->metrics.counter("recovery.fuse.batches", labels_)
            .add(stats.batches);
        obs_->metrics.counter("recovery.fuse.bit_flips", labels_)
            .add(stats.bitFlips);
        if (!stats.epochs.empty()) {
            obs_->metrics.gauge("recovery.fuse.final_loss", labels_)
                .set(stats.epochs.back().meanLoss);
            obs_->metrics
                .gauge("recovery.fuse.final_train_accuracy", labels_)
                .set(stats.epochs.back().trainAccuracy);
        }
    }
    return stats;
}

} // namespace vboost::recovery
