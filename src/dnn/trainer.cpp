#include "dnn/trainer.hpp"

#include <algorithm>
#include <numeric>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "dnn/split.hpp"

namespace vboost::dnn {

void
TrainConfig::validate() const
{
    if (epochs < 1 || batchSize < 1)
        fatal("TrainConfig: epochs and batch size must be positive");
    if (learningRate <= 0.0)
        fatal("TrainConfig: learning rate must be positive");
    if (momentum < 0.0 || momentum >= 1.0)
        fatal("TrainConfig: momentum must be in [0,1)");
    if (numThreads < 0)
        fatal("TrainConfig: numThreads must be >= 0 (got ", numThreads,
              ")");
}

namespace {

/** One target's update operands. */
struct UpdateSpan
{
    float *velocity;
    float *value;
    const float *grad;
    std::size_t size;
};

std::vector<UpdateSpan>
updateSpans(const std::vector<ParamRef> &targets,
            std::vector<Tensor> &velocity)
{
    std::vector<UpdateSpan> spans;
    for (std::size_t p = 0; p < targets.size(); ++p)
        spans.push_back({velocity[p].data(), targets[p].value->data(),
                         targets[p].grad->data(),
                         targets[p].value->numel()});
    return spans;
}

} // namespace

void
momentumUpdate(float *value, float *velocity, const float *grad,
               std::size_t n, double momentum, double lr, float grad_clip,
               float weight_clip)
{
    std::size_t e = 0;
#if defined(__SSE2__)
    // MAXPS and MINPS return their second operand when either is NaN,
    // so min(hi, max(lo, x)) is std::clamp(x, lo, hi) for every x.
    const auto clamp = [](__m128 x, float limit) {
        return _mm_min_ps(_mm_set1_ps(limit),
                          _mm_max_ps(_mm_set1_ps(-limit), x));
    };
    const __m128d mom = _mm_set1_pd(momentum);
    const __m128d rate = _mm_set1_pd(lr);
    // float(momentum * v - lr * g) for two lanes, in double.
    const auto step = [mom, rate](__m128 v, __m128 g) {
        return _mm_cvtpd_ps(
            _mm_sub_pd(_mm_mul_pd(mom, _mm_cvtps_pd(v)),
                       _mm_mul_pd(rate, _mm_cvtps_pd(g))));
    };
    for (; e + 4 <= n; e += 4) {
        __m128 g = _mm_loadu_ps(grad + e);
        if (grad_clip > 0.0f)
            g = clamp(g, grad_clip);
        const __m128 v = _mm_loadu_ps(velocity + e);
        const __m128 nv = _mm_movelh_ps(
            step(v, g), step(_mm_movehl_ps(v, v), _mm_movehl_ps(g, g)));
        _mm_storeu_ps(velocity + e, nv);
        __m128 w = _mm_add_ps(_mm_loadu_ps(value + e), nv);
        if (weight_clip > 0.0f)
            w = clamp(w, weight_clip);
        _mm_storeu_ps(value + e, w);
    }
#endif
    for (; e < n; ++e) {
        float ge = grad[e];
        if (grad_clip > 0.0f)
            ge = std::clamp(ge, -grad_clip, grad_clip);
        velocity[e] = static_cast<float>(momentum * velocity[e] - lr * ge);
        value[e] += velocity[e];
        if (weight_clip > 0.0f)
            value[e] = std::clamp(value[e], -weight_clip, weight_clip);
    }
}

std::vector<ParamRef>
NetworkStep::targets()
{
    auto params = net_.params();
    const auto grads = scratch_.params();
    if (params.size() != grads.size())
        fatal("NetworkStep: net and scratch structure mismatch");
    for (std::size_t p = 0; p < params.size(); ++p)
        params[p].grad = grads[p].grad;
    return params;
}

Tensor
NetworkStep::forward(const Tensor &images)
{
    return scratch_.forward(images, /*train=*/true);
}

void
NetworkStep::backward(const Tensor &grad)
{
    scratch_.backwardParams(grad);
}

std::vector<EpochStats>
runSgd(const TrainConfig &cfg, BatchStep &step, const Dataset &train_set,
       Rng &rng, double grad_clip, double weight_clip)
{
    if (train_set.size() == 0)
        fatal("runSgd: empty training set");
    const SplitScope split(ThreadPool::resolveThreads(cfg.numThreads));

    const auto targets = step.targets();
    std::vector<Tensor> velocity;
    velocity.reserve(targets.size());
    for (const auto &t : targets)
        velocity.push_back(Tensor::zeros(t.value->shape()));

    SoftmaxCrossEntropy loss_fn;
    std::vector<std::size_t> order(train_set.size());
    std::iota(order.begin(), order.end(), 0);

    const auto gclip = static_cast<float>(grad_clip);
    const auto wclip = static_cast<float>(weight_clip);
    const auto batch_size = static_cast<std::size_t>(cfg.batchSize);
    std::vector<EpochStats> stats;
    double lr = cfg.learningRate;
    std::uint64_t batch_index = 0;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        // Fisher-Yates shuffle with our deterministic generator.
        for (std::size_t i = order.size(); i > 1; --i) {
            const std::size_t j = rng.uniformInt(i);
            std::swap(order[i - 1], order[j]);
        }

        double loss_sum = 0.0;
        std::size_t correct = 0, seen = 0, batches = 0;
        for (std::size_t start = 0; start < order.size();
             start += batch_size) {
            const std::size_t count =
                std::min(batch_size, order.size() - start);
            std::vector<std::size_t> idx(
                order.begin() + static_cast<long>(start),
                order.begin() + static_cast<long>(start + count));
            Dataset batch = train_set.gather(idx);

            step.beforeBatch(epoch, batch_index++);
            Tensor logits = step.forward(batch.images);
            Tensor grad;
            loss_sum += loss_fn.lossAndGrad(logits, batch.labels, grad);
            ++batches;
            step.backward(grad);

            // Track train accuracy from the logits already computed.
            for (int i = 0; i < logits.dim(0); ++i) {
                int best = 0;
                for (int j = 1; j < logits.dim(1); ++j) {
                    if (logits.at(i, j) > logits.at(i, best))
                        best = j;
                }
                correct += best == batch.labels[static_cast<std::size_t>(i)];
                ++seen;
            }

            // The clamps bound fault-induced gradient outliers and keep
            // weights inside the deployment Q-format range. The update
            // splits by element ranges of the targets' concatenation.
            const std::vector<UpdateSpan> spans =
                updateSpans(targets, velocity);
            std::size_t total = 0;
            for (const UpdateSpan &s : spans)
                total += s.size;
            const double momentum = cfg.momentum;
            const unsigned parts = splitParts(total, kMinElemsPerPart);
            // Part p writes only its element range of each target's
            // value and velocity.
            parallelFor(
                parts, static_cast<int>(parts),
                [&spans, parts, total, momentum, lr, gclip,
                 wclip](std::size_t part, unsigned) {
                    const auto [begin, end] = partRange(
                        total, parts, static_cast<unsigned>(part));
                    std::size_t base = 0;
                    for (const UpdateSpan &s : spans) {
                        const std::size_t lo =
                            std::clamp(begin, base, base + s.size) - base;
                        const std::size_t hi =
                            std::clamp(end, base, base + s.size) - base;
                        base += s.size;
                        momentumUpdate(s.value + lo, s.velocity + lo,
                                       s.grad + lo, hi - lo, momentum, lr,
                                       gclip, wclip);
                    }
                });
        }

        EpochStats es;
        es.meanLoss = loss_sum / static_cast<double>(batches);
        es.trainAccuracy =
            static_cast<double>(correct) / static_cast<double>(seen);
        stats.push_back(es);
        lr *= cfg.lrDecay;
    }
    return stats;
}

SgdTrainer::SgdTrainer(TrainConfig cfg) : cfg_(cfg)
{
    cfg_.validate();
}

std::vector<EpochStats>
SgdTrainer::train(Network &net, const Dataset &train_set, Rng &rng)
{
    NetworkStep step(net, net);
    return runSgd(cfg_, step, train_set, rng);
}

double
SgdTrainer::evaluate(Network &net, const Dataset &test_set,
                     std::size_t max_samples)
{
    std::size_t n = test_set.size();
    if (max_samples > 0)
        n = std::min(n, max_samples);
    if (n == 0)
        fatal("SgdTrainer::evaluate: empty test set");

    // Small batches keep the whole interlayer activation chain
    // L2-resident (a conv1 output alone is 64 KB/image), which
    // matters more than amortizing per-layer call overhead; results
    // are bitwise independent of the batch split (each image's
    // forward only reads its own rows).
    constexpr std::size_t kEvalBatch = 8;
    std::size_t correct = 0;
    for (std::size_t start = 0; start < n; start += kEvalBatch) {
        const std::size_t count = std::min(kEvalBatch, n - start);
        Dataset batch = test_set.slice(start, count);
        const auto pred = net.predict(batch.images);
        for (std::size_t i = 0; i < count; ++i)
            correct += pred[i] == batch.labels[i];
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

} // namespace vboost::dnn
