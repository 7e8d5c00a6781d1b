#include "recovery/recovery.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "dnn/trainer.hpp"

namespace vboost::recovery {

const char *
toString(RecoveryMode mode)
{
    switch (mode) {
    case RecoveryMode::None:
        return "none";
    case RecoveryMode::MapAware:
        return "map_aware";
    case RecoveryMode::InputTransform:
        return "input_transform";
    case RecoveryMode::Combined:
        return "combined";
    }
    return "unknown";
}

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t word)
{
    fnv::mixU64(h, word);
    return h;
}

std::uint64_t
fnvMixDouble(std::uint64_t h, double value)
{
    fnv::mixDouble(h, value);
    return h;
}

void
PlannedRecovery::validate() const
{
    if (mode != RecoveryMode::None && !accuracy)
        fatal("PlannedRecovery: mode ", toString(mode),
              " requires an accuracy curve");
    if (faultFreeAccuracy < 0.0 || faultFreeAccuracy > 1.0)
        fatal("PlannedRecovery: faultFreeAccuracy must be in [0,1] "
              "(got ", faultFreeAccuracy, ")");
}

std::uint64_t
weightsDigest(dnn::Network &net)
{
    std::uint64_t h = kFnvOffset;
    for (auto &p : net.params()) {
        const dnn::Tensor &t = *p.value;
        for (std::size_t e = 0; e < t.numel(); ++e) {
            std::uint32_t bits = 0;
            const float f = t[e];
            std::memcpy(&bits, &f, sizeof(bits));
            h = fnvMix(h, bits);
        }
    }
    return h;
}

void
ChipEvalConfig::validate() const
{
    if (numReads < 1)
        fatal("ChipEvalConfig: numReads must be >= 1 (got ", numReads,
              ")");
    if (flipProb < 0.0 || flipProb > 1.0)
        fatal("ChipEvalConfig: flipProb must be in [0,1] (got ",
              flipProb, ")");
    if (numThreads < 0)
        fatal("ChipEvalConfig: numThreads must be >= 0 (got ",
              numThreads, ")");
}

ChipEvaluator::ChipEvaluator(dnn::Network &net,
                             const dnn::Dataset &test_set,
                             sram::VulnerabilityMap map,
                             ChipEvalConfig cfg)
    : net_(net), map_(std::move(map)), cfg_(cfg)
{
    cfg_.validate();
    if (test_set.size() == 0)
        fatal("ChipEvaluator: empty test set");
    const std::size_t n =
        cfg_.maxTestSamples == 0
            ? test_set.size()
            : std::min(cfg_.maxTestSamples, test_set.size());
    evalSet_ = test_set.slice(0, n);
}

void
ChipEvaluator::attachObservability(obs::Observability *o,
                                   obs::Labels labels)
{
    obs_ = o;
    labels_ = std::move(labels);
}

void
ChipEvaluator::ensureScratch(unsigned count)
{
    while (scratch_.size() < count)
        scratch_.push_back(
            std::make_unique<dnn::Network>(net_.clone()));
}

double
ChipEvaluator::baselineAccuracy()
{
    // A zero-rate staging (the int16 round trip, no draws): the chip's
    // error-free ceiling (the iso-accuracy reference of the recovery
    // frontier).
    ensureScratch(1);
    Rng rng(cfg_.flipSeed);
    corruptNetwork(*scratch_[0], net_, map_, /*fail_prob=*/0.0,
                   fi::InjectionSpec::allWeights(), cfg_.layout, rng);
    return dnn::SgdTrainer::evaluate(*scratch_[0], evalSet_, 0);
}

ChipAccuracy
ChipEvaluator::evaluate(double fail_prob)
{
    return run(fail_prob, evalSet_.images, "base");
}

ChipAccuracy
ChipEvaluator::evaluateWithTransform(double fail_prob,
                                     InputTransform &tf)
{
    // The transform runs once, serially, on reliable (boosted) input
    // memory; only the weight reads below fault. See the header note
    // on the Table-2 input-floor assumption.
    const dnn::Tensor transformed =
        tf.apply(evalSet_.images, /*train=*/false);
    return run(fail_prob, transformed, "transform");
}

ChipAccuracy
ChipEvaluator::run(double fail_prob, const dnn::Tensor &inputs,
                   const char *kind)
{
    if (fail_prob < 0.0 || fail_prob > 1.0)
        fatal("ChipEvaluator: fail_prob must be in [0,1] (got ",
              fail_prob, ")");

    dnn::Dataset eval;
    eval.images = inputs;
    eval.labels = evalSet_.labels;

    const auto jobs = static_cast<std::size_t>(cfg_.numReads);
    const unsigned threads =
        ThreadPool::resolveThreads(cfg_.numThreads);
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs, threads));
    ensureScratch(std::max(1u, workers));

    auto spec = fi::InjectionSpec::allWeights();
    spec.flipProb = cfg_.flipProb;
    // Every read corrupts under the same frozen map at the same rate:
    // pack the weight region once and share it (read-only) with the
    // workers.
    fi::WeightRegionImage image;
    image.update(net_, map_, fail_prob, cfg_.layout);

    struct ReadResult
    {
        double accuracy = 0.0;
        std::uint64_t flips = 0;
    };
    std::vector<ReadResult> results(jobs);
    // Read r deposits into results[r]; the dynamic schedule never
    // affects the output because reduction happens in read order.
    parallelFor(jobs, static_cast<int>(workers),
                // vblint: allow(VB009, read r writes only results[r]; scratch is slot-exclusive)
                [&](std::size_t r, unsigned slot) {
                    dnn::Network &scratch = *scratch_[slot];
                    Rng flip_rng = Rng(cfg_.flipSeed).split(r);
                    ReadResult out;
                    out.flips = corruptNetwork(scratch, net_, map_,
                                               fail_prob, spec,
                                               cfg_.layout, flip_rng, image);
                    out.accuracy =
                        dnn::SgdTrainer::evaluate(scratch, eval, 0);
                    results[r] = out;
                });

    // Deterministic reduction in read order: the outcome is a pure
    // function of the per-read results, not of the thread count.
    RunningStats acc;
    RunningStats flips;
    std::uint64_t h = kFnvOffset;
    for (const auto &res : results) {
        acc.add(res.accuracy);
        flips.add(static_cast<double>(res.flips));
        h = fnvMixDouble(h, res.accuracy);
        h = fnvMix(h, res.flips);
    }

    ChipAccuracy out;
    out.meanAccuracy = acc.mean();
    out.stddevAccuracy = acc.stddev();
    out.minAccuracy = acc.min();
    out.maxAccuracy = acc.max();
    out.meanBitFlips = flips.mean();
    out.digest = h;

    if (obs_ != nullptr) {
        obs::Labels l = labels_;
        l["kind"] = kind;
        obs_->metrics.counter("recovery.eval.runs", l).add(1);
        obs_->metrics.counter("recovery.eval.reads", l).add(jobs);
        obs_->metrics.gauge("recovery.eval.mean_accuracy", l)
            .set(out.meanAccuracy);
        obs_->metrics.gauge("recovery.eval.mean_bit_flips", l)
            .set(out.meanBitFlips);
    }
    return out;
}

} // namespace vboost::recovery
