#include "fi/fault_training.hpp"

#include "common/logging.hpp"

namespace vboost::fi {

void
FaultTrainConfig::validate() const
{
    if (failProb < 0.0 || failProb > 1.0)
        fatal("FaultTrainConfig: failProb must be in [0,1] (got ",
              failProb, ")");
    if (flipProb < 0.0 || flipProb > 1.0)
        fatal("FaultTrainConfig: flipProb must be in [0,1] (got ",
              flipProb, ")");
    if (warmupEpochs < 0)
        fatal("FaultTrainConfig: warmupEpochs must be >= 0 (got ",
              warmupEpochs, ")");
    if (gradClip < 0.0)
        fatal("FaultTrainConfig: gradClip must be >= 0 (got ", gradClip,
              ")");
    if (weightClip < 0.0)
        fatal("FaultTrainConfig: weightClip must be >= 0 (got ",
              weightClip, ")");
    base.validate();
}

namespace {

/** Corrupts the scratch weights under a fresh vulnerability map every
 *  batch: robustness to the rate, not to one set of broken cells. */
class FreshMapStep : public dnn::NetworkStep
{
  public:
    FreshMapStep(const FaultTrainConfig &cfg, dnn::Network &net,
                 dnn::Network &scratch)
        : NetworkStep(net, scratch), cfg_(cfg)
    {
        spec_.flipProb = cfg_.flipProb;
    }

    void
    beforeBatch(int epoch, std::uint64_t batch) override
    {
        // Warm-up epochs are plain float SGD: the weights unstaged.
        if (epoch < cfg_.warmupEpochs) {
            scratch_.copyParamsFrom(net_);
            return;
        }
        const sram::VulnerabilityMap map(cfg_.seed, batch);
        Rng flip_rng = Rng(cfg_.seed).split(batch);
        corruptNetwork(scratch_, net_, map, cfg_.failProb, spec_,
                       cfg_.layout, flip_rng);
    }

  private:
    const FaultTrainConfig &cfg_;
    InjectionSpec spec_ = InjectionSpec::allWeights();
};

} // namespace

FaultAwareTrainer::FaultAwareTrainer(FaultTrainConfig cfg) : cfg_(cfg)
{
    cfg_.validate();
}

std::vector<dnn::EpochStats>
FaultAwareTrainer::train(dnn::Network &net, dnn::Network &scratch,
                         const dnn::Dataset &train_set, Rng &rng)
{
    FreshMapStep step(cfg_, net, scratch);
    return dnn::runSgd(cfg_.base, step, train_set, rng, cfg_.gradClip,
                       cfg_.weightClip);
}

} // namespace vboost::fi
