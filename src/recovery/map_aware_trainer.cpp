#include "recovery/map_aware_trainer.hpp"

#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "recovery/recovery.hpp"

namespace vboost::recovery {

void
MapAwareConfig::validate() const
{
    train.validate();
    if (refreshInterval < 0)
        fatal("MapAwareConfig: refreshInterval must be >= 0 (got ",
              refreshInterval, ")");
    if (curriculumEpochs < 0)
        fatal("MapAwareConfig: curriculumEpochs must be >= 0 (got ",
              curriculumEpochs, ")");
    if (curriculumStartScale <= 0.0 || curriculumStartScale > 1.0)
        fatal("MapAwareConfig: curriculumStartScale must be in (0,1] "
              "(got ", curriculumStartScale, ")");
    if (mapModel == sram::MapModel::Clustered)
        cluster.validate();
}

std::uint64_t
MapAwareStats::digest() const
{
    std::uint64_t h = kFnvOffset;
    for (const auto &e : epochs) {
        h = fnvMixDouble(h, e.meanLoss);
        h = fnvMixDouble(h, e.trainAccuracy);
    }
    h = fnvMix(h, batches);
    h = fnvMix(h, mapRefreshes);
    h = fnvMix(h, bitFlips);
    h = fnvMixDouble(h, finalInjectedProb);
    return h;
}

MapAwareTrainer::MapAwareTrainer(MapAwareConfig cfg)
    : cfg_(std::move(cfg)),
      map_(cfg_.chipSeed, cfg_.chipMapIndex, cfg_.mapModel,
           cfg_.cluster)
{
    cfg_.validate();
}

void
MapAwareTrainer::attachObservability(obs::Observability *o,
                                     obs::Labels labels)
{
    obs_ = o;
    labels_ = std::move(labels);
}

namespace {

/** Curriculum rate for an epoch after warm-up (before refresh
 *  gating). */
double
curriculumProb(const MapAwareConfig &cfg, int epoch)
{
    const int k = epoch - cfg.train.warmupEpochs;
    if (cfg.curriculumEpochs <= 0 || k >= cfg.curriculumEpochs)
        return cfg.train.failProb;
    // Geometric ramp: startScale * failProb at k = 0, failProb once
    // the curriculum completes — MATIC's staged supply lowering.
    const double t =
        static_cast<double>(k) / static_cast<double>(cfg.curriculumEpochs);
    return cfg.train.failProb * std::pow(cfg.curriculumStartScale, 1.0 - t);
}

/** Corrupts the scratch weights under the frozen chip map at the
 *  curriculum- and refresh-gated rate, and tallies the run's stats. */
class ChipMapStep : public dnn::NetworkStep
{
  public:
    ChipMapStep(const MapAwareConfig &cfg,
                const sram::VulnerabilityMap &map, MapAwareStats &stats,
                dnn::Network &net, dnn::Network &scratch)
        : NetworkStep(net, scratch), cfg_(cfg), map_(map), stats_(stats)
    {
        spec_.flipProb = cfg_.train.flipProb;
    }

    void
    beforeBatch(int epoch, std::uint64_t batch) override
    {
        ++stats_.batches;
        if (epoch < cfg_.train.warmupEpochs) {
            // Warm-up epochs are plain float SGD: the weights unstaged
            // (injectedProb_ is still 0 then).
            scratch_.copyParamsFrom(net_);
            return;
        }
        // The injected rate is frozen at its last profiled value and
        // only re-snapped to the curriculum at refresh points: training
        // between refreshes runs against a stale profile, like the
        // hardware flow.
        const bool due = !profiled_ || (cfg_.refreshInterval > 0 &&
                                        sinceRefresh_ >= cfg_.refreshInterval);
        if (due) {
            injectedProb_ = curriculumProb(cfg_, epoch);
            profiled_ = true;
            sinceRefresh_ = 0;
            ++stats_.mapRefreshes;
        } else {
            ++sinceRefresh_;
        }

        // The chip map is FROZEN; only the per-read flip stream is
        // counter-derived per batch, and the packed region image is
        // kept until a refresh or the curriculum changes the rate.
        Rng flip_rng = Rng(cfg_.train.seed).split(batch);
        image_.update(net_, map_, injectedProb_, cfg_.train.layout);
        stats_.bitFlips +=
            fi::corruptNetwork(scratch_, net_, map_, injectedProb_, spec_,
                               cfg_.train.layout, flip_rng, image_);
        stats_.finalInjectedProb = injectedProb_;
    }

  private:
    const MapAwareConfig &cfg_;
    const sram::VulnerabilityMap &map_;
    MapAwareStats &stats_;
    fi::InjectionSpec spec_ = fi::InjectionSpec::allWeights();
    fi::WeightRegionImage image_;
    double injectedProb_ = 0.0;
    bool profiled_ = false;
    int sinceRefresh_ = 0;
};

} // namespace

MapAwareStats
MapAwareTrainer::train(dnn::Network &net, dnn::Network &scratch,
                       const dnn::Dataset &train_set, Rng &rng)
{
    MapAwareStats stats;
    ChipMapStep step(cfg_, map_, stats, net, scratch);
    stats.epochs = dnn::runSgd(cfg_.train.base, step, train_set, rng,
                               cfg_.train.gradClip,
                               cfg_.train.weightClip);

    if (obs_ != nullptr) {
        obs_->metrics.counter("recovery.matic.batches", labels_)
            .add(stats.batches);
        obs_->metrics.counter("recovery.matic.map_refreshes", labels_)
            .add(stats.mapRefreshes);
        obs_->metrics.counter("recovery.matic.bit_flips", labels_)
            .add(stats.bitFlips);
        obs_->metrics
            .gauge("recovery.matic.final_injected_prob", labels_)
            .set(stats.finalInjectedProb);
        if (!stats.epochs.empty()) {
            obs_->metrics.gauge("recovery.matic.final_loss", labels_)
                .set(stats.epochs.back().meanLoss);
            obs_->metrics
                .gauge("recovery.matic.final_train_accuracy", labels_)
                .set(stats.epochs.back().trainAccuracy);
        }
    }
    return stats;
}

} // namespace vboost::recovery
