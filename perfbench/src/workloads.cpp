#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "accel/dataflow.hpp"
#include "accel/perf_model.hpp"
#include "cluster/cluster.hpp"
#include "common/logging.hpp"
#include "core/context.hpp"
#include "core/tradeoff.hpp"
#include "dnn/dataset.hpp"
#include "dnn/quantize.hpp"
#include "dnn/zoo.hpp"
#include "fi/accuracy_curve.hpp"
#include "fi/experiment.hpp"
#include "fi/fault_training.hpp"
#include "model_cache.hpp"
#include "recovery/map_aware_trainer.hpp"
#include "recovery/recovery.hpp"
#include "serve/planner.hpp"
#include "serve/trace.hpp"
#include "sram/failure_model.hpp"

namespace vboost::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** The VLV supply grid of the paper's Figs. 13-15. */
const std::vector<Volt> kVlvGrid{Volt(0.34), Volt(0.38), Volt(0.42),
                                 Volt(0.46), Volt(0.50)};

/** Accuracy bar of the modeled-energy metric: within 2 % of the
 *  model's fault-free accuracy (the recovery study's iso margin). */
constexpr double kIsoMargin = 0.02;

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

std::uint64_t
pointDigest(const fi::AccuracyPoint &p)
{
    std::uint64_t h = recovery::kFnvOffset;
    for (double v : {p.failProb, p.meanAccuracy, p.stddevAccuracy,
                     p.minAccuracy, p.maxAccuracy, p.meanBitFlips})
        h = recovery::fnvMixDouble(h, v);
    return h;
}

/**
 * Modeled energy per inference (µJ) at the cheapest (Vdd, boost level)
 * over `grid` whose accuracy clears `target` — the paper's joules per
 * inference at a required accuracy. Falls back to the top level at
 * the highest grid Vdd when no point clears the bar.
 */
double
isoAccuracyEnergyUj(const core::SimContext &ctx,
                    const accel::LayerActivity &activity, double target,
                    const core::TradeoffExplorer::AccuracyFn &accuracy,
                    const std::vector<Volt> &grid)
{
    const core::TradeoffExplorer explorer(ctx, 16);
    const accel::PerformanceModel perf(ctx, 16);
    double best = std::numeric_limits<double>::infinity();
    for (Volt vdd : grid) {
        if (const auto level =
                explorer.minimalLevelForAccuracy(vdd, target, accuracy)) {
            best = std::min(best, perf.evaluate(activity, vdd, *level,
                                                accel::SupplyMode::Boosted)
                                      .totalEnergy.value());
        }
    }
    if (!std::isfinite(best)) {
        best = perf.evaluate(activity, grid.back(), explorer.levels(),
                             accel::SupplyMode::Boosted)
                   .totalEnergy.value();
    }
    return best * 1e6;
}

accel::LayerActivity
mnistFcActivity()
{
    return accel::totalActivity(
        accel::DanaFcModel().networkActivity(dnn::mnistFcLayerSizes()));
}

std::vector<GemmShape>
mnistFcGemms(int batch)
{
    std::vector<GemmShape> shapes;
    const std::vector<int> sizes = dnn::mnistFcLayerSizes();
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
        shapes.push_back({batch, sizes[i], sizes[i + 1]});
    return shapes;
}

std::string
fmt(double v, int digits = 4)
{
    std::ostringstream os;
    os.precision(digits);
    os << v;
    return os.str();
}

// ---- fig14_mc ------------------------------------------------------

class Fig14Mc final : public Workload
{
  public:
    static constexpr int kMaps = 16;
    static constexpr int kTestImages = 300;
    static constexpr int kPoints = 12;

    Fig14Mc(std::uint64_t seed, const std::string &cache_dir)
        : seed_(seed),
          net_(loadCachedModel(alexNetSpec(), cache_dir)),
          test_(dnn::makeSyntheticCifar(kTestImages, deriveSeed(seed, 1))),
          runner_(net_, test_, runnerConfig(seed))
    {
        // Geometric failure-probability grid 1e-5 ... 0.24.
        for (int i = 0; i < kPoints; ++i) {
            grid_.push_back(1e-5 * std::pow(0.24 / 1e-5,
                                            static_cast<double>(i) /
                                                (kPoints - 1)));
        }
        faultFree_ = runner_.baselineAccuracy();
    }

    std::size_t itemsPerUnit() const override { return kPoints; }

    UnitOutcome
    runUnit(SpanRecorder &rec, DigestChecker &chk) override
    {
        UnitOutcome u;
        for (int i = 0; i < kPoints; ++i) {
            ++u.attempted;
            const auto t0 = Clock::now();
            fi::AccuracyPoint p;
            {
                SpanRecorder::Scope span(rec, "fi.mc_point");
                p = runner_.run(grid_[static_cast<std::size_t>(i)],
                                fi::InjectionSpec::allWeights());
            }
            pointSeconds_.push_back(secondsSince(t0));
            if (!chk.check(static_cast<std::size_t>(i), pointDigest(p)))
                ++u.failed;
            if (accuracy_.size() < kPoints)
                accuracy_.push_back(p.meanAccuracy);
        }
        return u;
    }

    void
    endToEnd(Metrics &m, std::vector<std::string> &notes) const override
    {
        // Medians over units, so a transient host stall in one unit
        // does not move the figure.
        std::vector<double> rates;
        for (double s : pointSeconds_)
            rates.push_back(static_cast<double>(kMaps) * kTestImages / s);
        const double ips = median(rates);
        const Summary point = summarize(pointSeconds_);
        m["host_items_per_s"] = {ips, "1/s"};
        m["host_unit_ms_p50"] = {point.median * 1e3, "ms"};
        m["accuracy"] = {sum(accuracy_) / kPoints, "ratio"};

        const fi::AccuracyCurve curve(grid_, accuracy_, faultFree_);
        const auto ctx = core::SimContext::standard();
        const sram::FailureRateModel frm(ctx.failure);
        const double uj = isoAccuracyEnergyUj(
            ctx,
            accel::totalActivity(accel::EyerissRsModel().networkActivity(
                dnn::alexNetCifarConvDims())),
            faultFree_ - kIsoMargin,
            [&](Volt vddv) { return curve.at(frm.rate(vddv)); }, kVlvGrid);
        m["modeled_uj_per_inference"] = {uj, "uJ"};

        notes.push_back("mc_inferences_per_s = " + fmt(ips, 6) +
                        " 1/s (" + std::to_string(kMaps) + " maps x " +
                        std::to_string(kTestImages) + " images x " +
                        std::to_string(pointSeconds_.size()) + " points)");
        std::vector<double> ms;
        for (double s : pointSeconds_)
            ms.push_back(s * 1e3);
        notes.push_back("mc_point_ms = " + describe(summarize(ms), 1));
        notes.push_back("fault_free_accuracy = " + fmt(faultFree_));
    }

    void
    perLayer(const SpanRecorder &rec, Metrics &m) const override
    {
        m["fi.mc_point_s"] = {median(rec.durations("fi.mc_point")), "s"};
    }

    ProbeInputs
    probeInputs() override
    {
        ProbeInputs in;
        in.model = &net_;
        in.data = &test_;
        in.forwardBatch = 8; // the Monte-Carlo evaluation batch
        for (const dnn::ConvLayerDims &d : dnn::alexNetCifarConvDims()) {
            in.gemmShapes.push_back({d.outChannels,
                                     d.inChannels * d.kernel * d.kernel,
                                     d.outHeight * d.outWidth});
        }
        in.activity = accel::totalActivity(
            accel::EyerissRsModel().networkActivity(
                dnn::alexNetCifarConvDims()));
        const sram::FailureRateModel frm(core::SimContext::standard().failure);
        const fi::AccuracyCurve curve(grid_, accuracy_, faultFree_);
        in.accuracyAt = [curve, frm](Volt v) { return curve.at(frm.rate(v)); };
        in.faultFreeAccuracy = faultFree_;
        in.stageVdds = {{Volt(0.42), 0}};
        in.seed = deriveSeed(seed_, 9);
        in.measured = {"fi.mc_point"};
        return in;
    }

  private:
    static fi::ExperimentConfig
    runnerConfig(std::uint64_t seed)
    {
        fi::ExperimentConfig cfg;
        cfg.numMaps = kMaps;
        cfg.maxTestSamples = 0; // every test image
        cfg.numThreads = kWorkloadThreads;
        cfg.seed = deriveSeed(seed, 2);
        return cfg;
    }

    std::uint64_t seed_;
    dnn::Network net_;
    dnn::Dataset test_;
    fi::FaultInjectionRunner runner_;
    std::vector<double> grid_;
    double faultFree_ = 0.0;
    std::vector<double> pointSeconds_;
    /** Mean accuracy per grid point (first sweep; later sweeps are
     *  digest-checked to be identical). */
    std::vector<double> accuracy_;
};

// ---- serve_cluster -------------------------------------------------

class ServeCluster final : public Workload
{
  public:
    static constexpr int kShards = 4;
    static constexpr int kReplicas = 3;
    static constexpr int kWindowRequests = 64;
    static constexpr int kWindows = 8;
    static constexpr int kPoolSize = 1000;

    ServeCluster(std::uint64_t seed, const std::string &cache_dir)
        : seed_(seed), ctx_(core::SimContext::standard()),
          net_(loadCachedModel(mnistFcSpec(), cache_dir)),
          pool_(dnn::makeSyntheticMnist(kPoolSize, deriveSeed(seed, 1))),
          perInference_(mnistFcActivity())
    {
        const sram::FailureRateModel frm(ctx_.failure);
        fi::ExperimentConfig fcfg;
        fcfg.numMaps = 4;
        fcfg.maxTestSamples = 256;
        fcfg.numThreads = kWorkloadThreads;
        fcfg.seed = deriveSeed(seed, 2);
        fi::FaultInjectionRunner runner(net_, pool_, fcfg);
        curve_.emplace(fi::AccuracyCurve::sample(
            runner, fi::InjectionSpec::allWeights(), 1e-5, 0.3, 8));
        const fi::AccuracyCurve curve = *curve_;
        accuracyAt_ = [curve, frm](Volt v) { return curve.at(frm.rate(v)); };

        serve::InferenceFootprint fp;
        fp.weightAccesses = perInference_.weightAccesses;
        fp.inputAccesses = perInference_.inputAccesses;
        fp.psumAccesses = perInference_.psumAccesses;
        fp.computeOps = perInference_.macs;
        planner_.emplace(ctx_, 16, accuracyAt_, curve.faultFree(), fp);

        serve::TraceConfig tcfg;
        tcfg.requestsPerTick = 40000.0 / 1e6; // 40k rps offered
        tcfg.numRequests =
            static_cast<std::size_t>(kWindows) * kWindowRequests;
        tcfg.seed = deriveSeed(seed, 3);
        tcfg.tenants = serve::scaledTenantMix(24).tenants;
        tcfg.samplePoolSize = pool_.size();
        trace_ = serve::generatePoissonTrace(tcfg);

        cfg_.shards = kShards;
        cfg_.replicas = kReplicas;
        cfg_.epochRequests = kWindowRequests;
        cfg_.shardQueueCapacity = static_cast<std::size_t>(
            std::max(4, kWindowRequests / kShards));
        cfg_.node.numThreads = kWorkloadThreads;
        cfg_.node.queueCapacity = kWindowRequests;
        cfg_.node.batcher.maxWaitTicks = 4000;
        cfg_.node.seed = deriveSeed(seed, 4);
        cfg_.failover.downEpochs = 1;
        cfg_.lossEvents = {{1, 0}};
        cfg_.validate();
    }

    std::size_t itemsPerUnit() const override { return kWindows; }

    UnitOutcome
    runUnit(SpanRecorder &rec, DigestChecker &chk) override
    {
        UnitOutcome u;
        const bool first = windowSeconds_.empty();
        cluster::ServingCluster cl(ctx_, net_, pool_, perInference_,
                                   *planner_, cfg_);
        for (int w = 0; w < kWindows; ++w) {
            ++u.attempted;
            const auto begin = trace_.begin() + w * kWindowRequests;
            const std::vector<serve::InferenceRequest> window(
                begin, begin + kWindowRequests);
            const auto t0 = Clock::now();
            cluster::ClusterResult r;
            {
                SpanRecorder::Scope span(rec, "cluster.window");
                r = cl.run(window);
            }
            windowSeconds_.push_back(secondsSince(t0));
            const cluster::ClusterStats &s = r.stats;
            windowRates_.push_back(static_cast<double>(s.total.admitted) /
                                   windowSeconds_.back());
            if (!chk.check(static_cast<std::size_t>(w), s.fingerprint()))
                ++u.failed;
            if (first)
                accountFirstReplay(r);
        }
        return u;
    }

    void
    endToEnd(Metrics &m, std::vector<std::string> &notes) const override
    {
        const double rps = median(windowRates_);
        std::vector<double> ms;
        for (double s : windowSeconds_)
            ms.push_back(s * 1e3);
        const Summary window = summarize(ms);
        const auto &t = first_.total;
        const double inferences = static_cast<double>(t.inferences);
        m["host_items_per_s"] = {rps, "1/s"};
        m["host_unit_ms_p50"] = {window.median, "ms"};
        m["accuracy"] = {static_cast<double>(t.correct) / inferences,
                         "ratio"};
        m["modeled_uj_per_inference"] = {t.energyPj / inferences * 1e-6,
                                         "uJ"};

        notes.push_back("serve_requests_per_s = " + fmt(rps, 6) + " 1/s");
        notes.push_back("serve_window_ms = " + describe(window, 1));
        notes.push_back("modeled_p95_latency_ms = " +
                        fmt(percentile(latencyMs_, 0.95), 6) +
                        " ms (simulated clock, " +
                        std::to_string(latencyMs_.size()) + " requests)");
        notes.push_back("shed_ratio = " + fmt(shedRatio(), 6) + " (" +
                        std::to_string(first_.requests) +
                        " offered requests)");
        notes.push_back("served batches per replay = " +
                        std::to_string(t.batches));
    }

    void
    perLayer(const SpanRecorder &, Metrics &m) const override
    {
        const double requests = static_cast<double>(first_.requests);
        m["serve.mean_batch_size"] = {
            static_cast<double>(first_.total.inferences) /
                static_cast<double>(std::max<std::uint64_t>(
                    first_.total.batches, 1)),
            "count"};
        m["cluster.spill_ratio"] = {
            static_cast<double>(first_.routedSpill) / requests, "ratio"};
        m["cluster.failover_ratio"] = {
            static_cast<double>(first_.routedFailover) / requests, "ratio"};
        m["cluster.shed_ratio"] = {shedRatio(), "ratio"};
    }

    ProbeInputs
    probeInputs() override
    {
        ProbeInputs in;
        in.model = &net_;
        in.data = &pool_;
        const auto batch = static_cast<int>(std::lround(
            static_cast<double>(first_.total.inferences) /
            static_cast<double>(std::max<std::uint64_t>(
                first_.total.batches, 1))));
        in.forwardBatch = std::max(batch, 1);
        in.gemmShapes = mnistFcGemms(in.forwardBatch);
        in.activity = perInference_;
        in.accuracyAt = accuracyAt_;
        in.faultFreeAccuracy = curve_->faultFree();
        // The base plan of every SLO class: the operating points the
        // windows stage their weights at.
        serve::OperatingPointPlanner planner = *planner_;
        std::set<std::pair<double, int>> points;
        for (int c = 0; c < serve::kNumSloClasses; ++c) {
            const serve::OperatingPlan &plan = planner.planFor(
                "probe", static_cast<serve::SloClass>(c));
            points.insert({plan.vdd.value(), plan.weightLevel});
        }
        for (const auto &[vdd, level] : points)
            in.stageVdds.push_back({Volt(vdd), level});
        in.seed = deriveSeed(seed_, 9);
        return in;
    }

  private:
    /** Accumulate the modeled accounting of the first replay (later
     *  replays are digest-checked to be identical). */
    void
    accountFirstReplay(const cluster::ClusterResult &r)
    {
        const cluster::ClusterStats &s = r.stats;
        first_.requests += s.requests;
        first_.routedSpill += s.routedSpill;
        first_.routedFailover += s.routedFailover;
        first_.shedCluster += s.shedCluster;
        auto &t = first_.total;
        t.admitted += s.total.admitted;
        t.shedQueueFull += s.total.shedQueueFull;
        t.shedTenantQuota += s.total.shedTenantQuota;
        t.batches += s.total.batches;
        t.inferences += s.total.inferences;
        t.correct += s.total.correct;
        t.energyPj += s.total.energyPj;
        for (const serve::RequestOutcome &o : r.outcomes) {
            if (o.admitted) {
                latencyMs_.push_back(
                    static_cast<double>(o.completionTick - o.arrivalTick) /
                    1e3);
            }
        }
    }

    double
    shedRatio() const
    {
        const auto &t = first_.total;
        return static_cast<double>(first_.shedCluster + t.shedQueueFull +
                                   t.shedTenantQuota) /
               static_cast<double>(first_.requests);
    }

    std::uint64_t seed_;
    core::SimContext ctx_;
    dnn::Network net_;
    dnn::Dataset pool_;
    accel::LayerActivity perInference_;
    std::optional<fi::AccuracyCurve> curve_;
    std::function<double(Volt)> accuracyAt_;
    std::optional<serve::OperatingPointPlanner> planner_;
    std::vector<serve::InferenceRequest> trace_;
    cluster::ClusterConfig cfg_;

    std::vector<double> windowSeconds_;
    /** Admitted requests per host second, per window. */
    std::vector<double> windowRates_;
    /** Accounting summed over the first replay's windows. */
    cluster::ClusterStats first_;
    std::vector<double> latencyMs_;
};

// ---- matic_train ---------------------------------------------------

class MaticTrain final : public Workload
{
  public:
    static constexpr int kTrainImages = 4000;
    static constexpr int kTestImages = 400;
    static constexpr int kEpochs = 1;
    static constexpr int kEvalReads = 6;

    MaticTrain(std::uint64_t seed, const std::string &cache_dir)
        : seed_(seed), ctx_(core::SimContext::standard()),
          frm_(ctx_.failure),
          base_(loadCachedModel(mnistFcSpec(), cache_dir)),
          train_(dnn::makeSyntheticMnist(kTrainImages, deriveSeed(seed, 1))),
          test_(dnn::makeSyntheticMnist(kTestImages, deriveSeed(seed, 2))),
          deployProb_(frm_.rate(Volt(0.454))),
          matic_(buildModel(mnistFcSpec()))
    {}

    std::size_t itemsPerUnit() const override { return 3; }

    UnitOutcome
    runUnit(SpanRecorder &rec, DigestChecker &chk) override
    {
        UnitOutcome u;
        const auto round0 = Clock::now();
        const bool first = roundSeconds_.empty();

        // MATIC: fine-tune the deployed model against ONE frozen chip map.
        recovery::MapAwareConfig mcfg;
        mcfg.train = trainConfig(deriveSeed(seed_, 3));
        mcfg.curriculumEpochs = 0;
        mcfg.chipSeed = deriveSeed(seed_, 4);
        recovery::MapAwareTrainer mat(mcfg);
        matic_.copyParamsFrom(base_);
        dnn::Network scratch = buildModel(mnistFcSpec());
        Rng rng_m(deriveSeed(seed_, 5));
        recovery::MapAwareStats stats;
        auto t0 = Clock::now();
        {
            SpanRecorder::Scope span(rec, "recovery.matic_train");
            stats = mat.train(matic_, scratch, train_, rng_m);
        }
        double train_s = secondsSince(t0);
        dnn::clipParameters(matic_, 0.5f);
        ++u.attempted;
        if (!chk.check(0, recovery::fnvMix(stats.digest(),
                                           recovery::weightsDigest(matic_))))
            ++u.failed;

        // Fault-aware: the same budget against fresh per-batch maps.
        fi::FaultAwareTrainer fat(trainConfig(deriveSeed(seed_, 6)));
        dnn::Network fa = buildModel(mnistFcSpec());
        fa.copyParamsFrom(base_);
        Rng rng_f(deriveSeed(seed_, 7));
        std::vector<dnn::EpochStats> epochs;
        t0 = Clock::now();
        {
            SpanRecorder::Scope span(rec, "fi.fault_train");
            epochs = fat.train(fa, scratch, train_, rng_f);
        }
        train_s += secondsSince(t0);
        dnn::clipParameters(fa, 0.5f);
        std::uint64_t fa_digest = recovery::weightsDigest(fa);
        for (const dnn::EpochStats &e : epochs) {
            fa_digest = recovery::fnvMixDouble(
                recovery::fnvMixDouble(fa_digest, e.meanLoss),
                e.trainAccuracy);
        }
        ++u.attempted;
        if (!chk.check(1, fa_digest))
            ++u.failed;

        // Chip evaluation of the MATIC model on its own chip, at the
        // deployment rate and along the boost ladder at 0.34 V.
        recovery::ChipEvalConfig ecfg;
        ecfg.numReads = kEvalReads;
        ecfg.maxTestSamples = kTestImages;
        ecfg.numThreads = kWorkloadThreads;
        recovery::ChipEvaluator eval(matic_, test_, mat.chipMap(), ecfg);
        std::uint64_t eval_digest = recovery::kFnvOffset;
        const auto evaluate = [&](double fail_prob) {
            SpanRecorder::Scope span(rec, "recovery.chip_eval");
            const recovery::ChipAccuracy a = eval.evaluate(fail_prob);
            eval_digest = recovery::fnvMix(eval_digest, a.digest);
            return a.meanAccuracy;
        };
        const double deployed = evaluate(deployProb_);
        const double clean = eval.baselineAccuracy();
        std::map<double, double> memo;
        const double uj = isoAccuracyEnergyUj(
            ctx_, mnistFcActivity(), clean - kIsoMargin,
            [&](Volt vddv) {
                const double f = frm_.rate(vddv);
                auto it = memo.find(f);
                if (it == memo.end())
                    it = memo.emplace(f, evaluate(f)).first;
                return it->second;
            },
            {Volt(0.34)});
        ++u.attempted;
        if (!chk.check(2, recovery::fnvMixDouble(
                              recovery::fnvMixDouble(eval_digest, clean), uj)))
            ++u.failed;

        trainSeconds_.push_back(train_s);
        roundSeconds_.push_back(secondsSince(round0));
        if (first) {
            accuracy_ = deployed;
            energyUj_ = uj;
            flipsPerBatch_ =
                static_cast<double>(stats.bitFlips) /
                static_cast<double>(std::max<std::uint64_t>(stats.batches, 1));
        }
        return u;
    }

    void
    endToEnd(Metrics &m, std::vector<std::string> &notes) const override
    {
        std::vector<double> rates;
        for (double s : trainSeconds_)
            rates.push_back(2.0 * kEpochs * kTrainImages / s);
        const double sps = median(rates);
        std::vector<double> ms;
        for (double s : roundSeconds_)
            ms.push_back(s * 1e3);
        const Summary round = summarize(ms);
        m["host_items_per_s"] = {sps, "1/s"};
        m["host_unit_ms_p50"] = {round.median, "ms"};
        m["accuracy"] = {accuracy_, "ratio"};
        m["modeled_uj_per_inference"] = {energyUj_, "uJ"};

        notes.push_back("train_samples_per_s = " + fmt(sps, 6) +
                        " 1/s (both trainers, " + std::to_string(kEpochs) +
                        " epoch x " + std::to_string(kTrainImages) +
                        " images each)");
        notes.push_back("round_ms = " + describe(round, 1));
        notes.push_back("deployment fail prob = " + fmt(deployProb_));
    }

    void
    perLayer(const SpanRecorder &rec, Metrics &m) const override
    {
        m["recovery.matic_epoch_s"] = {
            median(rec.durations("recovery.matic_train")) / kEpochs, "s"};
        m["fi.fault_train_epoch_s"] = {
            median(rec.durations("fi.fault_train")) / kEpochs, "s"};
        std::vector<double> eval_ms;
        for (double s : rec.durations("recovery.chip_eval"))
            eval_ms.push_back(s * 1e3);
        m["recovery.chip_eval_ms"] = {median(eval_ms), "ms"};
        m["recovery.flips_per_batch"] = {flipsPerBatch_, "count"};
    }

    ProbeInputs
    probeInputs() override
    {
        ProbeInputs in;
        in.model = &matic_;
        in.data = &train_;
        in.forwardBatch = 64; // the training minibatch
        in.gemmShapes = mnistFcGemms(64);
        in.activity = mnistFcActivity();
        in.accuracyAt = [](Volt) { return 1.0; };
        in.faultFreeAccuracy = 1.0;
        in.stageVdds = {{Volt(0.454), 0}};
        in.failProb = deployProb_;
        in.seed = deriveSeed(seed_, 9);
        in.measured = {"recovery.matic_train", "fi.fault_train",
                       "recovery.chip_eval"};
        return in;
    }

  private:
    fi::FaultTrainConfig
    trainConfig(std::uint64_t flip_seed) const
    {
        fi::FaultTrainConfig cfg;
        cfg.base.epochs = kEpochs;
        cfg.warmupEpochs = 0;
        cfg.failProb = deployProb_;
        cfg.seed = flip_seed;
        return cfg;
    }

    std::uint64_t seed_;
    core::SimContext ctx_;
    sram::FailureRateModel frm_;
    dnn::Network base_;
    dnn::Dataset train_;
    dnn::Dataset test_;
    double deployProb_;
    /** The latest MATIC model (the probes' model). */
    dnn::Network matic_;
    std::vector<double> trainSeconds_;
    std::vector<double> roundSeconds_;
    double accuracy_ = 0.0;
    double energyUj_ = 0.0;
    double flipsPerBatch_ = 0.0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"fig14_mc", "serve_cluster",
                                                "matic_train"};
    return names;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    return Rng(seed).split(stream).next();
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &cache_dir)
{
    if (name == "fig14_mc")
        return std::make_unique<Fig14Mc>(seed, cache_dir);
    if (name == "serve_cluster")
        return std::make_unique<ServeCluster>(seed, cache_dir);
    if (name == "matic_train")
        return std::make_unique<MaticTrain>(seed, cache_dir);
    fatal("unknown workload '", name, "'");
}

} // namespace vboost::perfbench
