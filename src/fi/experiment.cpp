#include "fi/experiment.hpp"

#include <algorithm>
#include <optional>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "obs/scope.hpp"
#include "sram/cell_hash.hpp"

namespace vboost::fi {

namespace {

/**
 * Forward the evaluation set through `net` with every layer-output
 * element executed as one op on the timing-speculative datapath.
 * An op whose replay budget exhausts commits a corrupted result: one
 * deterministic bit flip (cellHash(corrupt_key, op) % 16) applied to
 * the element through its int16 storage format — the same fault
 * primitive the SRAM side uses. Serial in sample order so the
 * datapath's monitors and ladder evolve §7-deterministically.
 */
double
evaluateWithTimingFaults(dnn::Network &net, const dnn::Dataset &set,
                         timing::SpeculativeDatapath &dp,
                         std::uint64_t corrupt_key)
{
    // Matches SgdTrainer::evaluate's batching so fault-free timing
    // runs reproduce its accuracy exactly.
    constexpr std::size_t kBatch = 8;

    // Layers with parameters are the MAC datapath; stateless layers
    // (activations, reshapes) issue no ops.
    std::vector<char> isCompute(net.size(), 0);
    for (std::size_t l = 0; l < net.size(); ++l)
        isCompute[l] = !net.layer(l).params().empty();

    std::uint64_t op = 0;
    std::size_t correct = 0;
    std::vector<std::uint64_t> corrupted;
    for (std::size_t b = 0; b < set.size(); b += kBatch) {
        const std::size_t n = std::min(kBatch, set.size() - b);
        const dnn::Dataset batch = set.slice(b, n);
        dnn::Tensor x = batch.images;
        for (std::size_t l = 0; l < net.size(); ++l) {
            x = net.layer(l).forward(x, /*train=*/false);
            if (!isCompute[l])
                continue;
            const std::uint64_t base = op;
            corrupted.clear();
            dp.executeOps(base, x.numel(), corrupted);
            op += x.numel();
            if (corrupted.empty())
                continue;
            const FixedPointCodec codec = dnn::chooseCodec(x);
            for (std::uint64_t off : corrupted) {
                float &v = x[static_cast<std::size_t>(off)];
                const int bit = static_cast<int>(
                    sram::detail::cellHash(corrupt_key, base + off) %
                    16);
                v = codec.decode(
                    FixedPointCodec::flipBit(codec.encode(v), bit));
            }
        }
        // x is the [n, classes] logits tensor; argmax vs labels.
        const int classes = x.dim(1);
        for (std::size_t i = 0; i < n; ++i) {
            int best = 0;
            for (int c = 1; c < classes; ++c) {
                if (x.at(static_cast<int>(i), c) >
                    x.at(static_cast<int>(i), best))
                    best = c;
            }
            correct += best == batch.labels[i] ? 1u : 0u;
        }
    }
    return static_cast<double>(correct) /
           static_cast<double>(set.size());
}

/**
 * Counter-stream bases of the experiment kinds (DESIGN.md §7): map m
 * of a kind draws its randomness from base + m, so a map's numbers
 * depend only on (seed, kind, m) and no two kinds share a stream.
 */
namespace stream {
constexpr std::uint64_t kInject = 1000;         // run, sweepVoltage
constexpr std::uint64_t kPerLayer = 2000;       // runPerLayer
constexpr std::uint64_t kEcc = 3000;            // runWithEcc
constexpr std::uint64_t kResilient = 4000;      // runResilient
constexpr std::uint64_t kTiming = 5000;         // runTiming's datapath
constexpr std::uint64_t kCombinedSram = 6000;   // runCombined's SRAM
constexpr std::uint64_t kCombinedTiming = 7000; // runCombined's datapath
} // namespace stream

/** The validated injection's prototype datapath. */
timing::SpeculativeDatapath
prototype(const core::SimContext &ctx, const TimingInjection &inj)
{
    inj.params.validate();
    inj.policy.validate();
    return {ctx.tech, inj.params, inj.policy, inj.vLogic, inj.clock};
}

} // namespace

FaultInjectionRunner::FaultInjectionRunner(dnn::Network &net,
                                           const dnn::Dataset &test_set,
                                           ExperimentConfig cfg)
    : net_(net), cfg_(cfg)
{
    if (cfg_.numMaps < 1)
        fatal("FaultInjectionRunner: at least one fault map required");
    if (cfg_.numThreads < 0)
        fatal("FaultInjectionRunner: negative thread count ",
              cfg_.numThreads);
    if (test_set.size() == 0)
        fatal("FaultInjectionRunner: empty test set");
    std::size_t n = test_set.size();
    if (cfg_.maxTestSamples > 0 && cfg_.maxTestSamples < n)
        n = cfg_.maxTestSamples;
    evalSet_ = test_set.slice(0, n);
}

void
FaultInjectionRunner::attachObservability(obs::Observability *o,
                                          std::uint64_t trace_pid,
                                          obs::Labels labels)
{
    obs_ = o;
    obsPid_ = trace_pid;
    obsLabels_ = std::move(labels);
}

void
FaultInjectionRunner::recordTrials(const std::string &kind,
                                   const std::vector<MapResult> &results)
{
    if (!obs_)
        return;
    obs::MetricsRegistry &reg = obs_->metrics;
    const obs::Labels kind_labels =
        obs::withBase({{"kind", kind}}, obsLabels_);
    obs::Counter trials = reg.counter("fi.trials", kind_labels);
    obs::Counter flips = reg.counter("fi.bit_flips", kind_labels);
    obs::Histogram accuracy = reg.histogram(
        "fi.trial.accuracy", obs::linearBounds(0.0, 1.0, 21), kind_labels);
    for (const MapResult &r : results) {
        trials.add(1);
        flips.add(r.bitFlips);
        accuracy.observe(r.accuracy);
        // One virtual tick per trial: spans line up in map order on
        // the trial clock regardless of worker scheduling.
        const std::uint64_t ts = trialClock_.now();
        trialClock_.advance(1);
        obs_->trace.complete(
            obsPid_, 0, "fi." + kind, ts, 1,
            {{"accuracy", r.accuracy},
             {"bit_flips", static_cast<double>(r.bitFlips)}});
    }
}

sram::VulnerabilityMap
FaultInjectionRunner::makeMap(std::uint64_t m) const
{
    // Both models share the same counter-based stream key, so the
    // i.i.d. fail-prob draws are identical between them and the
    // clustered model differs only in its per-cell stratum.
    if (cfg_.mapModel == sram::MapModel::Iid)
        return sram::VulnerabilityMap(cfg_.seed, m);
    return sram::VulnerabilityMap(cfg_.seed, m, cfg_.mapModel,
                                  cfg_.cluster);
}

void
FaultInjectionRunner::ensureScratch(unsigned count)
{
    while (scratch_.size() < count)
        scratch_.push_back(
            std::make_unique<dnn::Network>(net_.clone()));
}

/**
 * The resilient-staging step of runResilient and runCombined. Each
 * map is one device instance: fresh banked weight memory, monitors,
 * standing levels and spare table, with its per-access flips drawn
 * from streamBase + m.
 */
struct FaultInjectionRunner::ResilientStep
{
    ResilientStep(const FaultInjectionRunner &owner, const char *caller,
                  Volt v, const core::SimContext &c,
                  const resilience::ResiliencePolicy &p,
                  std::uint64_t stream_base)
        : runner(owner), vdd(v), ctx(c), policy(p), streamBase(stream_base),
          failure(c.failure)
    {
        // Dante's weight memory: the layout's weight region split
        // into 64 Kbit banks (16 for the 128 KB default).
        banks = static_cast<int>(runner.cfg_.layout.weightRegionBits /
                                 sram::SramBank::kBits);
        if (banks < 1)
            fatal(caller, ": weight region smaller than one bank");
        // Every map stages the same weights: quantize and encode once.
        image = stageWeights(runner.net_);
    }

    /** Stage map m's weights into `scratch`: sets bitFlips, res,
     *  resEnergy and the memory's metrics. */
    void
    operator()(std::uint64_t m, dnn::Network &scratch, MapResult &r) const
    {
        sram::BankedMemory mem("weight_mem", banks, ctx.design, ctx.tech,
                               failure);
        resilience::ResilientMemory rmem(mem, ctx, policy);
        rmem.reseed(Rng(runner.cfg_.seed).split(streamBase + m));
        r.bitFlips = corruptNetworkResilient(scratch, runner.net_, image,
                                             rmem, vdd, runner.makeMap(m));
        r.res = rmem.snapshot();
        r.resEnergy = rmem.totalAccessEnergy();
        if (runner.obs_)
            rmem.exportMetrics(r.metrics, runner.obsLabels_);
    }

    /** Map-order SRAM counters and per-map means (the caller fills
     *  `point`); energy and latency keep separate sum chains. */
    ResilientAccuracyPoint
    reduce(const std::vector<MapResult> &results) const
    {
        ResilientAccuracyPoint out;
        double energy_sum = 0.0;
        double latency_sum = 0.0;
        for (const auto &r : results) {
            out.stats.merge(r.res);
            energy_sum += r.resEnergy.value();
            latency_sum += r.res.retryLatency.value();
        }
        const auto n = static_cast<double>(results.size());
        out.meanAccessEnergy = Joule(energy_sum / n);
        out.meanRetryLatency = Second(latency_sum / n);
        return out;
    }

    const FaultInjectionRunner &runner;
    Volt vdd;
    const core::SimContext &ctx;
    const resilience::ResiliencePolicy &policy;
    std::uint64_t streamBase;
    sram::FailureRateModel failure;
    int banks = 0;
    StagedWeights image;
};

/**
 * The timing-evaluation step of runTiming and runCombined: every
 * layer-output element of the staged network is one op on the
 * speculative datapath. Each map is one device instance: a copy of
 * the untouched prototype (fresh monitors and ladder position) whose
 * violation hashes are keyed by streamBase + m.
 */
struct FaultInjectionRunner::TimingStep
{
    /** Evaluate map m on the staged `scratch`: sets accuracy, tim and
     *  the datapath's metrics, and adds the corrupted commits to
     *  bitFlips. */
    void
    operator()(std::uint64_t m, dnn::Network &scratch, MapResult &r) const
    {
        timing::SpeculativeDatapath dp = proto;
        const std::uint64_t key = sram::detail::mix64(
            runner.cfg_.seed ^ sram::detail::mix64(streamBase + m));
        dp.reseed(key);
        // The corrupted-commit bit positions hash off a key salted
        // from the datapath key, so the two streams never collide.
        r.accuracy = evaluateWithTimingFaults(
            scratch, runner.evalSet_, dp,
            sram::detail::mix64(key ^ 0x2545f4914f6cdd1dull));
        r.tim = dp.stats();
        // "Bit flips" on the timing side = corrupted commits that
        // reached inference (one flipped bit each).
        r.bitFlips += r.tim.corrupted;
        if (runner.obs_)
            dp.exportMetrics(r.metrics, runner.obsLabels_);
    }

    /** Map-order datapath counters, per-map means and the operating
     *  point (the caller fills `point`); energy and latency keep
     *  separate sum chains. */
    TimingAccuracyPoint
    reduce(const std::vector<MapResult> &results) const
    {
        TimingAccuracyPoint out;
        const double period = proto.effectivePeriod().value();
        double energy_sum = 0.0;
        double latency_sum = 0.0;
        for (const auto &r : results) {
            out.stats.merge(r.tim);
            energy_sum += r.tim.logicEnergy.value();
            latency_sum +=
                static_cast<double>(r.tim.replayCycles +
                                    r.tim.bubbleCycles) *
                period;
        }
        const auto n = static_cast<double>(results.size());
        out.meanLogicEnergy = Joule(energy_sum / n);
        out.meanReplayLatency = Second(latency_sum / n);
        out.cycleStretch = proto.cycleStretch();
        out.safeVoltage = proto.safeVoltage();
        return out;
    }

    const FaultInjectionRunner &runner;
    const core::SimContext &ctx;
    const TimingInjection &inj;
    std::uint64_t streamBase;
    /** Gives the derived operating-point quantities (safe rail,
     *  initial-rail error probability, cycle stretch) and each map's
     *  datapath; never executes ops itself. */
    timing::SpeculativeDatapath proto = prototype(ctx, inj);
};

std::vector<FaultInjectionRunner::MapResult>
FaultInjectionRunner::trials(
    const std::string &kind, std::size_t jobs,
    const std::function<void(std::size_t, dnn::Network &, MapResult &)>
        &evaluate)
{
    // Spans the fan-out, recordTrials and the metrics merge.
    std::optional<obs::ScopeTimer> timer;
    if (obs_) {
        timer.emplace(obs_->metrics, "fi.run", trialClock_,
                      obs::withBase({{"kind", kind}}, obsLabels_));
    }
    const unsigned threads =
        ThreadPool::resolveThreads(cfg_.numThreads);
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs, threads));
    ensureScratch(std::max(1u, workers));

    std::vector<MapResult> results(jobs);
    // Job j deposits into results[j]; the dynamic schedule never
    // affects the output because reduction happens in job order.
    parallelFor(jobs, static_cast<int>(workers),
                // vblint: allow(VB009, job j writes only results[j]; scratch is slot-exclusive)
                [&](std::size_t j, unsigned slot) {
                    evaluate(j, *scratch_[slot], results[j]);
                });

    recordTrials(kind, results);
    // Each job exported into its own registry (reading obsLabels_
    // only); merging them here keeps the §7 map order.
    if (obs_) {
        for (const MapResult &r : results)
            obs_->metrics.merge(r.metrics);
    }
    return results;
}

AccuracyPoint
FaultInjectionRunner::reduce(std::span<const MapResult> results,
                             double fail_prob, sram::EccStats *stats)
{
    // Deterministic reduction: one singleton accumulator per map,
    // merged in map order (Chan et al.), so the outcome is a pure
    // function of the map results — not of the thread count.
    RunningStats acc;
    RunningStats flips;
    for (const auto &r : results) {
        RunningStats a, f;
        a.add(r.accuracy);
        f.add(static_cast<double>(r.bitFlips));
        acc.merge(a);
        flips.merge(f);
        if (stats)
            stats->merge(r.ecc);
    }

    AccuracyPoint p;
    p.failProb = fail_prob;
    p.meanAccuracy = acc.mean();
    p.stddevAccuracy = acc.stddev();
    p.minAccuracy = acc.min();
    p.maxAccuracy = acc.max();
    p.meanBitFlips = flips.mean();
    return p;
}

void
FaultInjectionRunner::stageFaultFree(dnn::Network &scratch)
{
    // At fail_prob 0 corruptNetwork only round-trips the weights
    // through int16 and draws nothing, so neither the map nor the
    // stream matters.
    Rng rng(cfg_.seed);
    corruptNetwork(scratch, net_, makeMap(0), /*fail_prob=*/0.0,
                   InjectionSpec::allWeights(), cfg_.layout, rng);
}

double
FaultInjectionRunner::baselineAccuracy()
{
    // The fault-free ceiling (what "maximum accuracy" means in
    // Fig. 2): the network as a zero-rate run stages it.
    ensureScratch(1);
    stageFaultFree(*scratch_[0]);
    return dnn::SgdTrainer::evaluate(*scratch_[0], evalSet_, 0);
}

std::vector<AccuracyPoint>
FaultInjectionRunner::injectSweep(const std::string &kind,
                                  const std::vector<double> &rates,
                                  const InjectionSpec &spec)
{
    // One flat job grid over (rate, map), maps innermost: sweeps with
    // few maps per point still fill every worker, and every rate's
    // map m draws what a one-rate run's map m draws.
    const std::size_t maps = static_cast<std::size_t>(cfg_.numMaps);
    const auto results = trials(
        kind, rates.size() * maps,
        [&](std::size_t j, dnn::Network &scratch, MapResult &r) {
            const std::uint64_t m = j % maps;
            const double fail_prob = rates[j / maps];
            const sram::VulnerabilityMap map = makeMap(m);
            Rng rng = Rng(cfg_.seed).split(stream::kInject + m);
            r.bitFlips = corruptNetwork(scratch, net_, map, fail_prob, spec,
                                        cfg_.layout, rng);
            if (spec.injectInputs) {
                dnn::Tensor corrupted =
                    corruptInputs(evalSet_.images, map, fail_prob,
                                  spec.flipProb, cfg_.layout, rng);
                r.accuracy = scratch.accuracy(corrupted, evalSet_.labels);
            } else {
                r.accuracy = dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
            }
        });

    std::vector<AccuracyPoint> out;
    out.reserve(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i)
        out.push_back(reduce(std::span(results).subspan(i * maps, maps),
                             rates[i]));
    return out;
}

AccuracyPoint
FaultInjectionRunner::run(double fail_prob, const InjectionSpec &spec)
{
    return injectSweep("inject", {fail_prob}, spec).front();
}

AccuracyPoint
FaultInjectionRunner::runPerLayer(const std::vector<double> &fail_by_layer,
                                  double flip_prob)
{
    const auto results = trials(
        "per_layer", static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch, MapResult &r) {
            Rng rng = Rng(cfg_.seed).split(stream::kPerLayer + m);
            r.bitFlips = corruptNetworkPerLayer(scratch, net_, makeMap(m),
                                                fail_by_layer, flip_prob,
                                                cfg_.layout, rng);
            r.accuracy = dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
        });
    double max_f = 0.0;
    for (double f : fail_by_layer)
        max_f = std::max(max_f, f);
    return reduce(results, max_f);
}

AccuracyPoint
FaultInjectionRunner::runWithEcc(double fail_prob, double flip_prob,
                                 sram::EccStats *stats)
{
    const auto results = trials(
        "ecc", static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch, MapResult &r) {
            Rng rng = Rng(cfg_.seed).split(stream::kEcc + m);
            r.bitFlips =
                corruptNetworkEcc(scratch, net_, makeMap(m), fail_prob,
                                  flip_prob, cfg_.layout, rng, &r.ecc);
            r.accuracy = dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
        });
    return reduce(results, fail_prob, stats);
}

ResilientAccuracyPoint
FaultInjectionRunner::runResilient(Volt vdd, const core::SimContext &ctx,
                                   const resilience::ResiliencePolicy &policy)
{
    const ResilientStep stage(*this, "runResilient", vdd, ctx, policy,
                              stream::kResilient);
    const auto results = trials(
        "resilient", static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch, MapResult &r) {
            stage(m, scratch, r);
            r.accuracy = dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
        });
    ResilientAccuracyPoint out = stage.reduce(results);
    out.point = reduce(results, stage.failure.rate(vdd));
    out.point.voltage = vdd;
    return out;
}

TimingAccuracyPoint
FaultInjectionRunner::runTiming(const core::SimContext &ctx,
                                const TimingInjection &inj)
{
    const TimingStep datapath{*this, ctx, inj, stream::kTiming};
    const auto results = trials(
        "timing", static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch, MapResult &r) {
            // The SRAM is clean; only the datapath misbehaves.
            stageFaultFree(scratch);
            datapath(m, scratch, r);
        });
    TimingAccuracyPoint out = datapath.reduce(results);
    out.point = reduce(results, datapath.proto.currentOpErrorProb());
    out.point.voltage = inj.vLogic;
    return out;
}

CombinedAccuracyPoint
FaultInjectionRunner::runCombined(Volt v_sram,
                                  const core::SimContext &ctx,
                                  const resilience::ResiliencePolicy &policy,
                                  const TimingInjection &inj)
{
    const TimingStep datapath{*this, ctx, inj, stream::kCombinedTiming};
    const ResilientStep stage(*this, "runCombined", v_sram, ctx, policy,
                              stream::kCombinedSram);
    const auto results = trials(
        "combined", static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch, MapResult &r) {
            stage(m, scratch, r);
            datapath(m, scratch, r);
        });

    const ResilientAccuracyPoint s = stage.reduce(results);
    const TimingAccuracyPoint t = datapath.reduce(results);
    CombinedAccuracyPoint out;
    out.point = reduce(results, stage.failure.rate(v_sram));
    out.point.voltage = v_sram;
    out.sram = s.stats;
    out.timing = t.stats;
    out.meanSramEnergy = s.meanAccessEnergy;
    out.meanLogicEnergy = t.meanLogicEnergy;
    out.meanRetryLatency = s.meanRetryLatency;
    out.meanReplayLatency = t.meanReplayLatency;
    out.cycleStretch = t.cycleStretch;
    out.safeVoltage = t.safeVoltage;
    return out;
}

AccuracyPoint
FaultInjectionRunner::runAtVoltage(Volt v,
                                   const sram::FailureRateModel &model,
                                   const InjectionSpec &spec)
{
    AccuracyPoint p = run(model.rate(v), spec);
    p.voltage = v;
    return p;
}

std::vector<AccuracyPoint>
FaultInjectionRunner::sweepVoltage(const std::vector<Volt> &voltages,
                                   const sram::FailureRateModel &model,
                                   const InjectionSpec &spec)
{
    std::vector<double> rates(voltages.size());
    for (std::size_t v = 0; v < voltages.size(); ++v)
        rates[v] = model.rate(voltages[v]);
    std::vector<AccuracyPoint> out = injectSweep("sweep", rates, spec);
    for (std::size_t v = 0; v < voltages.size(); ++v)
        out[v].voltage = voltages[v];
    return out;
}

} // namespace vboost::fi
