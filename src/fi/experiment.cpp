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

/** Stream key of map m's datapath violation hashes (base 5000 for
 *  runTiming, 7000 for runCombined; 1000-4000 belong to the SRAM
 *  experiment kinds). */
std::uint64_t
datapathKey(std::uint64_t seed, std::uint64_t base, std::uint64_t m)
{
    return sram::detail::mix64(seed ^ sram::detail::mix64(base + m));
}

/** Key of the corrupted-commit bit-position stream, salted off the
 *  datapath key so the two streams never collide. */
std::uint64_t
corruptKey(std::uint64_t dp_key)
{
    return sram::detail::mix64(dp_key ^ 0x2545f4914f6cdd1dull);
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

obs::Labels
FaultInjectionRunner::withBase(obs::Labels extra) const
{
    // insert() keeps existing keys, so the explicit labels win over
    // the attached base labels.
    extra.insert(obsLabels_.begin(), obsLabels_.end());
    return extra;
}

void
FaultInjectionRunner::recordTrials(const std::string &kind,
                                   const std::vector<MapResult> &results)
{
    if (!obs_)
        return;
    obs::MetricsRegistry &reg = obs_->metrics;
    const obs::Labels kind_labels = withBase({{"kind", kind}});
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

std::vector<FaultInjectionRunner::MapResult>
FaultInjectionRunner::runMaps(
    std::size_t jobs,
    const std::function<MapResult(std::size_t, dnn::Network &)> &evaluate)
{
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
                    results[j] = evaluate(j, *scratch_[slot]);
                });
    return results;
}

AccuracyPoint
FaultInjectionRunner::reduce(const std::vector<MapResult> &results,
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

double
FaultInjectionRunner::baselineAccuracy()
{
    // Quantization round trip with no faults: the accelerator's
    // error-free ceiling (what "maximum accuracy" means in Fig. 2).
    ensureScratch(1);
    dnn::Network &scratch = *scratch_[0];
    const sram::VulnerabilityMap map = makeMap(0);
    Rng rng(cfg_.seed);
    InjectionSpec spec;
    spec.injectWeights = true;
    corruptNetwork(scratch, net_, map, /*fail_prob=*/0.0, spec,
                   cfg_.layout, rng);
    return dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
}

AccuracyPoint
FaultInjectionRunner::run(double fail_prob, const InjectionSpec &spec)
{
    std::optional<obs::ScopeTimer> timer;
    if (obs_) {
        timer.emplace(obs_->metrics, "fi.run", trialClock_,
                      withBase({{"kind", "inject"}}));
    }
    const auto results = runMaps(
        static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch) {
            const sram::VulnerabilityMap map =
                makeMap(static_cast<std::uint64_t>(m));
            Rng rng = Rng(cfg_.seed).split(
                1000 + static_cast<std::uint64_t>(m));
            MapResult r;
            r.bitFlips = corruptNetwork(scratch, net_, map, fail_prob,
                                        spec, cfg_.layout, rng);
            if (spec.injectInputs) {
                dnn::Tensor corrupted = corruptInputs(
                    evalSet_.images, map, fail_prob, spec.flipProb,
                    cfg_.layout, rng);
                r.accuracy =
                    scratch.accuracy(corrupted, evalSet_.labels);
            } else {
                r.accuracy =
                    dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
            }
            return r;
        });
    recordTrials("inject", results);
    return reduce(results, fail_prob);
}

AccuracyPoint
FaultInjectionRunner::runPerLayer(const std::vector<double> &fail_by_layer,
                                  double flip_prob)
{
    std::optional<obs::ScopeTimer> timer;
    if (obs_) {
        timer.emplace(obs_->metrics, "fi.run", trialClock_,
                      withBase({{"kind", "per_layer"}}));
    }
    const auto results = runMaps(
        static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch) {
            const sram::VulnerabilityMap map =
                makeMap(static_cast<std::uint64_t>(m));
            Rng rng = Rng(cfg_.seed).split(
                2000 + static_cast<std::uint64_t>(m));
            MapResult r;
            r.bitFlips = corruptNetworkPerLayer(scratch, net_, map,
                                                fail_by_layer, flip_prob,
                                                cfg_.layout, rng);
            r.accuracy = dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
            return r;
        });
    recordTrials("per_layer", results);
    double max_f = 0.0;
    for (double f : fail_by_layer)
        max_f = std::max(max_f, f);
    return reduce(results, max_f);
}

AccuracyPoint
FaultInjectionRunner::runWithEcc(double fail_prob, double flip_prob,
                                 sram::EccStats *stats)
{
    std::optional<obs::ScopeTimer> timer;
    if (obs_) {
        timer.emplace(obs_->metrics, "fi.run", trialClock_,
                      withBase({{"kind", "ecc"}}));
    }
    const auto results = runMaps(
        static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch) {
            const sram::VulnerabilityMap map =
                makeMap(static_cast<std::uint64_t>(m));
            Rng rng = Rng(cfg_.seed).split(
                3000 + static_cast<std::uint64_t>(m));
            MapResult r;
            r.bitFlips =
                corruptNetworkEcc(scratch, net_, map, fail_prob,
                                  flip_prob, cfg_.layout, rng, &r.ecc);
            r.accuracy = dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
            return r;
        });
    recordTrials("ecc", results);
    return reduce(results, fail_prob, stats);
}

ResilientAccuracyPoint
FaultInjectionRunner::runResilient(Volt vdd, const core::SimContext &ctx,
                                   const resilience::ResiliencePolicy &policy)
{
    // Dante's weight memory: the layout's weight region split into
    // 64 Kbit banks (16 for the 128 KB default).
    const int banks = static_cast<int>(cfg_.layout.weightRegionBits /
                                       sram::SramBank::kBits);
    if (banks < 1)
        fatal("runResilient: weight region smaller than one bank");
    const sram::FailureRateModel failure(ctx.failure);

    std::optional<obs::ScopeTimer> timer;
    if (obs_) {
        timer.emplace(obs_->metrics, "fi.run", trialClock_,
                      withBase({{"kind", "resilient"}}));
    }
    // Every map stages the same weights: quantize and encode them once.
    const StagedWeights image = stageWeights(net_);
    const auto results = runMaps(
        static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch) {
            // Each map is one device instance: fresh memory, monitors,
            // standing levels and spare table. The per-access flip
            // randomness comes from a counter-derived stream (4000+m;
            // 1000/2000/3000 belong to the other experiment kinds).
            const sram::VulnerabilityMap map =
                makeMap(static_cast<std::uint64_t>(m));
            sram::BankedMemory mem("weight_mem", banks, ctx.design,
                                   ctx.tech, failure);
            resilience::ResilientMemory rmem(mem, ctx, policy);
            rmem.reseed(Rng(cfg_.seed).split(
                4000 + static_cast<std::uint64_t>(m)));

            MapResult r;
            r.bitFlips = corruptNetworkResilient(scratch, net_, image, rmem,
                                                 vdd, map);
            r.accuracy = dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
            r.res = rmem.snapshot();
            r.resEnergy = rmem.totalAccessEnergy();
            // Each worker exports into its map's private registry
            // (reads obsLabels_ only); the serial reduction below
            // merges them in map order per the §7 discipline.
            if (obs_)
                rmem.exportMetrics(r.metrics, withBase({}));
            return r;
        });

    recordTrials("resilient", results);
    if (obs_) {
        for (const MapResult &r : results)
            obs_->metrics.merge(r.metrics);
    }

    ResilientAccuracyPoint out;
    out.point = reduce(results, failure.rate(vdd));
    out.point.voltage = vdd;
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

TimingAccuracyPoint
FaultInjectionRunner::runTiming(const core::SimContext &ctx,
                                const TimingInjection &inj)
{
    inj.params.validate();
    inj.policy.validate();
    // Prototype datapath for the derived operating-point quantities
    // (safe rail, initial-rail error probability, cycle stretch);
    // never executes ops.
    const timing::SpeculativeDatapath proto(
        ctx.tech, inj.params, inj.policy, inj.vLogic, inj.clock);

    std::optional<obs::ScopeTimer> timer;
    if (obs_) {
        timer.emplace(obs_->metrics, "fi.run", trialClock_,
                      withBase({{"kind", "timing"}}));
    }
    const auto results = runMaps(
        static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch) {
            // Weights stage fault-free through the int16 round trip:
            // the SRAM is clean, only the datapath misbehaves.
            const sram::VulnerabilityMap map =
                makeMap(static_cast<std::uint64_t>(m));
            Rng rng = Rng(cfg_.seed).split(
                5000 + static_cast<std::uint64_t>(m));
            InjectionSpec spec;
            spec.injectWeights = true;
            corruptNetwork(scratch, net_, map, /*fail_prob=*/0.0, spec,
                           cfg_.layout, rng);

            // Each map is one device instance: fresh monitors, ladder
            // position and violation-hash stream.
            timing::SpeculativeDatapath dp(ctx.tech, inj.params,
                                           inj.policy, inj.vLogic,
                                           inj.clock);
            const std::uint64_t key = datapathKey(
                cfg_.seed, 5000, static_cast<std::uint64_t>(m));
            dp.reseed(key);

            MapResult r;
            r.accuracy = evaluateWithTimingFaults(scratch, evalSet_, dp,
                                                  corruptKey(key));
            r.tim = dp.stats();
            // "Bit flips" on the timing side = corrupted commits that
            // reached inference (one flipped bit each).
            r.bitFlips = r.tim.corrupted;
            if (obs_)
                dp.exportMetrics(r.metrics, withBase({}));
            return r;
        });

    recordTrials("timing", results);
    if (obs_) {
        for (const MapResult &r : results)
            obs_->metrics.merge(r.metrics);
    }

    TimingAccuracyPoint out;
    out.point = reduce(results, proto.currentOpErrorProb());
    out.point.voltage = inj.vLogic;
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

CombinedAccuracyPoint
FaultInjectionRunner::runCombined(Volt v_sram,
                                  const core::SimContext &ctx,
                                  const resilience::ResiliencePolicy &policy,
                                  const TimingInjection &inj)
{
    inj.params.validate();
    inj.policy.validate();
    const int banks = static_cast<int>(cfg_.layout.weightRegionBits /
                                       sram::SramBank::kBits);
    if (banks < 1)
        fatal("runCombined: weight region smaller than one bank");
    const sram::FailureRateModel failure(ctx.failure);
    const timing::SpeculativeDatapath proto(
        ctx.tech, inj.params, inj.policy, inj.vLogic, inj.clock);

    std::optional<obs::ScopeTimer> timer;
    if (obs_) {
        timer.emplace(obs_->metrics, "fi.run", trialClock_,
                      withBase({{"kind", "combined"}}));
    }
    const StagedWeights image = stageWeights(net_);
    const auto results = runMaps(
        static_cast<std::size_t>(cfg_.numMaps),
        [&](std::size_t m, dnn::Network &scratch) {
            // SRAM side exactly as runResilient, but on its own
            // counter streams (6000+m) so combined runs never reuse
            // the resilient-only experiment's randomness.
            const sram::VulnerabilityMap map =
                makeMap(static_cast<std::uint64_t>(m));
            sram::BankedMemory mem("weight_mem", banks, ctx.design,
                                   ctx.tech, failure);
            resilience::ResilientMemory rmem(mem, ctx, policy);
            rmem.reseed(Rng(cfg_.seed).split(
                6000 + static_cast<std::uint64_t>(m)));

            MapResult r;
            r.bitFlips = corruptNetworkResilient(scratch, net_, image, rmem,
                                                 v_sram, map);

            timing::SpeculativeDatapath dp(ctx.tech, inj.params,
                                           inj.policy, inj.vLogic,
                                           inj.clock);
            const std::uint64_t key = datapathKey(
                cfg_.seed, 7000, static_cast<std::uint64_t>(m));
            dp.reseed(key);
            r.accuracy = evaluateWithTimingFaults(scratch, evalSet_, dp,
                                                  corruptKey(key));
            r.tim = dp.stats();
            r.bitFlips += r.tim.corrupted;
            r.res = rmem.snapshot();
            r.resEnergy = rmem.totalAccessEnergy();
            if (obs_) {
                rmem.exportMetrics(r.metrics, withBase({}));
                dp.exportMetrics(r.metrics, withBase({}));
            }
            return r;
        });

    recordTrials("combined", results);
    if (obs_) {
        for (const MapResult &r : results)
            obs_->metrics.merge(r.metrics);
    }

    CombinedAccuracyPoint out;
    out.point = reduce(results, failure.rate(v_sram));
    out.point.voltage = v_sram;
    const double period = proto.effectivePeriod().value();
    double sram_energy = 0.0;
    double logic_energy = 0.0;
    double retry_latency = 0.0;
    double replay_latency = 0.0;
    for (const auto &r : results) {
        out.sram.merge(r.res);
        out.timing.merge(r.tim);
        sram_energy += r.resEnergy.value();
        logic_energy += r.tim.logicEnergy.value();
        retry_latency += r.res.retryLatency.value();
        replay_latency +=
            static_cast<double>(r.tim.replayCycles +
                                r.tim.bubbleCycles) *
            period;
    }
    const auto n = static_cast<double>(results.size());
    out.meanSramEnergy = Joule(sram_energy / n);
    out.meanLogicEnergy = Joule(logic_energy / n);
    out.meanRetryLatency = Second(retry_latency / n);
    out.meanReplayLatency = Second(replay_latency / n);
    out.cycleStretch = proto.cycleStretch();
    out.safeVoltage = proto.safeVoltage();
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
    const std::size_t maps = static_cast<std::size_t>(cfg_.numMaps);
    std::vector<double> rates(voltages.size());
    for (std::size_t v = 0; v < voltages.size(); ++v)
        rates[v] = model.rate(voltages[v]);

    std::optional<obs::ScopeTimer> timer;
    if (obs_) {
        timer.emplace(obs_->metrics, "fi.run", trialClock_,
                      withBase({{"kind", "sweep"}}));
    }
    // One flat job grid over (voltage, map): sweeps with few maps per
    // point still fill every worker.
    const auto results = runMaps(
        voltages.size() * maps,
        [&](std::size_t j, dnn::Network &scratch) {
            const std::size_t m = j % maps;
            const double fail_prob = rates[j / maps];
            const sram::VulnerabilityMap map =
                makeMap(static_cast<std::uint64_t>(m));
            Rng rng = Rng(cfg_.seed).split(
                1000 + static_cast<std::uint64_t>(m));
            MapResult r;
            r.bitFlips = corruptNetwork(scratch, net_, map, fail_prob,
                                        spec, cfg_.layout, rng);
            if (spec.injectInputs) {
                dnn::Tensor corrupted = corruptInputs(
                    evalSet_.images, map, fail_prob, spec.flipProb,
                    cfg_.layout, rng);
                r.accuracy =
                    scratch.accuracy(corrupted, evalSet_.labels);
            } else {
                r.accuracy =
                    dnn::SgdTrainer::evaluate(scratch, evalSet_, 0);
            }
            return r;
        });

    recordTrials("sweep", results);
    std::vector<AccuracyPoint> out;
    out.reserve(voltages.size());
    for (std::size_t v = 0; v < voltages.size(); ++v) {
        const std::vector<MapResult> slice(
            results.begin() + static_cast<long>(v * maps),
            results.begin() + static_cast<long>((v + 1) * maps));
        AccuracyPoint p = reduce(slice, rates[v]);
        p.voltage = voltages[v];
        out.push_back(p);
    }
    return out;
}

} // namespace vboost::fi
