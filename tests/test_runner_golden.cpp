/**
 * @file
 * Golden digests of every FaultInjectionRunner entry point: the
 * fault-free baseline, run (all weights, one layer, inputs only),
 * runPerLayer, runWithEcc with its decode statistics, runResilient
 * (open and closed loop), runTiming, runCombined, sweepVoltage and
 * runAtVoltage, under an i.i.d. and a clustered map model. Each
 * returned point is folded field by field (doubles by their bits)
 * into one FNV-1a digest; with observability attached the metrics
 * and trace fingerprints are pinned too. The suite runs on every
 * backend, at 1 and 4 threads, with and without observability, and
 * all of them must reproduce the same constants. The network and
 * data are small and fixed (never scaled for TSan), so the constants
 * also hold in the sanitizer build.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "fi/experiment.hpp"
#include "obs/observability.hpp"
#include "resilience/policy.hpp"

namespace vboost::fi {
namespace {

/** Byte-wise FNV-1a, kept independent of the code under test. */
class Fnv
{
  public:
    Fnv &
    word(std::uint64_t w)
    {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (w >> (8 * b)) & 0xffu;
            h_ *= 1099511628211ull;
        }
        return *this;
    }

    Fnv &
    real(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        return word(bits);
    }

    Fnv &
    point(const AccuracyPoint &p)
    {
        return real(p.voltage.value())
            .real(p.failProb)
            .real(p.meanAccuracy)
            .real(p.stddevAccuracy)
            .real(p.minAccuracy)
            .real(p.maxAccuracy)
            .real(p.meanBitFlips);
    }

    Fnv &
    res(const resilience::ResilienceStats &s)
    {
        return word(s.reads)
            .word(s.cleanReads)
            .word(s.correctedReads)
            .word(s.retriedReads)
            .word(s.retries)
            .word(s.escalations)
            .word(s.standingRaises)
            .word(s.quarantines)
            .word(s.spareReads)
            .word(s.spareExhausted)
            .word(s.uncorrected)
            .real(s.retryEnergy.value())
            .real(s.spareEnergy.value())
            .real(s.retryLatency.value())
            .word(s.spareTableDigest);
    }

    Fnv &
    tim(const timing::TimingStats &s)
    {
        return word(s.ops)
            .word(s.errors)
            .word(s.replays)
            .word(s.corrupted)
            .word(s.stepUps)
            .word(s.fallbacks)
            .word(s.replayCycles)
            .word(s.bubbleCycles)
            .real(s.logicEnergy.value())
            .real(s.replayEnergy.value())
            .word(s.replayDigest);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

dnn::Dataset
blobs(int n, std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Dataset ds;
    ds.images = dnn::Tensor({n, 16});
    ds.labels.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const int cls = static_cast<int>(rng.uniformInt(4));
        ds.labels[static_cast<std::size_t>(i)] = cls;
        for (int j = 0; j < 16; ++j)
            ds.images.at(i, j) = static_cast<float>(
                rng.normal(j % 4 == cls ? 1.0 : 0.0, 0.6));
    }
    return ds;
}

/** Digest of each entry point's result, plus the obs fingerprints. */
struct RunnerGoldenDigests
{
    std::uint64_t baseline;
    std::uint64_t allWeights;
    std::uint64_t singleLayer;
    std::uint64_t inputsOnly;
    std::uint64_t perLayer;
    std::uint64_t ecc;
    std::uint64_t resilientOpen;
    std::uint64_t resilientClosed;
    std::uint64_t timing;
    std::uint64_t combined;
    std::uint64_t sweep;
    std::uint64_t atVoltage;
    /** MetricsRegistry and Tracer fingerprints (0 without obs). */
    std::uint64_t metrics;
    std::uint64_t trace;
};

class RunnerGolden : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(1);
        net_ = new dnn::Network;
        net_->addLayer<dnn::Dense>(16, 24, rng, "fc1");
        net_->addLayer<dnn::Relu>("r1");
        net_->addLayer<dnn::Dense>(24, 4, rng, "fc2");
        dnn::TrainConfig cfg;
        cfg.epochs = 2;
        dnn::SgdTrainer trainer(cfg);
        Rng train_rng(2);
        trainer.train(*net_, blobs(240, 11), train_rng);
        dnn::clipParameters(*net_, 0.5f);
        test_ = new dnn::Dataset(blobs(48, 12));
    }

    static void
    TearDownTestSuite()
    {
        delete net_;
        delete test_;
        net_ = nullptr;
        test_ = nullptr;
    }

    static RunnerGoldenDigests
    runAll(sram::MapModel model, int threads, bool with_obs)
    {
        ExperimentConfig cfg;
        cfg.numMaps = 3;
        cfg.seed = 77;
        cfg.maxTestSamples = 0;
        cfg.numThreads = threads;
        cfg.mapModel = model;
        // Two 64 Kbit banks hold the ~500 staged weights.
        cfg.layout.weightRegionBits = 2 * sram::SramBank::kBits;
        FaultInjectionRunner runner(*net_, *test_, cfg);
        obs::Observability o;
        if (with_obs)
            runner.attachObservability(&o, 3, {{"suite", "golden"}});

        const auto ctx = core::SimContext::standard();
        const sram::FailureRateModel failure(ctx.failure);
        auto closed = resilience::ResiliencePolicy::closedLoop(
            2, resilience::EscalationPolicy::StepUp, 4);
        closed.quarantineThreshold = 1;
        TimingInjection inj;
        inj.vLogic = Volt(0.32);
        inj.policy =
            timing::ReplayPolicy::razor(0, timing::TimingEscalation::Hold);

        RunnerGoldenDigests d{};
        d.baseline = Fnv().real(runner.baselineAccuracy()).value();
        d.allWeights =
            Fnv().point(runner.run(0.05, InjectionSpec::allWeights()))
                .value();
        d.singleLayer =
            Fnv().point(runner.run(0.1, InjectionSpec::singleLayer(1)))
                .value();
        d.inputsOnly =
            Fnv().point(runner.run(0.05, InjectionSpec::inputsOnly()))
                .value();
        d.perLayer =
            Fnv().point(runner.runPerLayer({0.02, 0.1}, 0.5)).value();
        sram::EccStats ecc;
        const AccuracyPoint ep = runner.runWithEcc(0.05, 0.5, &ecc);
        d.ecc = Fnv()
                    .point(ep)
                    .word(ecc.words)
                    .word(ecc.corrected)
                    .word(ecc.detectedUncorrectable)
                    .value();
        for (const bool closed_loop : {false, true}) {
            const auto r = runner.runResilient(
                Volt{0.40}, ctx,
                closed_loop ? closed
                            : resilience::ResiliencePolicy::openLoop(0));
            (closed_loop ? d.resilientClosed : d.resilientOpen) =
                Fnv()
                    .point(r.point)
                    .res(r.stats)
                    .real(r.meanAccessEnergy.value())
                    .real(r.meanRetryLatency.value())
                    .value();
        }
        const auto t = runner.runTiming(ctx, inj);
        d.timing = Fnv()
                       .point(t.point)
                       .tim(t.stats)
                       .real(t.meanLogicEnergy.value())
                       .real(t.meanReplayLatency.value())
                       .real(t.cycleStretch)
                       .real(t.safeVoltage.value())
                       .value();
        const auto c = runner.runCombined(Volt{0.42}, ctx, closed, inj);
        d.combined = Fnv()
                         .point(c.point)
                         .res(c.sram)
                         .tim(c.timing)
                         .real(c.meanSramEnergy.value())
                         .real(c.meanLogicEnergy.value())
                         .real(c.meanRetryLatency.value())
                         .real(c.meanReplayLatency.value())
                         .real(c.cycleStretch)
                         .real(c.safeVoltage.value())
                         .value();
        Fnv sweep;
        for (const AccuracyPoint &p : runner.sweepVoltage(
                 {Volt{0.38}, Volt{0.42}, Volt{0.46}}, failure,
                 InjectionSpec::allWeights()))
            sweep.point(p);
        d.sweep = sweep.value();
        d.atVoltage = Fnv()
                          .point(runner.runAtVoltage(
                              Volt{0.42}, failure,
                              InjectionSpec::singleLayer(0)))
                          .value();
        runner.attachObservability(nullptr);
        if (with_obs) {
            d.metrics = o.metrics.fingerprint();
            d.trace = o.trace.fingerprint();
        }
        return d;
    }

    /** Every backend x {1, 4} threads x {without, with} obs. */
    static void
    check(sram::MapModel model, const RunnerGoldenDigests &want)
    {
        for (const auto name : dnn::availableBackends()) {
            ASSERT_TRUE(dnn::setActiveBackend(name));
            for (const int threads : {1, 4}) {
                for (const bool with_obs : {false, true}) {
                    SCOPED_TRACE(std::string(name) + " threads " +
                                 std::to_string(threads) +
                                 (with_obs ? " obs" : " no obs"));
                    const RunnerGoldenDigests got =
                        runAll(model, threads, with_obs);
                    EXPECT_EQ(got.baseline, want.baseline);
                    EXPECT_EQ(got.allWeights, want.allWeights);
                    EXPECT_EQ(got.singleLayer, want.singleLayer);
                    EXPECT_EQ(got.inputsOnly, want.inputsOnly);
                    EXPECT_EQ(got.perLayer, want.perLayer);
                    EXPECT_EQ(got.ecc, want.ecc);
                    EXPECT_EQ(got.resilientOpen, want.resilientOpen);
                    EXPECT_EQ(got.resilientClosed, want.resilientClosed);
                    EXPECT_EQ(got.timing, want.timing);
                    EXPECT_EQ(got.combined, want.combined);
                    EXPECT_EQ(got.sweep, want.sweep);
                    EXPECT_EQ(got.atVoltage, want.atVoltage);
                    EXPECT_EQ(got.metrics, with_obs ? want.metrics : 0);
                    EXPECT_EQ(got.trace, with_obs ? want.trace : 0);
                }
            }
        }
        dnn::setActiveBackend("auto");
    }

    static dnn::Network *net_;
    static dnn::Dataset *test_;
};

dnn::Network *RunnerGolden::net_ = nullptr;
dnn::Dataset *RunnerGolden::test_ = nullptr;

TEST_F(RunnerGolden, IidMapDigests)
{
    check(sram::MapModel::Iid,
          {0x9a30164b9cbb5093ull, 0xbefda5a1eef3d2bbull, 0x16cc3596df906aeull,
           0x7f6486ec650a7b3aull, 0x5a913943d547499aull, 0x8e2a8af784f7817aull,
           0xcc97011deb19e7c4ull, 0xc131b53f189cb4d1ull, 0x3f73f9a74e4d1c10ull,
           0xde63ab800c874c94ull, 0xabe03b41792923a8ull, 0xd2c42050aea4f90full,
           0x4027f78b4dba39cdull, 0x7262d93b7f34f484ull});
}

TEST_F(RunnerGolden, ClusteredMapDigests)
{
    check(sram::MapModel::Clustered,
          {0x9a30164b9cbb5093ull, 0x726cd72493afddafull, 0x5e1cc433d8477bf5ull,
           0xd914f38c5104286ull, 0x90923c898074969ull, 0x669164a47b8e7845ull,
           0x9337bdd37de5cc9full, 0x4e6089c121dea0dfull, 0x3f73f9a74e4d1c10ull,
           0xf405dd232c9a5c6bull, 0xfced1d1986e5794aull, 0xf8c2f513cc6915f5ull,
           0x3682590fd3e1a4a9ull, 0xd47e68fd8590f3a6ull});
}

} // namespace
} // namespace vboost::fi
