/**
 * @file
 * Tests for the fault-injection harness: injector targeting, flip
 * accounting, Monte-Carlo experiment statistics, the accuracy-curve
 * interpolator, and the core monotone degradation property.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "common/logging.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "fi/accuracy_curve.hpp"
#include "fi/experiment.hpp"
#include "recovery/recovery.hpp"

namespace vboost::fi {
namespace {

/** Small trainable network shared by the harness tests. */
dnn::Network
smallNet(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Dense>(16, 24, rng, "fc1");
    net.addLayer<dnn::Relu>("r1");
    net.addLayer<dnn::Dense>(24, 24, rng, "fc2");
    net.addLayer<dnn::Relu>("r2");
    net.addLayer<dnn::Dense>(24, 4, rng, "fc3");
    return net;
}

/** Tiny 4-class dataset of separable Gaussian blobs in 16-D. */
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
        for (int j = 0; j < 16; ++j) {
            const double center = (j % 4 == cls) ? 1.0 : 0.0;
            ds.images.at(i, j) =
                static_cast<float>(rng.normal(center, 0.15));
        }
    }
    return ds;
}

/**
 * One feature, two classes, zero biases. The float weights favour
 * class 1 by a quarter of an int16 step (2^-15 at this range); the
 * round trip rounds both to 0.5, and the argmax tie goes to class 0.
 * So a class-1 sample with feature 1 is right on the float network
 * and wrong on the int16 one.
 */
dnn::Network
roundTripSensitiveNet()
{
    Rng rng(1);
    dnn::Network net;
    auto &fc = net.addLayer<dnn::Dense>(1, 2, rng, "fc");
    fc.weight()[0] = 0.5f - 0x1.0p-17f;
    fc.weight()[1] = 0.5f;
    return net;
}

/** n samples of feature 1 labelled class 1. */
dnn::Dataset
classOneSamples(int n)
{
    dnn::Dataset ds;
    ds.images = dnn::Tensor({n, 1});
    ds.images.fill(1.0f);
    ds.labels.assign(static_cast<std::size_t>(n), 1);
    return ds;
}

class FiTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        net_ = new dnn::Network(smallNet(1));
        train_ = new dnn::Dataset(blobs(600, 11));
        test_ = new dnn::Dataset(blobs(300, 12));
        dnn::TrainConfig cfg;
        cfg.epochs = 8;
        dnn::SgdTrainer trainer(cfg);
        Rng rng(2);
        trainer.train(*net_, *train_, rng);
        dnn::clipParameters(*net_, 0.5f);
    }

    static void
    TearDownTestSuite()
    {
        delete net_;
        delete train_;
        delete test_;
        net_ = nullptr;
        train_ = nullptr;
        test_ = nullptr;
    }

    static dnn::Network *net_;
    static dnn::Dataset *train_;
    static dnn::Dataset *test_;
};

dnn::Network *FiTest::net_ = nullptr;
dnn::Dataset *FiTest::train_ = nullptr;
dnn::Dataset *FiTest::test_ = nullptr;

TEST_F(FiTest, TrainedModelIsAccurate)
{
    EXPECT_GT(dnn::SgdTrainer::evaluate(*net_, *test_, 0), 0.95);
}

TEST_F(FiTest, CorruptNetworkZeroProbStagesTheInt16RoundTrip)
{
    // One rule at every rate and for every spec: each weight layer
    // takes the int16 round trip, biases are copied verbatim, and a
    // zero rate draws no fault and consumes no randomness.
    const sram::VulnerabilityMap map(3, 0);
    const WeightRegionImage no_image; // a zero rate never reads it
    for (const InjectionSpec &spec :
         {InjectionSpec::allWeights(), InjectionSpec::singleLayer(1),
          InjectionSpec::inputsOnly()}) {
        for (const bool with_image : {false, true}) {
            auto scratch = smallNet(2);
            Rng rng(4);
            const auto flips =
                with_image
                    ? corruptNetwork(scratch, *net_, map, 0.0, spec,
                                     MemoryLayout{}, rng, no_image)
                    : corruptNetwork(scratch, *net_, map, 0.0, spec,
                                     MemoryLayout{}, rng);
            EXPECT_EQ(flips, 0u);
            Rng twin(4);
            EXPECT_EQ(rng.next(), twin.next()) << "rng was drawn from";

            const auto src = net_->params();
            const auto dst = scratch.params();
            ASSERT_EQ(src.size(), dst.size());
            for (std::size_t p = 0; p < src.size(); ++p) {
                const dnn::Tensor want =
                    src[p].isWeight ? dnn::quantizeRoundTrip(*src[p].value)
                                    : *src[p].value;
                const dnn::Tensor &got = *dst[p].value;
                ASSERT_EQ(want.numel(), got.numel());
                EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                      want.numel() * sizeof(float)),
                          0)
                    << src[p].name << " (with image: " << with_image
                    << ")";
            }
        }
    }
}

TEST_F(FiTest, BaselineAccuracyIsTheInt16RoundTrip)
{
    // The fault-free ceiling every faulty point is compared against
    // (the runner's, the accuracy curve's and the recovery frontier's
    // iso-accuracy reference) is the network the accelerator computes
    // on: int16 weights. On the crafted net the float and int16
    // accuracies differ, so the pins cannot hold by accident.
    auto crafted = roundTripSensitiveNet();
    const dnn::Dataset ones = classOneSamples(8);
    const std::pair<dnn::Network *, const dnn::Dataset *> cases[] = {
        {net_, test_}, {&crafted, &ones}};
    for (const auto &[net, set] : cases) {
        auto staged = net->clone();
        for (const auto &p : staged.weightParams())
            *p.value = dnn::quantizeRoundTrip(*p.value);
        const double want = dnn::SgdTrainer::evaluate(staged, *set, 0);
        if (net == &crafted) {
            ASSERT_EQ(dnn::SgdTrainer::evaluate(crafted, ones, 0), 1.0);
            ASSERT_EQ(want, 0.0);
        }

        ExperimentConfig cfg;
        cfg.numMaps = 2;
        FaultInjectionRunner runner(*net, *set, cfg);
        EXPECT_EQ(runner.baselineAccuracy(), want);
        EXPECT_EQ(AccuracyCurve::sample(runner, InjectionSpec::allWeights(),
                                        1e-4, 1e-3, 2)
                      .faultFree(),
                  want);
        recovery::ChipEvaluator eval(*net, *set,
                                     sram::VulnerabilityMap(57, 0));
        EXPECT_EQ(eval.baselineAccuracy(), want);
    }
}

TEST_F(FiTest, FaultFreeTimingRunReproducesTheBaseline)
{
    // At a logic rail with no committed timing fault, runTiming's
    // layer-by-layer forward must reproduce SgdTrainer::evaluate on
    // the same staging bit for bit.
    ExperimentConfig cfg;
    cfg.numMaps = 2;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    TimingInjection inj;
    inj.vLogic = Volt(0.8);
    const auto t = runner.runTiming(core::SimContext::standard(), inj);
    ASSERT_EQ(t.stats.corrupted, 0u);
    EXPECT_GT(t.stats.ops, 0u);
    EXPECT_EQ(t.point.meanAccuracy, runner.baselineAccuracy());
}

TEST_F(FiTest, WeightRegionImageRepacksOnlyWhenKeyChanges)
{
    MemoryLayout layout;
    WeightRegionImage image;
    const sram::VulnerabilityMap map(3, 0);
    image.update(*net_, map, 0.01, layout);
    EXPECT_EQ(image.packs(), 1u);
    image.update(*net_, map, 0.01, layout); // same key: kept
    EXPECT_EQ(image.packs(), 1u);
    image.update(*net_, map, 0.0, layout); // nothing to inject
    EXPECT_EQ(image.packs(), 1u);
    image.update(*net_, map, 0.02, layout); // the rate changed
    EXPECT_EQ(image.packs(), 2u);
    image.update(*net_, map, 0.01, layout);
    EXPECT_EQ(image.packs(), 3u);
    image.update(*net_, sram::VulnerabilityMap(3, 1), 0.01, layout);
    EXPECT_EQ(image.packs(), 4u);
    sram::ClusterParams cp;
    image.update(*net_,
                 sram::VulnerabilityMap(3, 1, sram::MapModel::Clustered, cp),
                 0.01, layout);
    EXPECT_EQ(image.packs(), 5u);
    cp.rowDefectProb = 0.1;
    image.update(*net_,
                 sram::VulnerabilityMap(3, 1, sram::MapModel::Clustered, cp),
                 0.01, layout);
    EXPECT_EQ(image.packs(), 6u);
    layout.weightRegionBits = 5000;
    image.update(*net_,
                 sram::VulnerabilityMap(3, 1, sram::MapModel::Clustered, cp),
                 0.01, layout);
    EXPECT_EQ(image.packs(), 7u);

    // A stale image is refused rather than read.
    auto scratch = smallNet(2);
    Rng rng(4);
    EXPECT_THROW(corruptNetwork(scratch, *net_, map, 0.01,
                                InjectionSpec::allWeights(), layout, rng,
                                image),
                 FatalError);
}

TEST_F(FiTest, KeptRegionImageMatchesPerCallPacking)
{
    // A 5000-cell region makes the staged weights wrap about 3.4 times;
    // a kept image must give every call the flips and weights of a
    // call that packs its own, for whole-network and single-layer
    // injection alike.
    MemoryLayout layout;
    layout.weightRegionBits = 5000;
    for (const sram::VulnerabilityMap &map :
         {sram::VulnerabilityMap(8, 2),
          sram::VulnerabilityMap(8, 2, sram::MapModel::Clustered,
                                 sram::ClusterParams{})}) {
        WeightRegionImage image;
        image.update(*net_, map, 0.03, layout);
        for (const InjectionSpec &spec :
             {InjectionSpec::allWeights(), InjectionSpec::singleLayer(1)}) {
            for (std::uint64_t r = 0; r < 3; ++r) {
                auto a = smallNet(2), b = smallNet(2);
                Rng ra = Rng(5).split(r), rb = Rng(5).split(r);
                const auto fa = corruptNetwork(a, *net_, map, 0.03, spec,
                                               layout, ra);
                const auto fb = corruptNetwork(b, *net_, map, 0.03, spec,
                                               layout, rb, image);
                EXPECT_EQ(fa, fb);
                EXPECT_GT(fa, 0u);
                const auto pa = a.params(), pb = b.params();
                for (std::size_t i = 0; i < pa.size(); ++i)
                    EXPECT_EQ(std::memcmp(pa[i].value->data(),
                                          pb[i].value->data(),
                                          pa[i].value->numel() *
                                              sizeof(float)),
                              0)
                        << pa[i].name;
            }
        }
        EXPECT_EQ(image.packs(), 1u);
    }
}

TEST_F(FiTest, FlipCountTracksFailProb)
{
    auto scratch = smallNet(2);
    sram::VulnerabilityMap map(3, 0);
    Rng rng(4);
    std::uint64_t bits = 0;
    for (auto &w : net_->weightParams())
        bits += w.value->numel() * 16;
    const double f = 0.02;
    const auto flips = corruptNetwork(scratch, *net_, map, f,
                                      InjectionSpec::allWeights(),
                                      MemoryLayout{}, rng);
    const double expected = static_cast<double>(bits) * f * 0.5;
    EXPECT_NEAR(static_cast<double>(flips), expected, expected * 0.25);
}

TEST_F(FiTest, SingleLayerInjectionOnlyTouchesThatLayer)
{
    auto scratch = smallNet(2);
    sram::VulnerabilityMap map(3, 0);
    Rng rng(4);
    corruptNetwork(scratch, *net_, map, 0.2,
                   InjectionSpec::singleLayer(1), MemoryLayout{}, rng);

    auto src_w = net_->weightParams();
    auto dst_w = scratch.weightParams();
    // Layer 1 corrupted...
    const auto clean1 = dnn::quantizeRoundTrip(*src_w[1].value);
    bool changed = false;
    for (std::size_t i = 0; i < dst_w[1].value->numel(); ++i)
        changed = changed || (*dst_w[1].value)[i] != clean1[i];
    EXPECT_TRUE(changed);
    // ...layers 0 and 2 exactly equal their quantized round trip.
    for (std::size_t l : {std::size_t{0}, std::size_t{2}}) {
        const auto clean = dnn::quantizeRoundTrip(*src_w[l].value);
        for (std::size_t i = 0; i < clean.numel(); ++i)
            ASSERT_EQ((*dst_w[l].value)[i], clean[i]) << "layer " << l;
    }
}

TEST_F(FiTest, LayerIndexValidated)
{
    auto scratch = smallNet(2);
    sram::VulnerabilityMap map(3, 0);
    Rng rng(4);
    EXPECT_THROW(corruptNetwork(scratch, *net_, map, 0.1,
                                InjectionSpec::singleLayer(3),
                                MemoryLayout{}, rng),
                 FatalError);
}

TEST_F(FiTest, CorruptInputsPreservesShape)
{
    sram::VulnerabilityMap map(5, 0);
    Rng rng(6);
    const auto corrupted =
        corruptInputs(test_->images, map, 0.05, 0.5, MemoryLayout{}, rng);
    EXPECT_EQ(corrupted.shape(), test_->images.shape());
    bool changed = false;
    for (std::size_t i = 0; i < corrupted.numel() && !changed; ++i)
        changed = corrupted[i] != test_->images[i];
    EXPECT_TRUE(changed);
}

TEST_F(FiTest, RunnerStatisticsAreConsistent)
{
    ExperimentConfig cfg;
    cfg.numMaps = 6;
    cfg.maxTestSamples = 200;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    const auto p = runner.run(0.02, InjectionSpec::allWeights());
    EXPECT_GE(p.maxAccuracy, p.meanAccuracy);
    EXPECT_LE(p.minAccuracy, p.meanAccuracy);
    EXPECT_GE(p.stddevAccuracy, 0.0);
    EXPECT_GT(p.meanBitFlips, 0.0);
    EXPECT_DOUBLE_EQ(p.failProb, 0.02);
}

TEST_F(FiTest, AccuracyDegradesMonotonically)
{
    // The central invariant behind Fig. 2: higher bit failure
    // probability can only hurt (up to Monte-Carlo noise).
    ExperimentConfig cfg;
    cfg.numMaps = 6;
    cfg.maxTestSamples = 200;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    const double a0 = runner.baselineAccuracy();
    const double a1 =
        runner.run(0.001, InjectionSpec::allWeights()).meanAccuracy;
    const double a2 =
        runner.run(0.03, InjectionSpec::allWeights()).meanAccuracy;
    const double a3 =
        runner.run(0.3, InjectionSpec::allWeights()).meanAccuracy;
    EXPECT_GE(a0 + 0.02, a1);
    EXPECT_GT(a1 + 0.05, a2);
    EXPECT_GT(a2 + 0.05, a3);
    EXPECT_LT(a3, 0.6); // heavy corruption ruins the model
}

TEST_F(FiTest, InputsAreMoreTolerantThanWeights)
{
    // Fig. 2: bit flips in inputs cost far less accuracy than the
    // same rate in weights.
    ExperimentConfig cfg;
    cfg.numMaps = 6;
    cfg.maxTestSamples = 200;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    const double f = 0.02;
    const double w =
        runner.run(f, InjectionSpec::allWeights()).meanAccuracy;
    const double in =
        runner.run(f, InjectionSpec::inputsOnly()).meanAccuracy;
    EXPECT_GT(in, w);
}

TEST_F(FiTest, VoltageSweepUsesFailureModel)
{
    ExperimentConfig cfg;
    cfg.numMaps = 4;
    cfg.maxTestSamples = 150;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    sram::FailureRateModel model;
    const auto points = runner.sweepVoltage({0.6_V, 0.44_V}, model,
                                            InjectionSpec::allWeights());
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].voltage.value(), 0.6);
    EXPECT_NEAR(points[1].failProb, model.rate(0.44_V), 1e-12);
    EXPECT_GE(points[0].meanAccuracy, points[1].meanAccuracy);
}

TEST_F(FiTest, RunnerValidatesConfig)
{
    ExperimentConfig cfg;
    cfg.numMaps = 0;
    EXPECT_THROW(FaultInjectionRunner(*net_, *test_, cfg),
                 FatalError);
    cfg.numMaps = 2;
    cfg.numThreads = -1;
    EXPECT_THROW(FaultInjectionRunner(*net_, *test_, cfg),
                 FatalError);
}

// ------------------------------------------------ parallel determinism

/** Two AccuracyPoints must agree bitwise (exact == on every field). */
void
expectBitwiseEqual(const AccuracyPoint &a, const AccuracyPoint &b)
{
    EXPECT_EQ(a.voltage.value(), b.voltage.value());
    EXPECT_EQ(a.failProb, b.failProb);
    EXPECT_EQ(a.meanAccuracy, b.meanAccuracy);
    EXPECT_EQ(a.stddevAccuracy, b.stddevAccuracy);
    EXPECT_EQ(a.minAccuracy, b.minAccuracy);
    EXPECT_EQ(a.maxAccuracy, b.maxAccuracy);
    EXPECT_EQ(a.meanBitFlips, b.meanBitFlips);
}

TEST_F(FiTest, ParallelRunIsBitwiseIdenticalToSerial)
{
    // The acceptance bar of the parallel engine: at a fixed seed,
    // numThreads = 1 and numThreads = 8 produce bitwise identical
    // Monte-Carlo statistics (maps own their seeds; reduction is in
    // map order).
    ExperimentConfig serial_cfg;
    serial_cfg.numMaps = 10;
    serial_cfg.maxTestSamples = 200;
    serial_cfg.numThreads = 1;
    ExperimentConfig parallel_cfg = serial_cfg;
    parallel_cfg.numThreads = 8;

    FaultInjectionRunner serial(*net_, *test_, serial_cfg);
    FaultInjectionRunner parallel(*net_, *test_, parallel_cfg);

    EXPECT_EQ(serial.baselineAccuracy(), parallel.baselineAccuracy());
    expectBitwiseEqual(serial.run(0.02, InjectionSpec::allWeights()),
                       parallel.run(0.02, InjectionSpec::allWeights()));
    expectBitwiseEqual(serial.run(0.02, InjectionSpec::inputsOnly()),
                       parallel.run(0.02, InjectionSpec::inputsOnly()));
    expectBitwiseEqual(serial.runPerLayer({0.01, 0.03, 0.002}),
                       parallel.runPerLayer({0.01, 0.03, 0.002}));

    sram::EccStats es, ep;
    expectBitwiseEqual(serial.runWithEcc(0.03, 0.5, &es),
                       parallel.runWithEcc(0.03, 0.5, &ep));
    EXPECT_EQ(es.words, ep.words);
    EXPECT_EQ(es.corrected, ep.corrected);
    EXPECT_EQ(es.detectedUncorrectable, ep.detectedUncorrectable);
}

TEST_F(FiTest, ParallelSweepMatchesPointwiseRuns)
{
    // The (voltage x map) grid parallelization must agree with
    // voltage-at-a-time evaluation, and with the serial sweep.
    sram::FailureRateModel model;
    const std::vector<Volt> grid{0.60_V, 0.46_V, 0.40_V};

    ExperimentConfig serial_cfg;
    serial_cfg.numMaps = 5;
    serial_cfg.maxTestSamples = 150;
    serial_cfg.numThreads = 1;
    ExperimentConfig parallel_cfg = serial_cfg;
    parallel_cfg.numThreads = 8;

    FaultInjectionRunner serial(*net_, *test_, serial_cfg);
    FaultInjectionRunner parallel(*net_, *test_, parallel_cfg);

    const auto spec = InjectionSpec::allWeights();
    const auto swept = parallel.sweepVoltage(grid, model, spec);
    const auto reference = serial.sweepVoltage(grid, model, spec);
    ASSERT_EQ(swept.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        expectBitwiseEqual(swept[i], reference[i]);
        expectBitwiseEqual(swept[i],
                           serial.runAtVoltage(grid[i], model, spec));
    }
}

TEST_F(FiTest, RunnerDoesNotMutateGoldenNetwork)
{
    // The runner clones scratch networks internally; the caller's
    // trained parameters must come back untouched.
    std::vector<float> before;
    for (auto &p : net_->params())
        for (std::size_t i = 0; i < p.value->numel(); ++i)
            before.push_back((*p.value)[i]);

    ExperimentConfig cfg;
    cfg.numMaps = 4;
    cfg.maxTestSamples = 100;
    cfg.numThreads = 4;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    runner.run(0.1, InjectionSpec::allWeights());

    std::size_t k = 0;
    for (auto &p : net_->params())
        for (std::size_t i = 0; i < p.value->numel(); ++i)
            ASSERT_EQ((*p.value)[i], before[k++]) << p.name;
}

// ------------------------------------------------------- accuracy curve

TEST(AccuracyCurve, InterpolatesLogLinearly)
{
    AccuracyCurve curve({1e-4, 1e-2}, {0.9, 0.5}, 0.95);
    EXPECT_DOUBLE_EQ(curve.at(1e-4), 0.9);
    EXPECT_DOUBLE_EQ(curve.at(1e-2), 0.5);
    EXPECT_NEAR(curve.at(1e-3), 0.7, 1e-9); // halfway in log space
    EXPECT_DOUBLE_EQ(curve.at(0.5), 0.5);   // clamps above
    EXPECT_DOUBLE_EQ(curve.at(0.0), 0.95);  // fault-free below
}

TEST(AccuracyCurve, ValidatesSamples)
{
    EXPECT_THROW(AccuracyCurve({1e-3}, {0.9}, 1.0), FatalError);
    EXPECT_THROW(AccuracyCurve({1e-3, 1e-4}, {0.9, 0.8}, 1.0),
                 FatalError);
    EXPECT_THROW(AccuracyCurve({0.0, 1e-3}, {0.9, 0.8}, 1.0), FatalError);
    EXPECT_THROW(AccuracyCurve({1e-3, 1e-2}, {0.9}, 1.0), FatalError);
}

TEST_F(FiTest, SampledCurveIsUsableForIsoAccuracy)
{
    ExperimentConfig cfg;
    cfg.numMaps = 4;
    cfg.maxTestSamples = 150;
    FaultInjectionRunner runner(*net_, *test_, cfg);
    const auto curve = AccuracyCurve::sample(
        runner, InjectionSpec::allWeights(), 1e-4, 0.2, 5);
    EXPECT_GT(curve.faultFree(), 0.9);
    // Query between samples without re-running Monte Carlo.
    EXPECT_GE(curve.at(1e-4), curve.at(0.2) - 1e-9);
}

} // namespace
} // namespace vboost::fi
