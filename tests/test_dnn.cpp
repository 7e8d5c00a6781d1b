/**
 * @file
 * Tests for the network container, trainer convergence, quantization,
 * synthetic datasets, model zoo and parameter serialization.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/logging.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "dnn/quantize.hpp"
#include "dnn/serialize.hpp"
#include "dnn/trainer.hpp"
#include "dnn/zoo.hpp"

namespace vboost::dnn {
namespace {

// -------------------------------------------------------------- network

TEST(Network, ForwardComposesLayers)
{
    Rng rng(1);
    Network net;
    net.addLayer<Dense>(2, 3, rng, "fc1");
    net.addLayer<Relu>("relu");
    net.addLayer<Dense>(3, 2, rng, "fc2");
    Tensor x({4, 2});
    Tensor y = net.forward(x);
    EXPECT_EQ(y.shape(), (std::vector<int>{4, 2}));
    EXPECT_EQ(net.size(), 3u);
}

TEST(Network, ParamCollectionsAndWeightFilter)
{
    Rng rng(1);
    Network net;
    net.addLayer<Dense>(2, 3, rng, "fc1");
    net.addLayer<Relu>("relu");
    net.addLayer<Dense>(3, 2, rng, "fc2");
    EXPECT_EQ(net.params().size(), 4u);
    const auto weights = net.weightParams();
    ASSERT_EQ(weights.size(), 2u);
    EXPECT_EQ(weights[0].name, "fc1.weight");
    EXPECT_EQ(weights[1].name, "fc2.weight");
}

TEST(Network, PredictAndAccuracy)
{
    Rng rng(1);
    Network net;
    auto &d = net.addLayer<Dense>(2, 2, rng, "fc");
    d.weight().fill(0.0f);
    d.weight().at(0, 0) = 1.0f; // class 0 follows feature 0
    d.weight().at(1, 1) = 1.0f; // class 1 follows feature 1
    d.bias().fill(0.0f);
    Tensor x({2, 2});
    x.at(0, 0) = 1.0f; // class 0
    x.at(1, 1) = 1.0f; // class 1
    EXPECT_EQ(net.predict(x), (std::vector<int>{0, 1}));
    EXPECT_DOUBLE_EQ(net.accuracy(x, {0, 1}), 1.0);
    EXPECT_DOUBLE_EQ(net.accuracy(x, {1, 0}), 0.0);
    EXPECT_THROW(net.accuracy(x, {0}), FatalError);
}

TEST(Network, CopyParamsRequiresMatchingStructure)
{
    Rng rng(1);
    Network a, b, c;
    a.addLayer<Dense>(2, 3, rng, "fc");
    b.addLayer<Dense>(2, 3, rng, "fc");
    c.addLayer<Dense>(2, 4, rng, "fc");
    b.copyParamsFrom(a);
    const auto pa = a.params(), pb = b.params();
    for (std::size_t i = 0; i < pa.size(); ++i)
        for (std::size_t e = 0; e < pa[i].value->numel(); ++e)
            EXPECT_EQ((*pa[i].value)[e], (*pb[i].value)[e]);
    EXPECT_THROW(c.copyParamsFrom(a), FatalError);
}

TEST(Network, CloneStartsWithoutGradients)
{
    // A clone serves inference: it copies the parameters but not the
    // gradient buffers. zeroGrads() sizes them, and a backward pass
    // before that panics instead of writing through an empty buffer.
    Rng rng(5);
    Network net;
    net.addLayer<Conv2d>(1, 2, 3, 1, rng, "conv");
    net.addLayer<Relu>("relu");
    net.addLayer<Flatten>("flat");
    net.addLayer<Dense>(2 * 4 * 4, 3, rng, "fc");
    const Tensor x = Tensor::randn({2, 1, 4, 4}, rng, 1.0);
    const Tensor g = Tensor::randn({2, 3}, rng, 1.0);
    net.zeroGrads();
    net.forward(x, /*train=*/true);
    net.backward(g);

    Network copy = net.clone();
    const auto want = net.params();
    const auto got = copy.params();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].grad->numel(), 0u) << got[i].name;
        EXPECT_EQ(got[i].value->shape(), want[i].value->shape());
        EXPECT_EQ(std::memcmp(got[i].value->data(), want[i].value->data(),
                              want[i].value->numel() * sizeof(float)),
                  0)
            << got[i].name;
    }
    copy.forward(x, /*train=*/true);
    EXPECT_THROW(copy.backward(g), PanicError);
    const auto conv = net.layer(0).clone();
    conv->forward(x, /*train=*/true);
    EXPECT_THROW(conv->backward(Tensor({2, 2, 4, 4})), PanicError);

    copy.zeroGrads();
    net.zeroGrads();
    copy.backward(g);
    net.backward(g);
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].grad->shape(), want[i].grad->shape());
        EXPECT_EQ(std::memcmp(got[i].grad->data(), want[i].grad->data(),
                              want[i].grad->numel() * sizeof(float)),
                  0)
            << got[i].name;
    }
}

TEST(Network, EmptyForwardIsFatal)
{
    Network net;
    EXPECT_THROW(net.forward(Tensor({1, 1})), FatalError);
}

// -------------------------------------------------------------- trainer

TEST(Trainer, LearnsLinearlySeparableProblem)
{
    // Two Gaussian blobs in 2-D; a tiny MLP must exceed 95%.
    Rng rng(5);
    Dataset ds;
    ds.images = Tensor({200, 2});
    ds.labels.resize(200);
    for (int i = 0; i < 200; ++i) {
        const int cls = i % 2;
        ds.labels[static_cast<std::size_t>(i)] = cls;
        ds.images.at(i, 0) =
            static_cast<float>(rng.normal(cls ? 1.5 : -1.5, 0.4));
        ds.images.at(i, 1) =
            static_cast<float>(rng.normal(cls ? -1.0 : 1.0, 0.4));
    }
    Network net;
    net.addLayer<Dense>(2, 8, rng, "fc1");
    net.addLayer<Relu>("r");
    net.addLayer<Dense>(8, 2, rng, "fc2");

    TrainConfig cfg;
    cfg.epochs = 12;
    cfg.batchSize = 16;
    SgdTrainer trainer(cfg);
    const auto stats = trainer.train(net, ds, rng);
    EXPECT_EQ(stats.size(), 12u);
    EXPECT_GT(stats.back().trainAccuracy, 0.95);
    // Loss decreases overall.
    EXPECT_LT(stats.back().meanLoss, stats.front().meanLoss);
    EXPECT_GT(SgdTrainer::evaluate(net, ds, 0), 0.95);
}

TEST(Trainer, ValidatesConfiguration)
{
    TrainConfig cfg;
    cfg.epochs = 0;
    EXPECT_THROW(SgdTrainer{cfg}, FatalError);
    cfg = TrainConfig{};
    cfg.learningRate = 0;
    EXPECT_THROW(SgdTrainer{cfg}, FatalError);
    cfg = TrainConfig{};
    cfg.momentum = 1.0;
    EXPECT_THROW(SgdTrainer{cfg}, FatalError);
}

TEST(Trainer, EvaluateCapsSamples)
{
    Rng rng(1);
    Network net;
    net.addLayer<Dense>(2, 2, rng, "fc");
    Dataset ds;
    ds.images = Tensor({10, 2});
    ds.labels.assign(10, 0);
    EXPECT_NO_THROW(SgdTrainer::evaluate(net, ds, 3));
    Dataset empty;
    empty.images = Tensor({1, 2});
    empty.labels = {};
    EXPECT_THROW(SgdTrainer::evaluate(net, empty, 0), FatalError);
}

// -------------------------------------------------------------- dataset

TEST(Dataset, SliceAndGather)
{
    Dataset ds;
    ds.images = Tensor({5, 3});
    for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 3; ++j)
            ds.images.at(i, j) = static_cast<float>(i * 10 + j);
    ds.labels = {0, 1, 2, 3, 4};

    const Dataset s = ds.slice(1, 2);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.labels, (std::vector<int>{1, 2}));
    EXPECT_FLOAT_EQ(s.images.at(0, 0), 10.0f);

    const Dataset g = ds.gather({4, 0});
    EXPECT_EQ(g.labels, (std::vector<int>{4, 0}));
    EXPECT_FLOAT_EQ(g.images.at(0, 2), 42.0f);

    EXPECT_THROW(ds.slice(4, 2), FatalError);
    EXPECT_THROW(ds.gather({7}), FatalError);
}

TEST(Dataset, SyntheticMnistShapeAndDeterminism)
{
    const auto a = makeSyntheticMnist(50, 9);
    const auto b = makeSyntheticMnist(50, 9);
    const auto c = makeSyntheticMnist(50, 10);
    EXPECT_EQ(a.images.shape(), (std::vector<int>{50, 784}));
    EXPECT_EQ(a.size(), 50u);
    // Deterministic for the same seed, different across seeds.
    for (std::size_t i = 0; i < a.images.numel(); ++i)
        ASSERT_EQ(a.images[i], b.images[i]);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.images.numel() && !any_diff; ++i)
        any_diff = a.images[i] != c.images[i];
    EXPECT_TRUE(any_diff);
    // Pixels in [0, 1].
    for (std::size_t i = 0; i < a.images.numel(); ++i) {
        ASSERT_GE(a.images[i], 0.0f);
        ASSERT_LE(a.images[i], 1.0f);
    }
}

TEST(Dataset, SyntheticCifarShapeAndLabels)
{
    const auto ds = makeSyntheticCifar(40, 3);
    EXPECT_EQ(ds.images.shape(), (std::vector<int>{40, 3, 32, 32}));
    std::array<int, 10> seen{};
    for (int l : ds.labels) {
        ASSERT_GE(l, 0);
        ASSERT_LT(l, 10);
        ++seen[static_cast<std::size_t>(l)];
    }
    EXPECT_THROW(makeSyntheticMnist(0, 1), FatalError);
}

TEST(Dataset, ClassesAreSeparated)
{
    // Class-mean separation must exceed intra-class spread: the task
    // is learnable by construction.
    const auto ds = makeSyntheticMnist(600, 4);
    std::vector<std::vector<double>> mean(10,
                                          std::vector<double>(784, 0.0));
    std::vector<int> count(10, 0);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const int c = ds.labels[i];
        ++count[static_cast<std::size_t>(c)];
        for (int j = 0; j < 784; ++j)
            mean[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)] +=
                ds.images[i * 784 + static_cast<std::size_t>(j)];
    }
    for (int c = 0; c < 10; ++c)
        for (auto &v : mean[static_cast<std::size_t>(c)])
            v /= count[static_cast<std::size_t>(c)];
    double min_dist = 1e9;
    for (int a = 0; a < 10; ++a) {
        for (int b = a + 1; b < 10; ++b) {
            double d = 0;
            for (int j = 0; j < 784; ++j) {
                const double x =
                    mean[static_cast<std::size_t>(a)]
                        [static_cast<std::size_t>(j)] -
                    mean[static_cast<std::size_t>(b)]
                        [static_cast<std::size_t>(j)];
                d += x * x;
            }
            min_dist = std::min(min_dist, std::sqrt(d));
        }
    }
    EXPECT_GT(min_dist, 2.0);
}

// ------------------------------------------------------------- quantize

TEST(Quantize, RoundTripWithinResolution)
{
    Rng rng(2);
    const Tensor t = Tensor::randn({100}, rng, 0.3);
    const auto q = quantize(t);
    const Tensor back = dequantize(q);
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_NEAR(back[i], t[i], q.codec.resolution());
}

TEST(Quantize, CodecCoversMaxAbsWithoutWaste)
{
    Tensor t({2});
    t[0] = 0.4f;
    t[1] = -0.3f;
    EXPECT_EQ(chooseCodec(t).fracBits(), 15); // range +-1 suffices
    t[0] = 1.7f;
    EXPECT_EQ(chooseCodec(t).fracBits(), 14); // range +-2
    t[0] = 3.5f;
    EXPECT_EQ(chooseCodec(t).fracBits(), 13); // range +-4
}

TEST(Quantize, RoundTripHelperMatchesManual)
{
    Rng rng(4);
    const Tensor t = Tensor::randn({50}, rng, 1.0);
    const Tensor a = quantizeRoundTrip(t);
    const Tensor b = dequantize(quantize(t));
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(Quantize, VectorizedEncodeMatchesCodec)
{
    // quantize() encodes eight lanes at a time; every word must equal
    // FixedPointCodec::encode bit for bit: ties of both signs (to
    // even), the saturation edges, out-of-range values, signed zeros,
    // subnormals and infinities, then a random sweep of every Q-format.
    // Lengths off a multiple of 8 also cover the scalar tail.
    auto check = [](const std::vector<float> &v, int frac) {
        const FixedPointCodec codec(frac);
        Tensor t({static_cast<int>(v.size())});
        std::copy(v.begin(), v.end(), t.data());
        const auto q = quantize(t, codec);
        for (std::size_t i = 0; i < v.size(); ++i)
            ASSERT_EQ(q.words[i], codec.encode(v[i]))
                << "x=" << v[i] << " fracBits=" << frac << " i=" << i;
    };
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::numeric_limits<float>::denorm_min();
    std::vector<float> edge;
    for (float k = -6.0f; k <= 6.0f; k += 1.0f) {
        edge.push_back(k + 0.5f);
        edge.push_back(-(k + 0.5f));
        edge.push_back(std::nextafter(k + 0.5f, inf));
        edge.push_back(std::nextafter(k + 0.5f, -inf));
    }
    for (float x : {32767.5f, -32767.5f, -32768.5f, 32766.5f, -32768.0f,
                    32767.0f, 32768.0f, -32769.0f, 4194304.5f, 8388609.0f,
                    -8388609.0f, 1e30f, -1e30f, inf, -inf, 0.0f, -0.0f,
                    denorm, -denorm, std::numeric_limits<float>::min(),
                    -std::numeric_limits<float>::min()})
        edge.push_back(x);
    check(edge, 0);
    std::vector<float> scaled_edge = edge;
    for (int frac = 1; frac <= 15; ++frac) {
        // The same integer edges, pre-divided into this Q-format.
        for (std::size_t i = 0; i < edge.size(); ++i)
            scaled_edge[i] = std::ldexp(edge[i], -frac);
        check(scaled_edge, frac);
    }
    Rng rng(99);
    for (int frac = 0; frac <= 15; ++frac) {
        std::vector<float> v(1003);
        const double range = std::ldexp(1.0, 16 - frac);
        for (auto &x : v) {
            x = static_cast<float>(rng.uniform(-range, range));
            if (rng.uniformInt(4) == 0) // land exactly on a half step
                x = std::ldexp(std::nearbyint(std::ldexp(x, frac + 1)),
                               -(frac + 1));
        }
        check(v, frac);
    }
}

TEST(Quantize, VectorizedDecodeMatchesCodec)
{
    // dequantize() decodes eight lanes at a time; every int16 value at
    // every Q-format must decode to FixedPointCodec::decode's bits. The
    // three extra words take the scalar tail.
    std::vector<std::int16_t> words;
    for (int v = -32768; v <= 32767; ++v)
        words.push_back(static_cast<std::int16_t>(v));
    for (int v : {-32768, -1, 32767})
        words.push_back(static_cast<std::int16_t>(v));
    for (int frac = 0; frac <= 15; ++frac) {
        const FixedPointCodec codec(frac);
        const QuantizedTensor q{words, codec,
                                {static_cast<int>(words.size())}};
        const Tensor t = dequantize(q);
        for (std::size_t i = 0; i < words.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(t[i]),
                      std::bit_cast<std::uint32_t>(codec.decode(words[i])))
                << "raw=" << words[i] << " fracBits=" << frac;
    }
}

TEST(Quantize, ClipParametersBoundsEveryValue)
{
    Rng rng(6);
    Network net;
    net.addLayer<Dense>(8, 8, rng, "fc");
    auto &w = *net.params()[0].value;
    w[0] = 3.0f;
    w[1] = -2.5f;
    clipParameters(net, 0.5f);
    for (auto &p : net.params())
        for (std::size_t i = 0; i < p.value->numel(); ++i) {
            EXPECT_LE((*p.value)[i], 0.5f);
            EXPECT_GE((*p.value)[i], -0.5f);
        }
    EXPECT_THROW(clipParameters(net, 0.0f), FatalError);
}

// ------------------------------------------------------------------ zoo

TEST(Zoo, MnistFcTopologyMatchesPaper)
{
    // Sec. 2: 4 layers of size 784 x 256 x 256 x 256 x 32.
    EXPECT_EQ(mnistFcLayerSizes(),
              (std::vector<int>{784, 256, 256, 256, 32}));
    Rng rng(1);
    auto net = buildMnistFc(rng);
    const auto weights = net.weightParams();
    ASSERT_EQ(weights.size(), 4u);
    EXPECT_EQ(weights[0].value->shape(), (std::vector<int>{784, 256}));
    EXPECT_EQ(weights[3].value->shape(), (std::vector<int>{256, 32}));
    Tensor x({2, 784});
    EXPECT_EQ(net.forward(x).shape(), (std::vector<int>{2, 32}));
}

TEST(Zoo, AlexNetCifarHasFiveConvLayers)
{
    Rng rng(1);
    auto net = buildAlexNetCifar(rng);
    int convs = 0;
    for (auto &p : net.weightParams())
        convs += p.name.rfind("conv", 0) == 0;
    EXPECT_EQ(convs, 5);
    Tensor x({1, 3, 32, 32});
    EXPECT_EQ(net.forward(x).shape(), (std::vector<int>{1, 10}));
}

TEST(Zoo, ConvDimsConsistentWithNetwork)
{
    const auto dims = alexNetCifarConvDims();
    ASSERT_EQ(dims.size(), 5u);
    Rng rng(1);
    auto net = buildAlexNetCifar(rng);
    const auto weights = net.weightParams();
    for (std::size_t i = 0; i < dims.size(); ++i) {
        EXPECT_EQ(static_cast<std::uint64_t>(weights[i].value->numel()),
                  dims[i].weights())
            << "conv layer " << i;
    }
}

TEST(Zoo, ImageNetAlexNetMatchesPublishedCounts)
{
    const auto dims = alexNetImageNetConvDims();
    ASSERT_EQ(dims.size(), 5u);
    std::uint64_t macs = 0, weights = 0;
    for (const auto &d : dims) {
        macs += d.macs();
        weights += d.weights();
    }
    // Published AlexNet conv totals: ~666M MACs, ~2.3M weights.
    EXPECT_NEAR(static_cast<double>(macs), 666e6, 10e6);
    EXPECT_NEAR(static_cast<double>(weights), 2.33e6, 0.05e6);
}

// ------------------------------------------------------------ serialize

TEST(Serialize, SaveLoadRoundTrip)
{
    Rng rng(3);
    Network a, b;
    a.addLayer<Dense>(4, 3, rng, "fc");
    b.addLayer<Dense>(4, 3, rng, "fc");
    const std::string path = ::testing::TempDir() + "vboost_params.bin";
    saveParameters(a, path);
    ASSERT_TRUE(loadParameters(b, path));
    const auto pa = a.params(), pb = b.params();
    for (std::size_t i = 0; i < pa.size(); ++i)
        for (std::size_t e = 0; e < pa[i].value->numel(); ++e)
            EXPECT_EQ((*pa[i].value)[e], (*pb[i].value)[e]);
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileReturnsFalse)
{
    Rng rng(3);
    Network net;
    net.addLayer<Dense>(2, 2, rng, "fc");
    EXPECT_FALSE(loadParameters(net, "/nonexistent/params.bin"));
}

TEST(Serialize, StructureMismatchIsFatal)
{
    Rng rng(3);
    Network a, b;
    a.addLayer<Dense>(4, 3, rng, "fc");
    b.addLayer<Dense>(4, 4, rng, "fc");
    const std::string path = ::testing::TempDir() + "vboost_params2.bin";
    saveParameters(a, path);
    EXPECT_THROW(loadParameters(b, path), FatalError);
    std::remove(path.c_str());
}

} // namespace
} // namespace vboost::dnn
