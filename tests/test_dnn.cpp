/**
 * @file
 * Tests for the network container, trainer convergence, quantization,
 * synthetic datasets, model zoo and parameter serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

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

/** Every parameter gradient of `a` equals `b`'s, shape and bits. */
void
expectSameGradients(Network &a, Network &b)
{
    const auto pa = a.params();
    const auto pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i].grad->shape(), pb[i].grad->shape()) << pa[i].name;
        EXPECT_EQ(std::memcmp(pa[i].grad->data(), pb[i].grad->data(),
                              pa[i].grad->numel() * sizeof(float)),
                  0)
            << pa[i].name;
    }
}

/** Conv2d + ReLU + Flatten + Dense over [2, 1, 4, 4] images. */
Network
convDenseNet(Rng &rng)
{
    Network net;
    net.addLayer<Conv2d>(1, 2, 3, 1, rng, "conv");
    net.addLayer<Relu>("relu");
    net.addLayer<Flatten>("flat");
    net.addLayer<Dense>(2 * 4 * 4, 3, rng, "fc");
    return net;
}

TEST(Network, CloneStartsWithoutGradients)
{
    // A clone serves inference: it copies the parameters but not the
    // gradient buffers. Its first backward pass sizes them and writes
    // the original's gradients bit for bit.
    Rng rng(5);
    Network net = convDenseNet(rng);
    const Tensor x = Tensor::randn({2, 1, 4, 4}, rng, 1.0);
    const Tensor g = Tensor::randn({2, 3}, rng, 1.0);
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
    copy.backward(g);
    expectSameGradients(copy, net);

    // A cloned layer's backward sizes its own buffers too.
    const auto conv = net.layer(0).clone();
    conv->forward(x, /*train=*/true);
    conv->backward(Tensor({2, 2, 4, 4}));
    for (const auto &p : conv->params())
        EXPECT_EQ(p.grad->shape(), p.value->shape()) << p.name;
}

TEST(Network, BackwardWritesItsGradients)
{
    // Two passes with no zeroing in between: the second pass's
    // gradients are its own, bit for bit a fresh clone's single pass,
    // through backward() and through training's backwardParams().
    for (bool params_only : {false, true}) {
        Rng rng(8);
        Network net = convDenseNet(rng);
        const Tensor x1 = Tensor::randn({2, 1, 4, 4}, rng, 1.0);
        const Tensor g1 = Tensor::randn({2, 3}, rng, 1.0);
        const Tensor x2 = Tensor::randn({2, 1, 4, 4}, rng, 1.0);
        const Tensor g2 = Tensor::randn({2, 3}, rng, 1.0);
        const auto pass = [params_only](Network &n, const Tensor &x,
                                        const Tensor &g) {
            n.forward(x, /*train=*/true);
            if (params_only)
                n.backwardParams(g);
            else
                n.backward(g);
        };
        pass(net, x1, g1);
        pass(net, x2, g2);
        Network fresh = net.clone();
        pass(fresh, x2, g2);
        SCOPED_TRACE(params_only ? "backwardParams" : "backward");
        expectSameGradients(net, fresh);
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

TEST(Trainer, MomentumUpdateMatchesScalarLoop)
{
    // momentumUpdate runs four lanes at a time; values and velocities
    // must equal the scalar double-then-float loop bit for bit, over
    // tails of 1-3 elements, NaN and +/-inf gradients or velocities,
    // and each clamp on or off.
    const auto scalar = [](float *value, float *velocity, const float *grad,
                           std::size_t n, double momentum, double lr,
                           float gclip, float wclip) {
        for (std::size_t e = 0; e < n; ++e) {
            float ge = grad[e];
            if (gclip > 0.0f)
                ge = std::clamp(ge, -gclip, gclip);
            velocity[e] =
                static_cast<float>(momentum * velocity[e] - lr * ge);
            value[e] += velocity[e];
            if (wclip > 0.0f)
                value[e] = std::clamp(value[e], -wclip, wclip);
        }
    };
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {nan, -nan, inf, -inf, 0.0f, -0.0f, 1e30f};
    Rng rng(13);
    for (std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 65, 66, 67, 1000}) {
        for (float gclip : {0.0f, 0.05f}) {
            for (float wclip : {0.0f, 0.3f}) {
                for (bool special_velocity : {false, true}) {
                    std::vector<float> value(n), velocity(n), grad(n);
                    for (std::size_t e = 0; e < n; ++e) {
                        value[e] = static_cast<float>(rng.normal(0.0, 0.3));
                        velocity[e] =
                            static_cast<float>(rng.normal(0.0, 0.05));
                        grad[e] = static_cast<float>(rng.normal(0.0, 1.0));
                        if (rng.uniformInt(3) == 0) {
                            float &x =
                                special_velocity ? velocity[e] : grad[e];
                            x = specials[rng.uniformInt(7)];
                        }
                    }
                    std::vector<float> value1 = value, velocity1 = velocity;
                    scalar(value.data(), velocity.data(), grad.data(), n,
                           0.9, 0.05, gclip, wclip);
                    momentumUpdate(value1.data(), velocity1.data(),
                                   grad.data(), n, 0.9, 0.05, gclip, wclip);
                    EXPECT_EQ(std::memcmp(value.data(), value1.data(),
                                          n * sizeof(float)),
                              0)
                        << "n=" << n << " gclip=" << gclip
                        << " wclip=" << wclip;
                    EXPECT_EQ(std::memcmp(velocity.data(), velocity1.data(),
                                          n * sizeof(float)),
                              0)
                        << "n=" << n << " gclip=" << gclip
                        << " wclip=" << wclip;
                }
            }
        }
    }
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

TEST(Quantize, MaxAbsMatchesSerialFold)
{
    // maxAbs folds sixteen floats at a time into four accumulators; it
    // must return the serial std::max fold's bits at every length and
    // tail, ignore a NaN in any lane position, and take +/-0.0 and
    // +/-inf like the fold.
    const auto serial = [](const float *x, std::size_t n) {
        float m = 0.0f;
        for (std::size_t i = 0; i < n; ++i)
            m = std::max(m, std::fabs(x[i]));
        return m;
    };
    const auto same = [&](const std::vector<float> &v, std::size_t n) {
        return std::bit_cast<std::uint32_t>(maxAbs(v.data(), n)) ==
               std::bit_cast<std::uint32_t>(serial(v.data(), n));
    };
    Rng rng(12);
    std::vector<float> v(340003);
    for (auto &x : v)
        x = static_cast<float>(rng.normal(0.0, 1.0));
    for (std::size_t n = 0; n <= 67; ++n)
        EXPECT_TRUE(same(v, n)) << "n=" << n;
    for (std::size_t n : {std::size_t{340000}, std::size_t{340003}})
        EXPECT_TRUE(same(v, n)) << "n=" << n;

    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::size_t n = 67;
    for (std::size_t pos = 0; pos < n; ++pos) {
        for (float special : {nan, -nan, -1000.0f, inf, -inf}) {
            std::vector<float> w(v.begin(), v.begin() + n);
            w[pos] = special;
            EXPECT_TRUE(same(w, n)) << "pos=" << pos << " x=" << special;
        }
    }
    for (const std::vector<float> &w :
         {std::vector<float>(40, 0.0f), std::vector<float>(40, -0.0f),
          std::vector<float>(40, nan), std::vector<float>(40, -inf)})
        EXPECT_TRUE(same(w, w.size())) << "x=" << w[0];
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
