/**
 * @file
 * Layer tests: shape handling, analytic cases, and numerical gradient
 * checks for every trainable layer (central differences against the
 * backprop gradients).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/logging.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"

namespace vboost::dnn {
namespace {

/**
 * Numerical gradient check: perturb every input element and every
 * parameter element, compare central differences of a scalar loss
 * (sum of outputs weighted by fixed coefficients) with backprop.
 */
void
checkGradients(Layer &layer, const Tensor &input, double tol = 2e-2)
{
    Rng rng(12345);
    Tensor x = input;

    auto loss_of = [&](Layer &l, const Tensor &in,
                       std::vector<float> &coeffs) {
        Tensor out = l.forward(in, /*train=*/true);
        if (coeffs.empty()) {
            coeffs.resize(out.numel());
            Rng crng(77);
            for (auto &c : coeffs)
                c = static_cast<float>(crng.normal());
        }
        double loss = 0;
        for (std::size_t i = 0; i < out.numel(); ++i)
            loss += coeffs[i] * out[i];
        return loss;
    };

    std::vector<float> coeffs;
    loss_of(layer, x, coeffs);

    // Backprop gradients.
    Tensor out = layer.forward(x, true);
    Tensor grad_out(out.shape());
    for (std::size_t i = 0; i < out.numel(); ++i)
        grad_out[i] = coeffs[i];
    Tensor dx = layer.backward(grad_out);

    const float eps = 1e-2f;
    // Check a sample of input gradients.
    for (std::size_t i = 0; i < x.numel();
         i += std::max<std::size_t>(1, x.numel() / 37)) {
        const float orig = x[i];
        x[i] = orig + eps;
        const double up = loss_of(layer, x, coeffs);
        x[i] = orig - eps;
        const double dn = loss_of(layer, x, coeffs);
        x[i] = orig;
        const double numeric = (up - dn) / (2 * eps);
        EXPECT_NEAR(dx[i], numeric, tol * (1 + std::fabs(numeric)))
            << "input grad " << i;
    }

    // Check a sample of parameter gradients.
    for (auto &p : layer.params()) {
        Tensor &w = *p.value;
        const Tensor &g = *p.grad;
        for (std::size_t i = 0; i < w.numel();
             i += std::max<std::size_t>(1, w.numel() / 23)) {
            const float orig = w[i];
            w[i] = orig + eps;
            const double up = loss_of(layer, x, coeffs);
            w[i] = orig - eps;
            const double dn = loss_of(layer, x, coeffs);
            w[i] = orig;
            const double numeric = (up - dn) / (2 * eps);
            EXPECT_NEAR(g[i], numeric, tol * (1 + std::fabs(numeric)))
                << p.name << " grad " << i;
        }
    }
}

TEST(Dense, ForwardMatchesManualComputation)
{
    Rng rng(1);
    Dense d(2, 3, rng, "fc");
    d.weight().at(0, 0) = 1;
    d.weight().at(0, 1) = 2;
    d.weight().at(0, 2) = 3;
    d.weight().at(1, 0) = 4;
    d.weight().at(1, 1) = 5;
    d.weight().at(1, 2) = 6;
    d.bias()[0] = 0.5f;
    d.bias()[1] = -0.5f;
    d.bias()[2] = 0.0f;
    Tensor x({1, 2});
    x.at(0, 0) = 1;
    x.at(0, 1) = 2;
    Tensor y = d.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 1 * 1 + 2 * 4 + 0.5f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 1 * 2 + 2 * 5 - 0.5f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 1 * 3 + 2 * 6);
}

TEST(Dense, ShapeValidationAndNames)
{
    Rng rng(1);
    Dense d(4, 2, rng, "fc1");
    EXPECT_THROW(d.forward(Tensor({2, 3}), false), FatalError);
    EXPECT_THROW(Dense(0, 2, rng, "bad"), FatalError);
    auto params = d.params();
    ASSERT_EQ(params.size(), 2u);
    EXPECT_EQ(params[0].name, "fc1.weight");
    EXPECT_TRUE(params[0].isWeight);
    EXPECT_EQ(params[1].name, "fc1.bias");
    EXPECT_FALSE(params[1].isWeight);
}

TEST(Dense, BackwardWithoutForwardPanics)
{
    Rng rng(1);
    Dense d(2, 2, rng, "fc");
    EXPECT_THROW(d.backward(Tensor({1, 2})), PanicError);
}

TEST(Dense, GradientCheck)
{
    Rng rng(3);
    Dense d(5, 4, rng, "fc");
    const Tensor x = Tensor::randn({3, 5}, rng, 1.0);
    checkGradients(d, x);
}

TEST(Conv2d, IdentityKernelPassesThrough)
{
    Rng rng(1);
    Conv2d conv(1, 1, 3, 1, rng, "conv");
    conv.weight().fill(0.0f);
    // Center tap of the 3x3 kernel = 1: identity convolution.
    conv.weight().at(0, 4) = 1.0f;
    Tensor x = Tensor::randn({2, 1, 5, 5}, rng, 1.0);
    Tensor y = conv.forward(x, false);
    ASSERT_EQ(y.shape(), x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i)
        EXPECT_NEAR(y[i], x[i], 1e-6);
}

TEST(Conv2d, OutputShapeFollowsGeometry)
{
    Rng rng(1);
    Conv2d conv(3, 8, 5, 2, rng, "conv");
    Tensor x({2, 3, 32, 32});
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int>{2, 8, 32, 32}));

    Conv2d valid(1, 1, 3, 0, rng, "v");
    Tensor x2({1, 1, 8, 8});
    EXPECT_EQ(valid.forward(x2, false).shape(),
              (std::vector<int>{1, 1, 6, 6}));
    EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8}), false), FatalError);
}

TEST(Conv2d, GradientCheck)
{
    Rng rng(5);
    Conv2d conv(2, 3, 3, 1, rng, "conv");
    const Tensor x = Tensor::randn({2, 2, 6, 6}, rng, 1.0);
    checkGradients(conv, x);
}

TEST(MaxPool2d, SelectsWindowMaxima)
{
    MaxPool2d pool("pool");
    Tensor x({1, 1, 4, 4});
    for (int i = 0; i < 16; ++i)
        x[static_cast<std::size_t>(i)] = static_cast<float>(i);
    Tensor y = pool.forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(y[0], 5);
    EXPECT_FLOAT_EQ(y[1], 7);
    EXPECT_FLOAT_EQ(y[2], 13);
    EXPECT_FLOAT_EQ(y[3], 15);
    EXPECT_THROW(pool.forward(Tensor({1, 1, 5, 4}), false), FatalError);
}

TEST(MaxPool2d, BackwardRoutesToArgmax)
{
    MaxPool2d pool("pool");
    Tensor x({1, 1, 2, 2});
    x[0] = 1;
    x[1] = 9;
    x[2] = 3;
    x[3] = 2;
    pool.forward(x, true);
    Tensor g({1, 1, 1, 1});
    g[0] = 5;
    Tensor dx = pool.backward(g);
    EXPECT_FLOAT_EQ(dx[0], 0);
    EXPECT_FLOAT_EQ(dx[1], 5);
    EXPECT_FLOAT_EQ(dx[2], 0);
    EXPECT_FLOAT_EQ(dx[3], 0);
}

TEST(Relu, ClampsAndMasksGradient)
{
    Relu relu("relu");
    Tensor x({1, 4});
    x[0] = -1;
    x[1] = 2;
    x[2] = 0;
    x[3] = 0.5f;
    Tensor y = relu.forward(x, true);
    EXPECT_FLOAT_EQ(y[0], 0);
    EXPECT_FLOAT_EQ(y[1], 2);
    EXPECT_FLOAT_EQ(y[2], 0);
    EXPECT_FLOAT_EQ(y[3], 0.5f);
    Tensor g({1, 4});
    g.fill(1.0f);
    Tensor dx = relu.backward(g);
    EXPECT_FLOAT_EQ(dx[0], 0);
    EXPECT_FLOAT_EQ(dx[1], 1);
    EXPECT_FLOAT_EQ(dx[2], 0);
    EXPECT_FLOAT_EQ(dx[3], 1);
}

TEST(Flatten, RoundTripsShape)
{
    Flatten f("flat");
    Rng rng(1);
    Tensor x = Tensor::randn({2, 3, 4, 5}, rng, 1.0);
    Tensor y = f.forward(x, true);
    EXPECT_EQ(y.shape(), (std::vector<int>{2, 60}));
    Tensor dx = f.backward(y);
    EXPECT_EQ(dx.shape(), x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i)
        EXPECT_EQ(dx[i], x[i]);
}

TEST(SoftmaxCrossEntropyLoss, UniformLogitsGiveLogC)
{
    SoftmaxCrossEntropy loss;
    Tensor logits({2, 4});
    Tensor grad;
    const double l = loss.lossAndGrad(logits, {0, 3}, grad);
    EXPECT_NEAR(l, std::log(4.0), 1e-6);
    // Gradient rows sum to zero.
    for (int i = 0; i < 2; ++i) {
        float sum = 0;
        for (int j = 0; j < 4; ++j)
            sum += grad.at(i, j);
        EXPECT_NEAR(sum, 0.0f, 1e-6f);
    }
}

TEST(SoftmaxCrossEntropyLoss, ConfidentCorrectHasLowLoss)
{
    SoftmaxCrossEntropy loss;
    Tensor logits({1, 3});
    logits.at(0, 1) = 10.0f;
    Tensor grad;
    EXPECT_LT(loss.lossAndGrad(logits, {1}, grad), 1e-3);
    EXPECT_GT(loss.lossAndGrad(logits, {0}, grad), 5.0);
}

TEST(SoftmaxCrossEntropyLoss, ValidatesLabels)
{
    SoftmaxCrossEntropy loss;
    Tensor logits({1, 3});
    Tensor grad;
    EXPECT_THROW(loss.lossAndGrad(logits, {3}, grad), FatalError);
    EXPECT_THROW(loss.lossAndGrad(logits, {-1}, grad), FatalError);
    EXPECT_THROW(loss.lossAndGrad(logits, {0, 1}, grad), FatalError);
}

TEST(SoftmaxCrossEntropyLoss, GradientMatchesNumerical)
{
    SoftmaxCrossEntropy loss;
    Rng rng(9);
    Tensor logits = Tensor::randn({2, 5}, rng, 2.0);
    const std::vector<int> labels{1, 4};
    Tensor grad;
    loss.lossAndGrad(logits, labels, grad);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < logits.numel(); ++i) {
        Tensor up = logits, dn = logits;
        up[i] += eps;
        dn[i] -= eps;
        Tensor tmp;
        const double numeric = (loss.lossAndGrad(up, labels, tmp) -
                                loss.lossAndGrad(dn, labels, tmp)) /
                               (2 * eps);
        EXPECT_NEAR(grad[i], numeric, 1e-3);
    }
}

} // namespace
} // namespace vboost::dnn
