/**
 * @file
 * Concrete layers: Dense (fully connected), Conv2d (im2col + GEMM),
 * MaxPool2d, ReLU and Flatten. Enough to express the paper's two
 * workloads: the Minerva-style FC-DNN (784-256-256-256-32) and the
 * 5-conv-layer AlexNet-for-CIFAR.
 */

#ifndef VBOOST_DNN_LAYERS_HPP
#define VBOOST_DNN_LAYERS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/layer.hpp"

namespace vboost::dnn {

/** Fully connected layer: y = x W + b, x [B, in], W [in, out]. */
class Dense : public Layer
{
  public:
    /**
     * @param in input features.
     * @param out output features.
     * @param rng initializer randomness (He/Kaiming scaling).
     * @param layer_name diagnostic name.
     */
    Dense(int in, int out, Rng &rng, std::string layer_name);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    void backwardParams(const Tensor &grad_out) override;
    std::vector<ParamRef> params() override;
    std::string name() const override { return name_; }
    std::unique_ptr<Layer> clone() const override;

    int inFeatures() const { return in_; }
    int outFeatures() const { return out_; }

    Tensor &weight() { return w_; }
    Tensor &bias() { return b_; }

  private:
    int in_, out_;
    std::string name_;
    Tensor w_, b_;
    GradTensor wGrad_, bGrad_;
    Tensor cachedInput_;
};

/** 2-D convolution, stride 1, symmetric zero padding; NCHW layout. */
class Conv2d : public Layer
{
  public:
    /**
     * @param in_ch input channels.
     * @param out_ch output channels.
     * @param kernel square kernel size.
     * @param pad symmetric zero padding.
     * @param rng initializer randomness.
     * @param layer_name diagnostic name.
     */
    Conv2d(int in_ch, int out_ch, int kernel, int pad, Rng &rng,
           std::string layer_name);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    void backwardParams(const Tensor &grad_out) override;
    std::vector<ParamRef> params() override;
    std::string name() const override { return name_; }
    std::unique_ptr<Layer> clone() const override;

    int inChannels() const { return inCh_; }
    int outChannels() const { return outCh_; }
    int kernel() const { return k_; }

    Tensor &weight() { return w_; }

  private:
    /** Expand input patches into columns: [C*k*k, H*W] per image. */
    void im2col(const Tensor &x, int n, std::vector<float> &cols,
                int h, int w) const;
    /** Scatter column gradients back to an image gradient. */
    void col2im(const std::vector<float> &cols, Tensor &dx, int n,
                int h, int w) const;

    int inCh_, outCh_, k_, pad_;
    std::string name_;
    Tensor w_;  // [outCh, inCh*k*k]
    Tensor b_;  // [outCh]
    GradTensor wGrad_, bGrad_;
    Tensor cachedInput_;
};

/** 2x2 max pooling with stride 2 (NCHW). */
class MaxPool2d : public Layer
{
  public:
    explicit MaxPool2d(std::string layer_name);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return name_; }
    std::unique_ptr<Layer> clone() const override;

  private:
    std::string name_;
    std::vector<int> argmax_;
    std::vector<int> inShape_;
};

/** Elementwise rectified linear unit. */
class Relu : public Layer
{
  public:
    explicit Relu(std::string layer_name);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return name_; }
    std::unique_ptr<Layer> clone() const override;

  private:
    std::string name_;
    /** 1 where the training input was > 0 (the gradient passes). */
    std::vector<std::uint8_t> mask_;
};

/** Collapse NCHW feature maps to [B, C*H*W] rows. */
class Flatten : public Layer
{
  public:
    explicit Flatten(std::string layer_name);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return name_; }
    std::unique_ptr<Layer> clone() const override;

  private:
    std::string name_;
    std::vector<int> inShape_;
};

} // namespace vboost::dnn

#endif // VBOOST_DNN_LAYERS_HPP
