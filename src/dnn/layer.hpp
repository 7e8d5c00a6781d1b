/**
 * @file
 * Layer interface of the from-scratch DNN engine. Layers own their
 * parameters and gradients and cache whatever the backward pass needs.
 * Parameter tensors are exposed with names and a weight/bias tag so
 * the fault-injection harness can target "the weights of layer k"
 * exactly as the paper does (Sec. 2, Fig. 2).
 */

#ifndef VBOOST_DNN_LAYER_HPP
#define VBOOST_DNN_LAYER_HPP

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dnn/tensor.hpp"

namespace vboost::dnn {

/**
 * A parameter's gradient buffer. A copy starts empty: a cloned layer
 * (a serving slot or Monte-Carlo scratch network) never reads its
 * gradients, and its first backward pass sizes the buffer.
 */
class GradTensor : public Tensor
{
  public:
    GradTensor() = default;
    explicit GradTensor(Tensor t) : Tensor(std::move(t)) {}
    GradTensor(const GradTensor &) : Tensor() {}
    GradTensor &operator=(const GradTensor &) = delete;

    /** Shape an empty buffer like `value` (contents unspecified; a
     *  backward pass then writes every element) and return its data. */
    float *
    sizedLike(const Tensor &value)
    {
        if (shape() != value.shape())
            Tensor::operator=(Tensor::uninitialized(value.shape()));
        return data();
    }
};

/** A named reference to one parameter tensor and its gradient. */
struct ParamRef
{
    /** Parameter value (owned by the layer). */
    Tensor *value = nullptr;
    /** Gradient of the last backward pass (owned by the layer). */
    Tensor *grad = nullptr;
    /** Diagnostic name like "fc1.weight". */
    std::string name;
    /** True for multiplicative weights, false for biases. The paper's
     *  experiments inject faults into weights. */
    bool isWeight = false;
};

/** Abstract differentiable layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Forward pass.
     * @param x input batch.
     * @param train when true, cache activations for backward().
     */
    virtual Tensor forward(const Tensor &x, bool train) = 0;

    /**
     * Backward pass: consume dL/d(output), write this batch's
     * parameter gradients (no zeroing needed before it), return
     * dL/d(input). Only valid after forward(train).
     */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /**
     * backward() for a caller that never reads dL/d(input): write the
     * parameter gradients only (bit-identical to backward()'s).
     * The default runs backward() and drops its result.
     */
    virtual void
    backwardParams(const Tensor &grad_out)
    {
        backward(grad_out);
    }

    /** Parameter references (empty for stateless layers). */
    virtual std::vector<ParamRef> params() { return {}; }

    /**
     * Deep copy of this layer, parameters included; its gradient
     * buffers start empty (GradTensor). The fault-injection engine
     * clones one scratch network per worker thread from it.
     */
    virtual std::unique_ptr<Layer> clone() const = 0;

    /** Layer name for diagnostics and injection targeting. */
    virtual std::string name() const = 0;
};

} // namespace vboost::dnn

#endif // VBOOST_DNN_LAYER_HPP
