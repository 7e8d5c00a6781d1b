/**
 * @file
 * A sequential network container plus the softmax cross-entropy loss:
 * everything the trainer and the fault-injection harness need to run
 * forward/backward passes and classify batches.
 */

#ifndef VBOOST_DNN_NETWORK_HPP
#define VBOOST_DNN_NETWORK_HPP

#include <memory>
#include <string>
#include <vector>

#include "dnn/layer.hpp"

namespace vboost::dnn {

/** A stack of layers applied in sequence. */
class Network
{
  public:
    Network() = default;
    Network(Network &&) = default;
    Network &operator=(Network &&) = default;

    /** Append a layer constructed in place. Returns a reference. */
    template <typename L, typename... Args>
    L &
    addLayer(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L &ref = *layer;
        layers_.push_back(std::move(layer));
        return ref;
    }

    /** Forward pass through all layers. */
    Tensor forward(const Tensor &x, bool train = false);

    /** Backward pass; returns dL/d(input). */
    Tensor backward(const Tensor &grad_out);

    /**
     * Backward pass for a caller that never reads dL/d(input), such
     * as training: the first layer with parameters writes its
     * parameter gradients only, and the layers before it are skipped.
     * Parameter gradients are bit-identical to backward()'s.
     */
    void backwardParams(const Tensor &grad_out);

    /** All parameter references, in layer order. */
    std::vector<ParamRef> params();

    /** References to weight parameters only (injection targets),
     *  in layer order: index k is "weight layer k". */
    std::vector<ParamRef> weightParams();

    /** Set every parameter gradient to zeros of its value's shape.
     *  A backward pass needs no zeroing: it writes its gradients and
     *  sizes the empty buffers a clone starts with. */
    void zeroGrads();

    /** Predicted class (argmax over logits) per batch row. */
    std::vector<int> predict(const Tensor &x);

    /** Fraction of rows whose argmax matches the label. */
    double accuracy(const Tensor &x, const std::vector<int> &labels);

    /** Number of layers. */
    std::size_t size() const { return layers_.size(); }

    /** Layer access. */
    Layer &layer(std::size_t i) { return *layers_[i]; }

    /** Deep-copy the parameter values from another structurally
     *  identical network; with `weights` false only the non-weight
     *  parameters (a caller that overwrites every weight). */
    void copyParamsFrom(Network &other, bool weights = true);

    /**
     * Structurally identical deep copy (layers, parameters, caches;
     * the gradient buffers start empty, see GradTensor).
     * The Monte-Carlo engine clones one scratch network per worker
     * thread so corrupted evaluations never share mutable state.
     */
    Network clone() const;

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

/** Softmax + cross-entropy loss over integer class labels. */
class SoftmaxCrossEntropy
{
  public:
    /**
     * Compute mean loss and the gradient w.r.t. logits.
     *
     * @param logits [B, classes].
     * @param labels class index per row; rows whose label is out of
     *        range are rejected.
     * @param grad output gradient tensor (resized to match logits).
     * @return mean cross-entropy loss.
     */
    double lossAndGrad(const Tensor &logits, const std::vector<int> &labels,
                       Tensor &grad) const;
};

} // namespace vboost::dnn

#endif // VBOOST_DNN_NETWORK_HPP
