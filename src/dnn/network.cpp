#include "dnn/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace vboost::dnn {

Tensor
Network::forward(const Tensor &x, bool train)
{
    if (layers_.empty())
        fatal("Network::forward: empty network");
    Tensor cur = x;
    for (auto &layer : layers_)
        cur = layer->forward(cur, train);
    return cur;
}

Tensor
Network::backward(const Tensor &grad_out)
{
    Tensor cur = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        cur = (*it)->backward(cur);
    return cur;
}

void
Network::backwardParams(const Tensor &grad_out)
{
    std::size_t first = 0;
    while (first < layers_.size() && layers_[first]->params().empty())
        ++first;
    if (first == layers_.size())
        return;
    Tensor cur = grad_out;
    for (std::size_t i = layers_.size() - 1; i > first; --i)
        cur = layers_[i]->backward(cur);
    layers_[first]->backwardParams(cur);
}

std::vector<ParamRef>
Network::params()
{
    std::vector<ParamRef> out;
    for (auto &layer : layers_) {
        for (auto &p : layer->params())
            out.push_back(p);
    }
    return out;
}

std::vector<ParamRef>
Network::weightParams()
{
    std::vector<ParamRef> out;
    for (auto &p : params()) {
        if (p.isWeight)
            out.push_back(p);
    }
    return out;
}

void
Network::zeroGrads()
{
    for (auto &p : params())
        *p.grad = Tensor::zeros(p.value->shape());
}

std::vector<int>
Network::predict(const Tensor &x)
{
    Tensor logits = forward(x, /*train=*/false);
    if (logits.rank() != 2)
        fatal("Network::predict: logits must be rank-2");
    const int batch = logits.dim(0), classes = logits.dim(1);
    std::vector<int> out(static_cast<std::size_t>(batch));
    for (int i = 0; i < batch; ++i) {
        int best = 0;
        for (int j = 1; j < classes; ++j) {
            if (logits.at(i, j) > logits.at(i, best))
                best = j;
        }
        out[static_cast<std::size_t>(i)] = best;
    }
    return out;
}

double
Network::accuracy(const Tensor &x, const std::vector<int> &labels)
{
    if (static_cast<std::size_t>(x.dim(0)) != labels.size())
        fatal("Network::accuracy: batch/label size mismatch");
    const auto pred = predict(x);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < labels.size(); ++i)
        correct += pred[i] == labels[i];
    return static_cast<double>(correct) / static_cast<double>(labels.size());
}

void
Network::copyParamsFrom(Network &other, bool weights)
{
    auto dst = params();
    auto src = other.params();
    if (dst.size() != src.size())
        fatal("Network::copyParamsFrom: structure mismatch (", dst.size(),
              " vs ", src.size(), " parameters)");
    for (std::size_t i = 0; i < dst.size(); ++i) {
        if (dst[i].value->shape() != src[i].value->shape())
            fatal("Network::copyParamsFrom: shape mismatch at ",
                  dst[i].name);
        if (weights || !src[i].isWeight)
            *dst[i].value = *src[i].value;
    }
}

Network
Network::clone() const
{
    Network copy;
    copy.layers_.reserve(layers_.size());
    for (const auto &layer : layers_)
        copy.layers_.push_back(layer->clone());
    return copy;
}

double
SoftmaxCrossEntropy::lossAndGrad(const Tensor &logits,
                                 const std::vector<int> &labels,
                                 Tensor &grad) const
{
    if (logits.rank() != 2)
        fatal("SoftmaxCrossEntropy: logits must be rank-2");
    const int batch = logits.dim(0), classes = logits.dim(1);
    if (static_cast<std::size_t>(batch) != labels.size())
        fatal("SoftmaxCrossEntropy: batch/label size mismatch");

    grad = Tensor({batch, classes});
    double total_loss = 0.0;
    const double inv_batch = 1.0 / batch;
    for (int i = 0; i < batch; ++i) {
        const int label = labels[static_cast<std::size_t>(i)];
        if (label < 0 || label >= classes)
            fatal("SoftmaxCrossEntropy: label ", label,
                  " out of range [0,", classes, ")");
        float maxv = logits.at(i, 0);
        for (int j = 1; j < classes; ++j)
            maxv = std::max(maxv, logits.at(i, j));
        double denom = 0.0;
        for (int j = 0; j < classes; ++j)
            denom += std::exp(static_cast<double>(logits.at(i, j) - maxv));
        const double log_denom = std::log(denom);
        total_loss +=
            log_denom - (static_cast<double>(logits.at(i, label)) - maxv);
        for (int j = 0; j < classes; ++j) {
            const double p =
                std::exp(static_cast<double>(logits.at(i, j) - maxv)) /
                denom;
            grad.at(i, j) = static_cast<float>(
                (p - (j == label ? 1.0 : 0.0)) * inv_batch);
        }
    }
    return total_loss * inv_batch;
}

} // namespace vboost::dnn
