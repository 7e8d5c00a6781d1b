#include "dnn/layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/split.hpp"

namespace vboost::dnn {

// ---------------------------------------------------------------- Dense

Dense::Dense(int in, int out, Rng &rng, std::string layer_name)
    : in_(in), out_(out), name_(std::move(layer_name)),
      w_(Tensor::randn({in, out}, rng, std::sqrt(2.0 / in))),
      b_(Tensor::zeros({out})),
      wGrad_(Tensor::zeros({in, out})),
      bGrad_(Tensor::zeros({out}))
{
    if (in <= 0 || out <= 0)
        fatal("Dense ", name_, ": dimensions must be positive");
}

Tensor
Dense::forward(const Tensor &x, bool train)
{
    if (x.rank() != 2 || x.dim(1) != in_)
        fatal("Dense ", name_, ": expected [B, ", in_, "], got ",
              x.shapeString());
    const int batch = x.dim(0);
    Tensor y = Tensor::uninitialized({batch, out_});
    // y = x W + b. Training passes split by column panels of y;
    // inference stays serial (DESIGN.md §12, "Split training").
    gemmSplit(activeBackend(), train ? gemmParts(batch, in_, out_) : 1,
              x.data(), w_.data(), y.data(), batch, in_, out_, b_.data());
    if (train)
        cachedInput_ = x;
    return y;
}

void
Dense::backwardParams(const Tensor &grad_out)
{
    if (cachedInput_.numel() == 0)
        panic("Dense ", name_, ": backward without cached forward");
    const int batch = grad_out.dim(0);
    // dW = x^T g, split by row tiles of dW (each part zeroes its own
    // tile); db = sum_rows g, seeded at +0.0 and added in row order.
    gemmTransASplit(activeBackend(), gemmParts(in_, batch, out_),
                    cachedInput_.data(), grad_out.data(),
                    wGrad_.sizedLike(w_), in_, batch, out_,
                    /*accumulate=*/false);
    float *const db = bGrad_.sizedLike(b_);
    std::fill(db, db + out_, 0.0f);
    for (int i = 0; i < batch; ++i) {
        const float *row =
            grad_out.data() + static_cast<std::size_t>(i) * out_;
        for (int j = 0; j < out_; ++j)
            db[j] += row[j];
    }
}

Tensor
Dense::backward(const Tensor &grad_out)
{
    backwardParams(grad_out);
    // dx = g W^T, split by column panels of dx.
    const int batch = grad_out.dim(0);
    Tensor dx = Tensor::uninitialized({batch, in_});
    std::vector<std::vector<float>> scratch;
    gemmTransBSplit(activeBackend(), gemmParts(batch, out_, in_),
                    grad_out.data(), w_.data(), dx.data(), batch, out_, in_,
                    /*accumulate=*/false, scratch);
    return dx;
}

std::vector<ParamRef>
Dense::params()
{
    return {{&w_, &wGrad_, name_ + ".weight", true},
            {&b_, &bGrad_, name_ + ".bias", false}};
}

// --------------------------------------------------------------- Conv2d

Conv2d::Conv2d(int in_ch, int out_ch, int kernel, int pad, Rng &rng,
               std::string layer_name)
    : inCh_(in_ch), outCh_(out_ch), k_(kernel), pad_(pad),
      name_(std::move(layer_name)),
      w_(Tensor::randn({out_ch, in_ch * kernel * kernel}, rng,
                       std::sqrt(2.0 / (in_ch * kernel * kernel)))),
      b_(Tensor::zeros({out_ch})),
      wGrad_(Tensor::zeros({out_ch, in_ch * kernel * kernel})),
      bGrad_(Tensor::zeros({out_ch}))
{
    if (in_ch <= 0 || out_ch <= 0 || kernel <= 0 || pad < 0)
        fatal("Conv2d ", name_, ": invalid geometry");
}

void
Conv2d::im2col(const Tensor &x, int n, std::vector<float> &cols, int h,
               int w) const
{
    // cols is [inCh*k*k, h*w]; all backends produce bitwise-identical
    // columns (pure element copies), so forward and backward may run
    // on different backends without skew.
    const ConvGeom g{inCh_, outCh_, k_, pad_, h, w};
    const float *image = x.data() + static_cast<std::size_t>(n) *
                                        static_cast<std::size_t>(inCh_) *
                                        static_cast<std::size_t>(h) *
                                        static_cast<std::size_t>(w);
    activeBackend().im2col(image, g, cols);
}

void
Conv2d::col2im(const std::vector<float> &cols, Tensor &dx, int n, int h,
               int w) const
{
    const int out_h = h + 2 * pad_ - k_ + 1;
    const int out_w = w + 2 * pad_ - k_ + 1;
    const std::size_t spatial =
        static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w);
    std::size_t row = 0;
    for (int c = 0; c < inCh_; ++c) {
        for (int ki = 0; ki < k_; ++ki) {
            for (int kj = 0; kj < k_; ++kj, ++row) {
                const float *src = cols.data() + row * spatial;
                std::size_t idx = 0;
                for (int oi = 0; oi < out_h; ++oi) {
                    const int ii = oi + ki - pad_;
                    for (int oj = 0; oj < out_w; ++oj, ++idx) {
                        const int jj = oj + kj - pad_;
                        if (ii >= 0 && ii < h && jj >= 0 && jj < w)
                            dx.at(n, c, ii, jj) += src[idx];
                    }
                }
            }
        }
    }
}

Tensor
Conv2d::forward(const Tensor &x, bool train)
{
    if (x.rank() != 4 || x.dim(1) != inCh_)
        fatal("Conv2d ", name_, ": expected NCHW with C=", inCh_, ", got ",
              x.shapeString());
    const int batch = x.dim(0), h = x.dim(2), w = x.dim(3);
    const int out_h = h + 2 * pad_ - k_ + 1;
    const int out_w = w + 2 * pad_ - k_ + 1;
    if (out_h <= 0 || out_w <= 0)
        fatal("Conv2d ", name_, ": kernel larger than padded input");

    Tensor y = Tensor::uninitialized({batch, outCh_, out_h, out_w});
    const ConvGeom g{inCh_, outCh_, k_, pad_, h, w};
    const std::size_t spatial = g.spatial();
    const std::size_t per_image = static_cast<std::size_t>(inCh_) *
                                  static_cast<std::size_t>(h) *
                                  static_cast<std::size_t>(w);
    const Backend &backend = activeBackend();
    std::vector<float> cols(static_cast<std::size_t>(g.patch()) * spatial);
    for (int n = 0; n < batch; ++n) {
        // y[n] = W [outCh, patch] * im2col(x[n]) [patch, spatial] + b.
        float *ydst = y.data() +
            static_cast<std::size_t>(n) * outCh_ * spatial;
        backend.im2colConv(x.data() + static_cast<std::size_t>(n) *
                                          per_image,
                           w_.data(), b_.data(), ydst, g, cols);
    }
    if (train)
        cachedInput_ = x;
    return y;
}

void
Conv2d::backwardParams(const Tensor &grad_out)
{
    if (cachedInput_.numel() == 0)
        panic("Conv2d ", name_, ": backward without cached forward");
    const Tensor &x = cachedInput_;
    const int batch = x.dim(0), h = x.dim(2), w = x.dim(3);
    const int patch = inCh_ * k_ * k_;
    const std::size_t spatial = static_cast<std::size_t>(grad_out.dim(2)) *
                                static_cast<std::size_t>(grad_out.dim(3));

    const Backend &backend = activeBackend();
    const unsigned parts =
        gemmParts(outCh_, static_cast<int>(spatial), patch);
    float *const dw = wGrad_.sizedLike(w_);
    float *const db = bGrad_.sizedLike(b_);
    std::vector<float> cols;
    std::vector<std::vector<float>> scratch;
    // The first image writes dW and db, later ones add to them. Each
    // image's sums are dot products seeded at +0.0, which are never
    // -0.0, so writing one gives the bits of adding it to +0.0.
    for (int n = 0; n < batch; ++n) {
        const float *g = grad_out.data() +
            static_cast<std::size_t>(n) * outCh_ * spatial;
        // dW (+)= g [outCh, spatial] * cols^T [spatial, patch], split
        // by column panels of dW.
        im2col(x, n, cols, h, w);
        gemmTransBSplit(backend, parts, g, cols.data(), dw, outCh_,
                        static_cast<int>(spatial), patch,
                        /*accumulate=*/n > 0, scratch);
        // db (+)= row sums of g.
        for (int oc = 0; oc < outCh_; ++oc) {
            const float *chan = g + static_cast<std::size_t>(oc) * spatial;
            float acc = 0.0f;
            for (std::size_t i = 0; i < spatial; ++i)
                acc += chan[i];
            db[oc] = n > 0 ? db[oc] + acc : acc;
        }
    }
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    backwardParams(grad_out);
    const Tensor &x = cachedInput_;
    const int batch = x.dim(0), h = x.dim(2), w = x.dim(3);
    const int patch = inCh_ * k_ * k_;
    const std::size_t spatial = static_cast<std::size_t>(grad_out.dim(2)) *
                                static_cast<std::size_t>(grad_out.dim(3));

    const Backend &backend = activeBackend();
    const unsigned parts =
        gemmParts(patch, outCh_, static_cast<int>(spatial));
    Tensor dx({batch, inCh_, h, w});
    std::vector<float> dcols(static_cast<std::size_t>(patch) * spatial);
    for (int n = 0; n < batch; ++n) {
        const float *g = grad_out.data() +
            static_cast<std::size_t>(n) * outCh_ * spatial;
        // dcols = W^T [patch, outCh] * g [outCh, spatial], split by row
        // tiles of dcols.
        gemmTransASplit(backend, parts, w_.data(), g, dcols.data(), patch,
                        outCh_, static_cast<int>(spatial),
                        /*accumulate=*/false);
        col2im(dcols, dx, n, h, w);
    }
    return dx;
}

std::vector<ParamRef>
Conv2d::params()
{
    return {{&w_, &wGrad_, name_ + ".weight", true},
            {&b_, &bGrad_, name_ + ".bias", false}};
}

// ------------------------------------------------------------ MaxPool2d

MaxPool2d::MaxPool2d(std::string layer_name) : name_(std::move(layer_name))
{
}

Tensor
MaxPool2d::forward(const Tensor &x, bool train)
{
    if (x.rank() != 4)
        fatal("MaxPool2d ", name_, ": expected NCHW, got ",
              x.shapeString());
    const int batch = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    if (h % 2 != 0 || w % 2 != 0)
        fatal("MaxPool2d ", name_, ": odd spatial size ", h, "x", w);
    const int oh = h / 2, ow = w / 2;
    // Every output element is written below (backend pool or the
    // argmax loop), so skip the zero-fill.
    Tensor y = Tensor::uninitialized({batch, c, oh, ow});
    if (!train) {
        // Inference path: no argmax bookkeeping needed, so the pooling
        // itself goes through the active compute backend (§12).
        activeBackend().maxPool2x2(x.data(), y.data(), batch, c, h, w);
        return y;
    }
    argmax_.assign(y.numel(), 0);
    inShape_ = x.shape();
    std::size_t oidx = 0;
    for (int n = 0; n < batch; ++n) {
        for (int ch = 0; ch < c; ++ch) {
            for (int i = 0; i < oh; ++i) {
                for (int j = 0; j < ow; ++j, ++oidx) {
                    float best = x.at(n, ch, 2 * i, 2 * j);
                    int best_di = 0, best_dj = 0;
                    for (int di = 0; di < 2; ++di) {
                        for (int dj = 0; dj < 2; ++dj) {
                            const float v =
                                x.at(n, ch, 2 * i + di, 2 * j + dj);
                            if (v > best) {
                                best = v;
                                best_di = di;
                                best_dj = dj;
                            }
                        }
                    }
                    y[oidx] = best;
                    if (train)
                        argmax_[oidx] = best_di * 2 + best_dj;
                }
            }
        }
    }
    return y;
}

Tensor
MaxPool2d::backward(const Tensor &grad_out)
{
    if (inShape_.empty())
        panic("MaxPool2d ", name_, ": backward without cached forward");
    Tensor dx(inShape_);
    const int batch = inShape_[0], c = inShape_[1];
    const int oh = inShape_[2] / 2, ow = inShape_[3] / 2;
    std::size_t oidx = 0;
    for (int n = 0; n < batch; ++n) {
        for (int ch = 0; ch < c; ++ch) {
            for (int i = 0; i < oh; ++i) {
                for (int j = 0; j < ow; ++j, ++oidx) {
                    const int di = argmax_[oidx] / 2;
                    const int dj = argmax_[oidx] % 2;
                    dx.at(n, ch, 2 * i + di, 2 * j + dj) += grad_out[oidx];
                }
            }
        }
    }
    return dx;
}

// ----------------------------------------------------------------- Relu

namespace {

/** mask[i] = x[i] > 0 (the ReLU's pass-through pattern). */
void
positiveMask(const float *__restrict x, std::uint8_t *__restrict mask,
             std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        mask[i] = x[i] > 0.0f;
}

/** y[i] = mask[i] ? g[i] : +0.0f, as a branch-free bit select. */
void
maskedCopy(const float *__restrict g, const std::uint8_t *__restrict mask,
           float *__restrict y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) &
                                    (0u - std::uint32_t{mask[i]}));
}

} // namespace

Relu::Relu(std::string layer_name) : name_(std::move(layer_name)) {}

Tensor
Relu::forward(const Tensor &x, bool train)
{
    if (!train) {
        // Write straight into the output instead of copy-then-rewrite.
        Tensor y = Tensor::uninitialized(x.shape());
        activeBackend().relu(x.data(), y.data(), y.numel());
        return y;
    }
    const std::size_t n = x.numel();
    Tensor y = Tensor::uninitialized(x.shape());
    mask_.resize(n);
    const Backend &backend = activeBackend();
    const float *src = x.data();
    float *dst = y.data();
    std::uint8_t *mask = mask_.data();
    const unsigned parts = splitParts(n, kMinElemsPerPart);
    // Part p writes only its element range of y and mask_. Both loops
    // are branch-free: the backend ReLU is exactly x > 0 ? x : +0.0f.
    parallelFor(parts, static_cast<int>(parts),
                [&backend, parts, n, src, dst, mask](std::size_t p,
                                                     unsigned) {
                    const auto [begin, end] =
                        partRange(n, parts, static_cast<unsigned>(p));
                    backend.relu(src + begin, dst + begin, end - begin);
                    positiveMask(src + begin, mask + begin, end - begin);
                });
    return y;
}

Tensor
Relu::backward(const Tensor &grad_out)
{
    if (mask_.size() != grad_out.numel())
        panic("Relu ", name_, ": backward shape mismatch");
    const std::size_t n = grad_out.numel();
    Tensor dx = Tensor::uninitialized(grad_out.shape());
    const float *src = grad_out.data();
    float *dst = dx.data();
    const std::uint8_t *mask = mask_.data();
    const unsigned parts = splitParts(n, kMinElemsPerPart);
    // Part p writes only its element range of dx.
    parallelFor(parts, static_cast<int>(parts),
                [parts, n, src, dst, mask](std::size_t p, unsigned) {
                    const auto [begin, end] =
                        partRange(n, parts, static_cast<unsigned>(p));
                    maskedCopy(src + begin, mask + begin, dst + begin,
                               end - begin);
                });
    return dx;
}

// -------------------------------------------------------------- Flatten

Flatten::Flatten(std::string layer_name) : name_(std::move(layer_name)) {}

Tensor
Flatten::forward(const Tensor &x, bool train)
{
    if (x.rank() < 2)
        fatal("Flatten ", name_, ": expected rank >= 2");
    if (train)
        inShape_ = x.shape();
    int features = 1;
    for (int d = 1; d < x.rank(); ++d)
        features *= x.dim(d);
    return x.reshaped({x.dim(0), features});
}

Tensor
Flatten::backward(const Tensor &grad_out)
{
    if (inShape_.empty())
        panic("Flatten ", name_, ": backward without cached forward");
    return grad_out.reshaped(inShape_);
}

// ---------------------------------------------------------------- clone

std::unique_ptr<Layer>
Dense::clone() const
{
    return std::unique_ptr<Layer>(new Dense(*this));
}

std::unique_ptr<Layer>
Conv2d::clone() const
{
    return std::unique_ptr<Layer>(new Conv2d(*this));
}

std::unique_ptr<Layer>
MaxPool2d::clone() const
{
    return std::unique_ptr<Layer>(new MaxPool2d(*this));
}

std::unique_ptr<Layer>
Relu::clone() const
{
    return std::unique_ptr<Layer>(new Relu(*this));
}

std::unique_ptr<Layer>
Flatten::clone() const
{
    return std::unique_ptr<Layer>(new Flatten(*this));
}

} // namespace vboost::dnn
