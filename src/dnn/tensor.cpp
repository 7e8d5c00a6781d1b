#include "dnn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/logging.hpp"

namespace vboost::dnn {

namespace {

std::size_t
shapeNumel(const std::vector<int> &shape)
{
    std::size_t n = 1;
    for (int d : shape) {
        if (d <= 0)
            fatal("Tensor: dimensions must be positive, got ", d);
        n *= static_cast<std::size_t>(d);
    }
    return n;
}

} // namespace

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape))
{
    if (shape_.empty() || shape_.size() > 4)
        fatal("Tensor: rank must be 1..4, got ", shape_.size());
    data_.assign(shapeNumel(shape_), 0.0f);
}

Tensor
Tensor::zeros(std::vector<int> shape)
{
    return Tensor(std::move(shape));
}

Tensor
Tensor::uninitialized(std::vector<int> shape)
{
    Tensor t;
    t.shape_ = std::move(shape);
    if (t.shape_.empty() || t.shape_.size() > 4)
        fatal("Tensor: rank must be 1..4, got ", t.shape_.size());
    // resize() default-initializes through NoInitAlloc: no zero-fill.
    t.data_.resize(shapeNumel(t.shape_));
    return t;
}

Tensor
Tensor::randn(std::vector<int> shape, Rng &rng, double stddev)
{
    Tensor t(std::move(shape));
    for (auto &v : t.data_)
        v = static_cast<float>(rng.normal(0.0, stddev));
    return t;
}

int
Tensor::dim(int d) const
{
    if (d < 0 || d >= rank())
        fatal("Tensor::dim: dimension ", d, " out of rank ", rank());
    return shape_[static_cast<std::size_t>(d)];
}

float &
Tensor::at(int i, int j)
{
    return data_[static_cast<std::size_t>(i) *
                     static_cast<std::size_t>(shape_[1]) +
                 static_cast<std::size_t>(j)];
}

float
Tensor::at(int i, int j) const
{
    return data_[static_cast<std::size_t>(i) *
                     static_cast<std::size_t>(shape_[1]) +
                 static_cast<std::size_t>(j)];
}

float &
Tensor::at(int n, int c, int h, int w)
{
    const auto [N, C, H, W] =
        std::tuple{shape_[0], shape_[1], shape_[2], shape_[3]};
    (void)N;
    return data_[((static_cast<std::size_t>(n) * C + c) * H + h) * W + w];
}

float
Tensor::at(int n, int c, int h, int w) const
{
    const auto [N, C, H, W] =
        std::tuple{shape_[0], shape_[1], shape_[2], shape_[3]};
    (void)N;
    return data_[((static_cast<std::size_t>(n) * C + c) * H + h) * W + w];
}

Tensor
Tensor::reshaped(std::vector<int> new_shape) const
{
    if (shapeNumel(new_shape) != numel())
        fatal("Tensor::reshaped: element count mismatch (", numel(),
              " != ", shapeNumel(new_shape), ")");
    Tensor t(std::move(new_shape));
    t.data_ = data_;
    return t;
}

void
Tensor::fill(float v)
{
    for (auto &x : data_)
        x = v;
}

float
maxAbs(const float *x, std::size_t n)
{
    // max is exact and NaN elements are ignored (std::max keeps m), so
    // any lane or range split gives the serial fold's result:
    // MAXPS(|v|, m) returns its second operand when |v| is NaN. Four
    // independent accumulators keep the fold off MAXPS's latency.
    float m = 0.0f;
    std::size_t i = 0;
#if defined(__SSE2__)
    const __m128 abs_mask =
        _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
    const auto fold = [abs_mask, x](std::size_t at, __m128 acc) {
        return _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + at), abs_mask), acc);
    };
    __m128 m0 = _mm_setzero_ps(), m1 = m0, m2 = m0, m3 = m0;
    for (; i + 16 <= n; i += 16) {
        m0 = fold(i, m0);
        m1 = fold(i + 4, m1);
        m2 = fold(i + 8, m2);
        m3 = fold(i + 12, m3);
    }
    for (; i + 4 <= n; i += 4)
        m0 = fold(i, m0);
    alignas(16) float lanes[4];
    _mm_store_ps(lanes, _mm_max_ps(_mm_max_ps(m0, m1), _mm_max_ps(m2, m3)));
    for (float v : lanes)
        m = std::max(m, v);
#endif
    for (; i < n; ++i)
        m = std::max(m, std::fabs(x[i]));
    return m;
}

float
Tensor::maxAbs() const
{
    return dnn::maxAbs(data_.data(), data_.size());
}

std::string
Tensor::shapeString() const
{
    std::ostringstream oss;
    oss << '[';
    for (std::size_t i = 0; i < shape_.size(); ++i)
        oss << shape_[i] << (i + 1 == shape_.size() ? "" : ", ");
    oss << ']';
    return oss.str();
}

} // namespace vboost::dnn
