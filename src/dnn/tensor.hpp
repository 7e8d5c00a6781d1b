/**
 * @file
 * Minimal dense tensor for the from-scratch DNN engine: row-major
 * float storage with a small-rank shape. The GEMMs every layer is
 * built on belong to the compute backends (dnn/backend/backend.hpp).
 */

#ifndef VBOOST_DNN_TENSOR_HPP
#define VBOOST_DNN_TENSOR_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace vboost::dnn {

namespace detail {

/**
 * Allocator whose value-less construct() default-initializes, so
 * vector::resize leaves floats uninitialized. Lets fully-overwritten
 * layer outputs (Tensor::uninitialized) skip the zero-fill memset the
 * normal constructor performs.
 */
template <typename T>
struct NoInitAlloc : std::allocator<T>
{
    template <typename U> struct rebind
    {
        using other = NoInitAlloc<U>;
    };
    template <typename U>
    void
    construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }
    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

} // namespace detail

/** Row-major dense float tensor of rank 1..4. */
class Tensor
{
  public:
    /** Empty tensor (rank 0, no elements). */
    Tensor() = default;

    /** Construct zero-filled with the given shape. */
    explicit Tensor(std::vector<int> shape);

    /** Zero-filled tensor. */
    static Tensor zeros(std::vector<int> shape);

    /**
     * Tensor with UNINITIALIZED contents — for outputs every element
     * of which is overwritten before being read (layer forward
     * results). Reading an element before writing it is undefined.
     */
    static Tensor uninitialized(std::vector<int> shape);

    /** Gaussian-initialized tensor: N(0, stddev). */
    static Tensor randn(std::vector<int> shape, Rng &rng, double stddev);

    /** Shape accessor. */
    const std::vector<int> &shape() const { return shape_; }

    /** Rank (number of dimensions). */
    int rank() const { return static_cast<int>(shape_.size()); }

    /** Size of dimension d. */
    int dim(int d) const;

    /** Total element count. */
    std::size_t numel() const { return data_.size(); }

    /** Raw storage. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Flat element access. */
    float &operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /** 2-D access (rank-2 tensors). */
    float &at(int i, int j);
    float at(int i, int j) const;

    /** 4-D access (rank-4 tensors, NCHW). */
    float &at(int n, int c, int h, int w);
    float at(int n, int c, int h, int w) const;

    /**
     * Reshape to a new shape with the same element count. Returns a
     * copy of the metadata over the same values (data is copied; this
     * engine favors clarity over aliasing).
     */
    Tensor reshaped(std::vector<int> new_shape) const;

    /** Set every element to v. */
    void fill(float v);

    /** Largest absolute element (0 for empty tensors). */
    float maxAbs() const;

    /** Human-readable shape string like "[64, 784]". */
    std::string shapeString() const;

  private:
    std::vector<int> shape_;
    std::vector<float, detail::NoInitAlloc<float>> data_;
};

/** Largest |x[i]| over i < n, NaN elements ignored (0 when n == 0). */
float maxAbs(const float *x, std::size_t n);

} // namespace vboost::dnn

#endif // VBOOST_DNN_TENSOR_HPP
