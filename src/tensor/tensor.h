// Dense row-major tensors.
//
// `Tensor` (FP32) carries all forward values — matching the paper's runtime, which runs
// unmodified FP32 kernels — while `DTensor` (FP64) carries error-bound arithmetic
// (Sec. 6.1: "FP32 forwards and FP64 for bound arithmetic"). Storage is shared on copy
// (cheap to pass through graphs and traces); `Clone()` makes a deep copy. All operators
// in src/ops produce freshly allocated contiguous outputs.

#ifndef TAO_SRC_TENSOR_TENSOR_H_
#define TAO_SRC_TENSOR_TENSOR_H_

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "src/tensor/shape.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace tao {

template <typename T>
class BasicTensor {
 public:
  BasicTensor() : BasicTensor(Shape{}) {}

  explicit BasicTensor(Shape shape)
      : shape_(std::move(shape)),
        storage_(std::make_shared<std::vector<T>>(static_cast<size_t>(shape_.numel()), T{})) {}

  BasicTensor(Shape shape, std::vector<T> values)
      : shape_(std::move(shape)), storage_(std::make_shared<std::vector<T>>(std::move(values))) {
    TAO_CHECK_EQ(static_cast<int64_t>(storage_->size()), shape_.numel());
  }

  static BasicTensor Zeros(Shape shape) { return BasicTensor(std::move(shape)); }

  static BasicTensor Full(Shape shape, T value) {
    BasicTensor t(std::move(shape));
    t.Fill(value);
    return t;
  }

  static BasicTensor Randn(Shape shape, Rng& rng, T stddev = T{1}, T mean = T{0}) {
    BasicTensor t(std::move(shape));
    for (T& v : t.mutable_values()) {
      v = mean + stddev * static_cast<T>(rng.NextGaussian());
    }
    return t;
  }

  static BasicTensor Uniform(Shape shape, Rng& rng, T lo, T hi) {
    BasicTensor t(std::move(shape));
    for (T& v : t.mutable_values()) {
      v = static_cast<T>(rng.NextUniform(static_cast<double>(lo), static_cast<double>(hi)));
    }
    return t;
  }

  static BasicTensor Arange(int64_t n) {
    BasicTensor t(Shape{n});
    for (int64_t i = 0; i < n; ++i) {
      t.mutable_values()[static_cast<size_t>(i)] = static_cast<T>(i);
    }
    return t;
  }

  const Shape& shape() const { return shape_; }
  int64_t numel() const { return shape_.numel(); }

  std::span<const T> values() const { return {storage_->data(), storage_->size()}; }
  // Mutating a shared tensor mutates every alias; tensor producers should allocate fresh
  // outputs and only mutate before publishing.
  std::span<T> mutable_values() { return {storage_->data(), storage_->size()}; }

  T at(std::span<const int64_t> index) const {
    return (*storage_)[static_cast<size_t>(
        shape_.Linearize(std::vector<int64_t>(index.begin(), index.end())))];
  }

  T operator[](int64_t linear) const {
    TAO_CHECK(linear >= 0 && linear < numel());
    return (*storage_)[static_cast<size_t>(linear)];
  }

  void Fill(T value) {
    for (T& v : mutable_values()) {
      v = value;
    }
  }

  BasicTensor Clone() const {
    return BasicTensor(shape_, std::vector<T>(storage_->begin(), storage_->end()));
  }

  // Returns a same-storage tensor with a different shape (numel must match).
  BasicTensor WithShape(Shape shape) const {
    TAO_CHECK_EQ(shape.numel(), shape_.numel());
    BasicTensor t;
    t.shape_ = std::move(shape);
    t.storage_ = storage_;
    return t;
  }

  template <typename U>
  BasicTensor<U> Cast() const {
    std::vector<U> out(storage_->size());
    for (size_t i = 0; i < storage_->size(); ++i) {
      out[i] = static_cast<U>((*storage_)[i]);
    }
    return BasicTensor<U>(shape_, std::move(out));
  }

  bool SameStorageAs(const BasicTensor& other) const { return storage_ == other.storage_; }

  // --- Runtime-arena hooks (src/runtime/arena.h) ------------------------------------
  // Wraps an existing storage block, resizing it to `shape`'s element count. Contents
  // are unspecified; the adopter must overwrite every element before publishing.
  static BasicTensor AdoptStorage(Shape shape, std::shared_ptr<std::vector<T>> storage) {
    TAO_CHECK(storage != nullptr);
    storage->resize(static_cast<size_t>(shape.numel()));
    BasicTensor t;
    t.shape_ = std::move(shape);
    t.storage_ = std::move(storage);
    return t;
  }

  // Moves the storage block out, leaving this tensor empty. Callers use the returned
  // pointer's uniqueness to decide whether the buffer is safe to recycle.
  std::shared_ptr<std::vector<T>> ReleaseStorage() && { return std::move(storage_); }

 private:
  Shape shape_;
  std::shared_ptr<std::vector<T>> storage_;

  template <typename U>
  friend class BasicTensor;
};

using Tensor = BasicTensor<float>;
using DTensor = BasicTensor<double>;
using ITensor = BasicTensor<int64_t>;

// Element-wise maximum absolute difference between two same-shape tensors (in double).
double MaxAbsDiff(const Tensor& a, const Tensor& b);

// |a - b| in double, never NaN: equal values (equal infinities included) and two NaNs
// differ by 0, and a NaN against anything else by +inf, so a non-finite deviation can
// neither hide in a percentile profile nor slip under a bound.
inline double AbsError(float a, float b) {
  const double diff = std::abs(static_cast<double>(a) - static_cast<double>(b));
  if (!std::isnan(diff)) {
    return diff;
  }
  return a == b || (std::isnan(a) && std::isnan(b)) ? 0.0
                                                     : std::numeric_limits<double>::infinity();
}

// Flattened element-wise absolute and relative error vectors (Eq. 1-2), element by
// element as AbsError; `eps` guards division by zero in the relative error, whose
// remaining NaN cases (0/0 and inf/inf) read 0 and +inf. Errors are never NaN.
std::vector<double> AbsErrors(const Tensor& a, const Tensor& b);
std::vector<double> RelErrors(const Tensor& a, const Tensor& b, double eps = 1e-12);

}  // namespace tao

#endif  // TAO_SRC_TENSOR_TENSOR_H_
