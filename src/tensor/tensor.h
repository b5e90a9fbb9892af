// Minimal dense float tensor used as the substrate for the DNN models that
// LPQ quantizes.  The paper's experiments run on PyTorch; this library
// provides the forward-pass subset LPQ needs (see DESIGN.md section 2).
//
// Design: contiguous row-major float32 storage with value semantics.  All
// shape arithmetic is checked (LP_CHECK) so misuse surfaces as exceptions,
// not corrupted experiments.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace lp {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::int64_t> shape) : shape_(std::move(shape)) {
    validate_shape();
    data_.assign(static_cast<std::size_t>(numel_), 0.0F);
  }

  Tensor(std::initializer_list<std::int64_t> shape)
      : Tensor(std::vector<std::int64_t>(shape)) {}

  /// Tensor wrapping a copy of existing data.
  Tensor(std::vector<std::int64_t> shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    validate_shape();
    LP_CHECK_MSG(static_cast<std::int64_t>(data_.size()) == numel_,
                 "data size " << data_.size() << " != numel " << numel_);
  }

  [[nodiscard]] const std::vector<std::int64_t>& shape() const { return shape_; }
  [[nodiscard]] std::int64_t dim(std::size_t i) const {
    LP_CHECK(i < shape_.size());
    return shape_[i];
  }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::int64_t numel() const { return numel_; }
  [[nodiscard]] bool empty() const { return numel_ == 0; }

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }
  [[nodiscard]] float* raw() { return data_.data(); }
  [[nodiscard]] const float* raw() const { return data_.data(); }

  float& operator[](std::int64_t i) {
    LP_CHECK(i >= 0 && i < numel_);
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    LP_CHECK(i >= 0 && i < numel_);
    return data_[static_cast<std::size_t>(i)];
  }

  /// 2-D accessor (rows x cols); checked.
  float& at2(std::int64_t r, std::int64_t c) {
    LP_CHECK(rank() == 2);
    LP_CHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }
  [[nodiscard]] float at2(std::int64_t r, std::int64_t c) const {
    return const_cast<Tensor*>(this)->at2(r, c);
  }

  /// 4-D accessor (NCHW); checked.
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    LP_CHECK(rank() == 4);
    LP_CHECK(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] && h >= 0 &&
             h < shape_[2] && w >= 0 && w < shape_[3]);
    const std::int64_t idx =
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
    return data_[static_cast<std::size_t>(idx)];
  }
  [[nodiscard]] float at4(std::int64_t n, std::int64_t c, std::int64_t h,
                          std::int64_t w) const {
    return const_cast<Tensor*>(this)->at4(n, c, h, w);
  }

  /// Reinterpret the shape in place (same numel); no data moves.
  void reshape(std::vector<std::int64_t> new_shape);

  /// Copy of *this with a compatible shape (same numel).  Copies every
  /// element (value semantics); reshape a tensor you own instead.
  [[nodiscard]] Tensor reshaped(std::vector<std::int64_t> new_shape) const;

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  [[nodiscard]] std::string shape_str() const;

 private:
  void validate_shape() {
    numel_ = 1;
    for (auto d : shape_) {
      LP_CHECK_MSG(d >= 0, "negative dimension " << d);
      numel_ *= d;
    }
  }

  std::vector<std::int64_t> shape_;
  std::vector<float> data_;
  std::int64_t numel_ = 0;
};

}  // namespace lp
