#include "tensor/tensor.h"

#include <sstream>

namespace lp {

void Tensor::reshape(std::vector<std::int64_t> new_shape) {
  std::int64_t n = 1;
  for (auto d : new_shape) {
    LP_CHECK(d >= 0);
    n *= d;
  }
  LP_CHECK_MSG(n == numel_, "reshape numel mismatch: " << n << " vs " << numel_);
  shape_ = std::move(new_shape);
}

Tensor Tensor::reshaped(std::vector<std::int64_t> new_shape) const {
  Tensor out = *this;
  out.reshape(std::move(new_shape));
  return out;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace lp
