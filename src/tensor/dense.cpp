#include "tensor/dense.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

namespace tt::tensor {

DenseTensor::DenseTensor(std::vector<index_t> shape, real_t fill)
    : shape_(std::move(shape)) {
  index_t n = 1;
  for (index_t d : shape_) {
    TT_CHECK(d >= 0, "negative tensor dimension " << d);
    n *= d;
  }
  data_.assign(static_cast<std::size_t>(n), fill);
}

DenseTensor DenseTensor::random(std::vector<index_t> shape, Rng& rng) {
  DenseTensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.normal();
  return t;
}

DenseTensor DenseTensor::scalar(real_t v) {
  DenseTensor t{std::vector<index_t>{}};
  t.data_.assign(1, v);
  return t;
}

index_t DenseTensor::size() const { return static_cast<index_t>(data_.size()); }

std::vector<index_t> DenseTensor::strides() const {
  std::vector<index_t> s(shape_.size(), 1);
  for (int i = static_cast<int>(shape_.size()) - 2; i >= 0; --i)
    s[static_cast<std::size_t>(i)] =
        s[static_cast<std::size_t>(i + 1)] * shape_[static_cast<std::size_t>(i + 1)];
  return s;
}

std::size_t DenseTensor::flat_index(std::span<const index_t> idx) const {
  TT_ASSERT(idx.size() == shape_.size(), "index order mismatch: " << idx.size()
                                                                  << " vs " << shape_.size());
  std::size_t flat = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    TT_ASSERT(idx[i] >= 0 && idx[i] < shape_[i],
              "index " << idx[i] << " out of bounds for mode " << i << " (dim "
                       << shape_[i] << ")");
    flat = flat * static_cast<std::size_t>(shape_[i]) + static_cast<std::size_t>(idx[i]);
  }
  return flat;
}

DenseTensor DenseTensor::reshaped(std::vector<index_t> new_shape) const {
  index_t n = 1;
  for (index_t d : new_shape) n *= d;
  TT_CHECK(n == size(), "reshape size mismatch: " << n << " vs " << size());
  DenseTensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

DenseTensor DenseTensor::permuted(std::span<const int> perm) const {
  TT_CHECK(static_cast<int>(perm.size()) == order(),
           "permutation order mismatch: " << perm.size() << " vs " << order());
  for (int p : perm)
    TT_CHECK(p >= 0 && p < order(), "permutation entry " << p << " out of range");
  std::vector<index_t> out_shape(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    out_shape[i] = shape_[static_cast<std::size_t>(perm[i])];
  DenseTensor out(std::move(out_shape));
  permute_into(*this, perm, out);
  return out;
}

void DenseTensor::fill(real_t v) { std::fill(data_.begin(), data_.end(), v); }

void DenseTensor::scale(real_t s) {
  for (auto& v : data_) v *= s;
}

void DenseTensor::axpy(real_t alpha, const DenseTensor& other) {
  TT_CHECK(shape_ == other.shape_, "axpy shape mismatch");
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) data_[i] += alpha * other.data_[i];
}

real_t DenseTensor::norm2() const {
  real_t s = 0.0;
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) s += data_[i] * data_[i];
  return std::sqrt(s);
}

real_t DenseTensor::max_abs() const {
  real_t m = 0.0;
  for (real_t v : data_) m = std::max(m, std::abs(v));
  return m;
}

real_t dot(const DenseTensor& a, const DenseTensor& b) {
  TT_CHECK(a.shape() == b.shape(), "dot shape mismatch");
  real_t s = 0.0;
  const index_t n = a.size();
  for (index_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

real_t max_abs_diff(const DenseTensor& a, const DenseTensor& b) {
  TT_CHECK(a.shape() == b.shape(), "max_abs_diff shape mismatch");
  real_t m = 0.0;
  for (index_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

void permute_into(const DenseTensor& in, std::span<const int> perm,
                  DenseTensor& out) {
  const int r = in.order();
  TT_CHECK(static_cast<int>(perm.size()) == r, "perm order mismatch");
  {
    std::vector<bool> seen(static_cast<std::size_t>(r), false);
    for (int p : perm) {
      TT_CHECK(p >= 0 && p < r && !seen[static_cast<std::size_t>(p)],
               "invalid permutation entry " << p);
      seen[static_cast<std::size_t>(p)] = true;
    }
  }
  TT_CHECK(out.size() == in.size(), "permute output size mismatch");
  permute_into(in.data(), in.shape(), perm, out.data());
}

void permute_into(const real_t* in, std::span<const index_t> in_shape,
                  std::span<const int> perm, real_t* out) {
  const std::size_t r = perm.size();
  TT_ASSERT(r == in_shape.size() && r <= static_cast<std::size_t>(kMaxPermuteOrder),
            "permutation order " << r << " unsupported (max " << kMaxPermuteOrder << ")");
  index_t total = 1;
  for (index_t d : in_shape) total *= d;
  if (total == 0) return;

  bool identity = true;
  for (std::size_t i = 0; i < r; ++i)
    if (perm[i] != static_cast<int>(i)) identity = false;
  if (identity) {  // also covers order 0 (one scalar element)
    std::copy(in, in + total, out);
    return;
  }

  // Per output mode: its extent and the source stride it advances by.
  std::array<index_t, kMaxPermuteOrder> in_stride{}, src_stride{}, dims{}, odo{};
  in_stride[r - 1] = 1;
  for (std::size_t i = r - 1; i > 0; --i) in_stride[i - 1] = in_stride[i] * in_shape[i];
  for (std::size_t i = 0; i < r; ++i) {
    const auto from = static_cast<std::size_t>(perm[i]);
    src_stride[i] = in_stride[from];
    dims[i] = in_shape[from];
  }

  // Walk the output in row-major order, one innermost run at a time; an
  // odometer over the outer output modes tracks the source offset. The run
  // advances by a fixed source stride and vectorizes when that stride is 1.
  const index_t run = dims[r - 1];
  const index_t run_stride = src_stride[r - 1];
  index_t src_off = 0;
  for (index_t written = 0; written < total; written += run) {
    const real_t* s = in + src_off;
    real_t* d = out + written;
    if (run_stride == 1) {
      std::copy(s, s + run, d);
    } else {
      for (index_t j = 0; j < run; ++j) d[j] = s[j * run_stride];
    }
    for (std::size_t m = r - 1; m-- > 0;) {
      src_off += src_stride[m];
      if (++odo[m] < dims[m]) break;
      src_off -= dims[m] * src_stride[m];
      odo[m] = 0;
    }
  }
}

}  // namespace tt::tensor
