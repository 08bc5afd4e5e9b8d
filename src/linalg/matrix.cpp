#include "linalg/matrix.hpp"

#include <cmath>

namespace tt::linalg {

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  constexpr index_t kBlock = 32;  // cache-blocked transpose
  for (index_t ib = 0; ib < rows_; ib += kBlock)
    for (index_t jb = 0; jb < cols_; jb += kBlock) {
      const index_t ie = std::min(ib + kBlock, rows_);
      const index_t je = std::min(jb + kBlock, cols_);
      for (index_t i = ib; i < ie; ++i)
        for (index_t j = jb; j < je; ++j) t(j, i) = (*this)(i, j);
    }
  return t;
}

real_t Matrix::frobenius_norm() const {
  real_t s = 0.0;
  for (real_t v : data_) s += v * v;
  return std::sqrt(s);
}

real_t Matrix::max_abs() const {
  real_t m = 0.0;
  for (real_t v : data_) m = std::max(m, std::abs(v));
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  TT_CHECK(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  TT_CHECK(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(real_t s) {
  for (auto& v : data_) v *= s;
  return *this;
}

real_t max_abs_diff(const Matrix& a, const Matrix& b) {
  TT_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
           "max_abs_diff shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
                                           << b.rows() << "x" << b.cols());
  real_t m = 0.0;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

real_t dot(const real_t* x, const real_t* y, index_t n) {
  real_t s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  index_t k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += x[k] * y[k];
    s1 += x[k + 1] * y[k + 1];
    s2 += x[k + 2] * y[k + 2];
    s3 += x[k + 3] * y[k + 3];
  }
  for (; k < n; ++k) s0 += x[k] * y[k];
  return (s0 + s1) + (s2 + s3);
}

}  // namespace tt::linalg
