#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "linalg/qr.hpp"
#include "support/rng.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::linalg::Matrix;

Matrix random_symmetric(index_t n, unsigned seed) {
  Rng rng(seed);
  Matrix a = Matrix::random(n, n, rng);
  Matrix s(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  return s;
}

class EighParam : public ::testing::TestWithParam<index_t> {};

TEST_P(EighParam, DiagonalizesSymmetricMatrix) {
  const index_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n) * 7 + 1);
  auto e = tt::linalg::eigh(a);
  // A·V = V·diag(w)
  Matrix av = tt::linalg::matmul(a, e.vectors);
  Matrix vd = e.vectors;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) vd(i, j) *= e.values[static_cast<std::size_t>(j)];
  EXPECT_LT(tt::linalg::max_abs_diff(av, vd), 1e-9 * (1.0 + a.max_abs()));
}

TEST_P(EighParam, EigenvectorsOrthonormal) {
  const index_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n) * 11 + 3);
  auto e = tt::linalg::eigh(a);
  Matrix vtv = tt::linalg::matmul(true, false, e.vectors, e.vectors);
  EXPECT_LT(tt::linalg::max_abs_diff(vtv, Matrix::identity(n)), 1e-10);
}

TEST_P(EighParam, EigenvaluesAscending) {
  const index_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n) * 13 + 5);
  auto e = tt::linalg::eigh(a);
  for (std::size_t i = 0; i + 1 < e.values.size(); ++i)
    EXPECT_LE(e.values[i], e.values[i + 1] + 1e-12);
}

TEST_P(EighParam, TraceEqualsSumOfEigenvalues) {
  const index_t n = GetParam();
  Matrix a = random_symmetric(n, static_cast<unsigned>(n) * 17 + 7);
  auto e = tt::linalg::eigh(a);
  double tr = 0.0, sum = 0.0;
  for (index_t i = 0; i < n; ++i) tr += a(i, i);
  for (double w : e.values) sum += w;
  EXPECT_NEAR(tr, sum, 1e-9 * (1.0 + std::abs(tr)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighParam,
                         ::testing::Values<index_t>(1, 2, 3, 5, 8, 16, 33, 64));

TEST(Eigh, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  auto e = tt::linalg::eigh(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(Eigh, DiagonalInput) {
  Matrix a(3, 3);
  a(0, 0) = 5;
  a(1, 1) = -2;
  a(2, 2) = 0.5;
  auto e = tt::linalg::eigh(a);
  EXPECT_NEAR(e.values[0], -2.0, 1e-13);
  EXPECT_NEAR(e.values[1], 0.5, 1e-13);
  EXPECT_NEAR(e.values[2], 5.0, 1e-13);
}

TEST(Eigh, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(tt::linalg::eigh(a), tt::Error);
}

TEST(Eigh, RejectsAsymmetric) {
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = -1.0;
  EXPECT_THROW(tt::linalg::eigh(a), tt::Error);
}

TEST(Eigh, NegativeDefinite) {
  Matrix a(2, 2);
  a(0, 0) = -4;
  a(1, 1) = -9;
  auto e = tt::linalg::eigh(a);
  EXPECT_NEAR(e.values[0], -9.0, 1e-12);
  EXPECT_NEAR(e.values[1], -4.0, 1e-12);
}

// V·diag(w)·Vᵀ with a random orthogonal V.
Matrix with_spectrum(const std::vector<double>& w, Rng& rng) {
  const index_t n = static_cast<index_t>(w.size());
  const Matrix v = tt::linalg::qr(Matrix::random(n, n, rng)).q;
  Matrix vw = v;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) vw(i, j) *= w[static_cast<std::size_t>(j)];
  Matrix a = tt::linalg::matmul(false, true, vw, v);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < i; ++j) a(j, i) = a(i, j);
  return a;
}

// Eigenvalues match `w` (ascending), A·V = V·diag(w) and VᵀV = 1.
void expect_eigensystem(const Matrix& a, const std::vector<double>& w,
                        const tt::linalg::EigResult& e, double tol) {
  const index_t n = a.rows();
  ASSERT_EQ(e.values.size(), w.size());
  for (std::size_t k = 0; k < w.size(); ++k)
    EXPECT_NEAR(e.values[k], w[k], tol) << "k=" << k;
  Matrix av = tt::linalg::matmul(a, e.vectors);
  Matrix vd = e.vectors;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) vd(i, j) *= e.values[static_cast<std::size_t>(j)];
  EXPECT_LT(tt::linalg::max_abs_diff(av, vd), tol);
  Matrix vtv = tt::linalg::matmul(true, false, e.vectors, e.vectors);
  EXPECT_LT(tt::linalg::max_abs_diff(vtv, Matrix::identity(n)), 1e-12);
}

TEST(Eigh, DegenerateSpectrum) {
  // Multiplicities 3, 2, 1, 4: any basis of each eigenspace is valid, but
  // the vectors must stay orthonormal and satisfy A·V = V·W.
  std::vector<double> w{-1, -1, -1, 0.5, 0.5, 2, 3, 3, 3, 3};
  Rng rng(41);
  const Matrix a = with_spectrum(w, rng);
  expect_eigensystem(a, w, tt::linalg::eigh(a), 1e-12);
}

TEST(Eigh, ClusteredSpectrum) {
  // 40 eigenvalues within 4e-9 of 1, plus outliers.
  std::vector<double> w{-3.0};
  for (int k = 0; k < 40; ++k) w.push_back(1.0 + 1e-10 * k);
  w.push_back(5.0);
  Rng rng(42);
  const Matrix a = with_spectrum(w, rng);
  expect_eigensystem(a, w, tt::linalg::eigh(a), 1e-12);
}

TEST(EighTridiagonal, MatchesDenseEighOnLanczosStyleMatrix) {
  // Lanczos T: alpha on the diagonal, positive beta beside it.
  Rng rng(43);
  const index_t n = 60;
  std::vector<double> alpha, beta;
  for (index_t i = 0; i < n; ++i) alpha.push_back(rng.normal());
  for (index_t i = 0; i + 1 < n; ++i) beta.push_back(0.1 + std::abs(rng.normal()));
  Matrix t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = alpha[static_cast<std::size_t>(i)];
    if (i + 1 < n) t(i, i + 1) = t(i + 1, i) = beta[static_cast<std::size_t>(i)];
  }
  const auto dense = tt::linalg::eigh(t);
  const auto tri = tt::linalg::eigh_tridiagonal(alpha, beta);
  expect_eigensystem(t, dense.values, tri, 1e-12);
}

TEST(EighTridiagonal, PathLaplacianClosedForm) {
  // tridiag(-1, 2, -1) of size n has eigenvalues 2 − 2cos(kπ/(n+1)).
  const index_t n = 50;
  std::vector<double> d(static_cast<std::size_t>(n), 2.0);
  std::vector<double> off(static_cast<std::size_t>(n - 1), -1.0);
  const auto e = tt::linalg::eigh_tridiagonal(d, off);
  for (index_t k = 1; k <= n; ++k) {
    const double theta = M_PI * static_cast<double>(k) / static_cast<double>(n + 1);
    EXPECT_NEAR(e.values[static_cast<std::size_t>(k - 1)], 2.0 - 2.0 * std::cos(theta),
                1e-13);
  }
}

TEST(EighTridiagonal, OneByOneAndSizeMismatch) {
  const auto e = tt::linalg::eigh_tridiagonal({-2.5}, {});
  ASSERT_EQ(e.values.size(), 1u);
  EXPECT_EQ(e.values[0], -2.5);
  EXPECT_EQ(e.vectors(0, 0), 1.0);
  EXPECT_THROW(tt::linalg::eigh_tridiagonal({1.0, 2.0}, {}), tt::Error);
}

}  // namespace
