#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "support/rng.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::linalg::Matrix;

class SvdParam : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(SvdParam, ReconstructsInput) {
  auto [m, n] = GetParam();
  Rng rng(m * 101 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::svd(a);
  EXPECT_LT(tt::linalg::max_abs_diff(f.reconstruct(), a), 1e-9 * (1.0 + a.max_abs()));
}

TEST_P(SvdParam, FactorsOrthonormal) {
  auto [m, n] = GetParam();
  Rng rng(m * 103 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::svd(a);
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  Matrix vvt = tt::linalg::matmul(false, true, f.vt, f.vt);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(utu.rows())), 1e-10);
  EXPECT_LT(tt::linalg::max_abs_diff(vvt, Matrix::identity(vvt.rows())), 1e-10);
}

TEST_P(SvdParam, SingularValuesSortedNonNegative) {
  auto [m, n] = GetParam();
  Rng rng(m * 107 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::svd(a);
  EXPECT_EQ(static_cast<index_t>(f.s.size()), std::min(m, n));
  for (std::size_t i = 0; i + 1 < f.s.size(); ++i) EXPECT_GE(f.s[i], f.s[i + 1]);
  for (double s : f.s) EXPECT_GE(s, 0.0);
}

TEST_P(SvdParam, MatchesEigenvaluesOfGramMatrix) {
  auto [m, n] = GetParam();
  if (m * n > 64 * 64) GTEST_SKIP() << "gram oracle only for small shapes";
  Rng rng(m * 109 + n);
  Matrix a = Matrix::random(m, n, rng);
  auto f = tt::linalg::svd(a);
  Matrix gram = tt::linalg::matmul(true, false, a, a);  // n×n
  auto e = tt::linalg::eigh(gram);
  // eigh ascending; singular values descending.
  const index_t r = std::min(m, n);
  for (index_t i = 0; i < r; ++i) {
    const double lambda = e.values[static_cast<std::size_t>(n - 1 - i)];
    EXPECT_NEAR(f.s[static_cast<std::size_t>(i)], std::sqrt(std::max(0.0, lambda)),
                1e-8 * (1.0 + std::abs(lambda)));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdParam,
                         ::testing::Values(std::make_pair<index_t, index_t>(1, 1),
                                           std::make_pair<index_t, index_t>(4, 4),
                                           std::make_pair<index_t, index_t>(16, 16),
                                           std::make_pair<index_t, index_t>(40, 12),
                                           std::make_pair<index_t, index_t>(12, 40),
                                           std::make_pair<index_t, index_t>(100, 100),
                                           std::make_pair<index_t, index_t>(200, 50),
                                           std::make_pair<index_t, index_t>(50, 200),
                                           std::make_pair<index_t, index_t>(1, 60),
                                           std::make_pair<index_t, index_t>(60, 1)));

TEST(Svd, ExactRankDeficiency) {
  Rng rng(3);
  Matrix x = Matrix::random(20, 3, rng);
  Matrix y = Matrix::random(3, 15, rng);
  Matrix a = tt::linalg::matmul(x, y);  // rank 3
  auto f = tt::linalg::svd(a);
  for (std::size_t i = 3; i < f.s.size(); ++i) EXPECT_LT(f.s[i], 1e-9);
  // U must stay orthonormal even in the null space (completion path).
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(15)), 1e-8);
  EXPECT_LT(tt::linalg::max_abs_diff(f.reconstruct(), a), 1e-9);
}

TEST(Svd, ZeroMatrix) {
  Matrix a(8, 5, 0.0);
  auto f = tt::linalg::svd(a);
  for (double s : f.s) EXPECT_DOUBLE_EQ(s, 0.0);
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(5)), 1e-8);
}

TEST(Svd, DiagonalMatrixExact) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 7.0;
  a(2, 2) = 1.0;
  auto f = tt::linalg::svd(a);
  EXPECT_NEAR(f.s[0], 7.0, 1e-12);
  EXPECT_NEAR(f.s[1], 3.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(Svd, EmptyMatrix) {
  Matrix a(0, 4);
  auto f = tt::linalg::svd(a);
  EXPECT_TRUE(f.s.empty());
  EXPECT_EQ(f.u.rows(), 0);
  EXPECT_EQ(f.vt.cols(), 4);
}

TEST(Svd, HugeDynamicRange) {
  // Singular values spanning 12 orders of magnitude survive one-sided Jacobi.
  Matrix a(3, 3);
  a(0, 0) = 1e6;
  a(1, 1) = 1.0;
  a(2, 2) = 1e-6;
  auto f = tt::linalg::svd(a);
  EXPECT_NEAR(f.s[0], 1e6, 1e-4);
  EXPECT_NEAR(f.s[1], 1.0, 1e-10);
  EXPECT_NEAR(f.s[2], 1e-6, 1e-14);
}

TEST(Svd, SubnormalColumnNormsDoNotDivideByZero) {
  // Column norms around 1e-100 square to ~1e-200 each; their PRODUCT
  // (aii*ajj ~ 1e-400) underflows double entirely. The Jacobi convergence
  // test used to divide |aij| by sqrt(aii*ajj) == 0 — a float division by
  // zero (NaN when the columns happen to be orthogonal) caught by the ubsan
  // preset. The factorization must stay finite and exact instead.
  Matrix a(3, 3);
  a(0, 0) = 3e-100;
  a(0, 1) = 4e-100;
  a(1, 0) = -4e-100;
  a(1, 1) = 3e-100;
  a(2, 2) = 1e-120;
  auto f = tt::linalg::svd(a);
  ASSERT_EQ(f.s.size(), 3u);
  for (double s : f.s) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
  }
  EXPECT_NEAR(f.s[0], 5e-100, 1e-110);
  EXPECT_NEAR(f.s[1], 5e-100, 1e-110);
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(3)), 1e-8);
}

TEST(Svd, TinyOrthogonalDiagonalStaysExact) {
  // aij == 0 with underflowing aii*ajj (1e-200 each squares the product to
  // 1e-400 == 0.0) used to produce 0/0 == NaN in the off-diagonal
  // convergence measure; pin the already-diagonal tiny case. The norms
  // themselves (1e-200) stay normal doubles, so the values are exact.
  Matrix a(2, 2);
  a(0, 0) = 2e-100;
  a(1, 1) = 1e-100;
  auto f = tt::linalg::svd(a);
  EXPECT_DOUBLE_EQ(f.s[0], 2e-100);
  EXPECT_DOUBLE_EQ(f.s[1], 1e-100);
}

// A = U·diag(σ)·Vᵀ with random orthonormal U, V and σ_k = 10^(-14·k/(r-1)):
// the graded spectra DMRG truncation sees, down to the ε‖A‖ floor.
struct GradedInput {
  Matrix a;
  std::vector<double> s;
};

GradedInput graded(index_t m, index_t n, Rng& rng) {
  const index_t r = std::min(m, n);
  Matrix u = tt::linalg::qr(Matrix::random(m, r, rng)).q;
  const Matrix v = tt::linalg::qr(Matrix::random(n, r, rng)).q;
  GradedInput out;
  for (index_t k = 0; k < r; ++k) {
    const double sk =
        std::pow(10.0, -14.0 * static_cast<double>(k) / static_cast<double>(r - 1));
    out.s.push_back(sk);
    for (index_t i = 0; i < m; ++i) u(i, k) *= sk;
  }
  out.a = tt::linalg::matmul(false, true, u, v);
  return out;
}

class SvdGraded : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(SvdGraded, SingularValuesAbsoluteAndFactorsOrthonormal) {
  auto [m, n] = GetParam();
  Rng rng(m * 113 + n);
  const GradedInput in = graded(m, n, rng);
  auto f = tt::linalg::svd(in.a);
  ASSERT_EQ(f.s.size(), in.s.size());
  for (std::size_t k = 0; k < f.s.size(); ++k)
    EXPECT_NEAR(f.s[k], in.s[k], 1e-13 * in.s[0]) << "k=" << k;
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  Matrix vvt = tt::linalg::matmul(false, true, f.vt, f.vt);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(utu.rows())), 1e-12);
  EXPECT_LT(tt::linalg::max_abs_diff(vvt, Matrix::identity(vvt.rows())), 1e-12);
  EXPECT_LT(tt::linalg::max_abs_diff(f.reconstruct(), in.a), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdGraded,
                         ::testing::Values(std::make_pair<index_t, index_t>(64, 64),
                                           std::make_pair<index_t, index_t>(128, 128),
                                           std::make_pair<index_t, index_t>(300, 300),
                                           std::make_pair<index_t, index_t>(300, 120),
                                           std::make_pair<index_t, index_t>(120, 300)));

TEST(Svd, ExtremeScalesStayFiniteAndScaleExactly) {
  // Entries near 1e±150 square to 1e±300 in a Gram matrix, at the edge of
  // the double range, and 1e±160 square past it (to inf, or to subnormals
  // with a few digits left); the power-of-two prescaling must keep σ finite
  // and exact.
  Rng rng(21);
  const Matrix a = Matrix::random(30, 20, rng);
  const auto ref = tt::linalg::svd(a);
  for (double scale : {1e-150, 1e150, 1e-160, 1e160}) {
    Matrix b = a;
    b *= scale;
    const auto f = tt::linalg::svd(b);
    ASSERT_EQ(f.s.size(), ref.s.size());
    for (std::size_t k = 0; k < f.s.size(); ++k) {
      ASSERT_TRUE(std::isfinite(f.s[k])) << "scale " << scale << " k=" << k;
      EXPECT_NEAR(f.s[k] / scale, ref.s[k], 1e-12 * ref.s[0]) << "scale " << scale;
    }
    Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
    EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(utu.rows())), 1e-12);
  }
}

TEST(Svd, RankDeficientWideCompletesNullRows) {
  // Wide rank-3 input: the V factor's rows past the rank come from the null
  // completion and must still be orthonormal.
  Rng rng(4);
  Matrix x = Matrix::random(8, 3, rng);
  Matrix y = Matrix::random(3, 20, rng);
  Matrix a = tt::linalg::matmul(x, y);
  auto f = tt::linalg::svd(a);
  ASSERT_EQ(f.s.size(), 8u);
  for (std::size_t i = 3; i < f.s.size(); ++i) EXPECT_LT(f.s[i], 1e-12 * f.s[0]);
  Matrix vvt = tt::linalg::matmul(false, true, f.vt, f.vt);
  EXPECT_LT(tt::linalg::max_abs_diff(vvt, Matrix::identity(8)), 1e-12);
  Matrix utu = tt::linalg::matmul(true, false, f.u, f.u);
  EXPECT_LT(tt::linalg::max_abs_diff(utu, Matrix::identity(8)), 1e-12);
  EXPECT_LT(tt::linalg::max_abs_diff(f.reconstruct(), a), 1e-12 * a.max_abs());
}

TEST(SvdRank, CutoffAndCap) {
  std::vector<double> s{1.0, 0.5, 1e-3, 1e-13, 0.0};
  EXPECT_EQ(tt::linalg::svd_rank(s, 1e-12, 100), 3);
  EXPECT_EQ(tt::linalg::svd_rank(s, 1e-12, 2), 2);
  EXPECT_EQ(tt::linalg::svd_rank(s, 0.0, 100), 4);  // exact zeros dropped
  EXPECT_EQ(tt::linalg::svd_rank(s, 10.0, 100), 1); // never drops to zero rank
  EXPECT_EQ(tt::linalg::svd_rank({}, 1e-12, 4), 0);
}

TEST(SvdRank, MaxKeepZeroWins) {
  // The keep-at-least-one floor applies before the cap: an explicit
  // max_keep == 0 truncation request must return 0, not 1.
  std::vector<double> s{1.0, 0.5};
  EXPECT_EQ(tt::linalg::svd_rank(s, 1e-12, 0), 0);
  EXPECT_EQ(tt::linalg::svd_rank(s, 10.0, 0), 0);   // floor then cap
  EXPECT_EQ(tt::linalg::svd_rank(s, 10.0, 1), 1);   // floor survives cap >= 1
  EXPECT_EQ(tt::linalg::svd_rank({}, 1e-12, 0), 0);
}

}  // namespace
