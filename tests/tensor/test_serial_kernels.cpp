// The elementwise tensor kernels (norm2, dot, sparse×sparse einsum) are plain
// serial loops: their bits equal a left-to-right reference sum and do not
// depend on the executor thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tensor/dense.hpp"
#include "tensor/einsum.hpp"
#include "tensor/sparse.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::real_t;
using tt::tensor::DenseTensor;
using tt::tensor::SparseTensor;

std::uint64_t bits(real_t v) { return std::bit_cast<std::uint64_t>(v); }

// Large enough that a parallel reduction would split it.
constexpr index_t kLong = index_t{1} << 17;

// Entries spread over 16 binary orders of magnitude, so the rounding of a sum
// of them depends on the summation order.
DenseTensor mixed_magnitudes(Rng& rng) {
  DenseTensor x({kLong});
  for (index_t i = 0; i < kLong; ++i) {
    const real_t mantissa = rng.normal();
    x[i] = std::ldexp(mantissa, static_cast<int>(rng.uniform(-8.0, 8.0)));
  }
  return x;
}

// Runs `f` at one executor thread and at eight; both results must carry the
// bits of `want`.
template <typename F>
void expect_bits_at_1_and_8_threads(F f, real_t want, const char* what) {
  tt::support::set_num_threads(1);
  const real_t at1 = f();
  tt::support::set_num_threads(8);
  const real_t at8 = f();
  tt::support::set_num_threads(0);
  EXPECT_EQ(bits(at1), bits(want)) << what << " at 1 thread";
  EXPECT_EQ(bits(at8), bits(want)) << what << " at 8 threads";
}

TEST(SerialKernels, Norm2MatchesLeftToRightSum) {
  Rng rng(101);
  const DenseTensor x = mixed_magnitudes(rng);
  real_t s = 0.0;
  for (index_t i = 0; i < kLong; ++i) s += x[i] * x[i];
  expect_bits_at_1_and_8_threads([&] { return x.norm2(); }, std::sqrt(s), "norm2");
}

TEST(SerialKernels, DotMatchesLeftToRightSum) {
  Rng rng(102);
  const DenseTensor a = mixed_magnitudes(rng);
  const DenseTensor b = mixed_magnitudes(rng);
  real_t s = 0.0;
  for (index_t i = 0; i < kLong; ++i) s += a[i] * b[i];
  expect_bits_at_1_and_8_threads([&] { return tt::tensor::dot(a, b); }, s, "dot");
}

TEST(SerialKernels, SparseSparseEinsumMatchesLeftToRightSum) {
  const index_t n = 64;
  Rng rng(103);
  // Half-dense operands: each element stored with probability 1/2.
  auto half_dense = [&] {
    DenseTensor d({n, n});
    for (index_t i = 0; i < d.size(); ++i)
      if (rng.uniform() < 0.5) d[i] = rng.normal();
    return d;
  };
  const DenseTensor ad = half_dense();
  const DenseTensor bd = half_dense();
  const SparseTensor a = SparseTensor::from_dense(ad);
  const SparseTensor b = SparseTensor::from_dense(bd);

  // C(i,j) = Σ_k A(i,k)·B(k,j) over stored pairs, k ascending.
  std::vector<real_t> want(static_cast<std::size_t>(n * n), 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      real_t s = 0.0;
      for (index_t k = 0; k < n; ++k)
        if (ad[i * n + k] != 0.0 && bd[k * n + j] != 0.0)
          s += ad[i * n + k] * bd[k * n + j];
      want[static_cast<std::size_t>(i * n + j)] = s;
    }

  for (int threads : {1, 8}) {
    tt::support::set_num_threads(threads);
    const SparseTensor c = tt::tensor::einsum_ss("ik,kj->ij", a, b);
    tt::support::set_num_threads(0);
    for (index_t f = 0; f < n * n; ++f)
      ASSERT_EQ(bits(c.value_at(f)), bits(want[static_cast<std::size_t>(f)]))
          << "flat " << f << " at " << threads << " threads";
  }
}

}  // namespace
