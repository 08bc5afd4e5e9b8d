#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/naive_einsum.hpp"
#include "support/error.hpp"
#include "tensor/einsum.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::tensor::DenseTensor;
using tt::tensor::EinsumStats;

struct Case {
  std::string spec;
  std::vector<index_t> sa, sb;
};

class EinsumParam : public ::testing::TestWithParam<Case> {};

TEST_P(EinsumParam, MatchesNaiveReference) {
  const Case& c = GetParam();
  Rng rng(static_cast<unsigned>(c.spec.size()) * 97 + 5);
  DenseTensor a = DenseTensor::random(c.sa, rng);
  DenseTensor b = DenseTensor::random(c.sb, rng);
  DenseTensor got = tt::tensor::einsum(c.spec, a, b);
  DenseTensor want = tt::testing::naive_einsum(c.spec, a, b);
  ASSERT_EQ(got.shape(), want.shape()) << c.spec;
  EXPECT_LT(tt::tensor::max_abs_diff(got, want), 1e-10 * (1.0 + want.max_abs())) << c.spec;
}

INSTANTIATE_TEST_SUITE_P(
    Specs, EinsumParam,
    ::testing::Values(
        // plain matmul
        Case{"ik,kj->ij", {5, 7}, {7, 6}},
        // matmul with transposed output
        Case{"ik,kj->ji", {5, 7}, {7, 6}},
        // MPS-style: environment × site tensor
        Case{"akb,bsc->aksc", {3, 4, 5}, {5, 2, 6}},
        // left-env update: order-3 × order-3 over two modes
        Case{"akb,asc->kbsc", {3, 4, 5}, {3, 2, 6}},
        // order-4 × order-4 MPO-like contraction
        Case{"kslm,mtun->kslntu", {2, 3, 2, 4}, {4, 3, 2, 2}},
        // full contraction to scalar
        Case{"ab,ab->", {4, 6}, {4, 6}},
        // outer product (no contracted labels)
        Case{"ab,cd->abcd", {2, 3}, {4, 2}},
        // single contracted mode, rest free
        Case{"abc,cd->abd", {3, 2, 4}, {4, 5}},
        // contraction over three modes at once
        Case{"abcd,bcde->ae", {2, 3, 4, 2}, {3, 4, 2, 5}},
        // vector cases
        Case{"a,ab->b", {5}, {5, 3}}, Case{"ab,b->a", {3, 5}, {5}},
        Case{"a,a->", {9}, {9}},
        // dimension-1 modes
        Case{"aib,bjc->aijc", {1, 4, 3}, {3, 5, 1}},
        // transpose-lowered operands: A stored [con, free] ...
        Case{"ka,kb->ab", {7, 5}, {7, 6}},
        Case{"kab,kc->abc", {7, 3, 4}, {7, 5}},
        // ... B stored [free, con] ...
        Case{"ak,bk->ab", {5, 7}, {6, 7}},
        Case{"ak,bck->abc", {5, 7}, {3, 4, 7}},
        // ... and both at once, multi-mode contracted group
        Case{"klab,cdkl->abcd", {3, 2, 4, 5}, {2, 3, 3, 2}},
        // permuted operand above the per-thread scratch cap (2^18 words)
        Case{"akb,kc->abc", {70, 64, 60}, {64, 3}}));

TEST(Einsum, StatsReportGemmDims) {
  Rng rng(1);
  DenseTensor a = DenseTensor::random({3, 4, 5}, rng);
  DenseTensor b = DenseTensor::random({5, 2, 6}, rng);
  EinsumStats st;
  tt::tensor::einsum("akb,bsc->aksc", a, b, &st);
  EXPECT_EQ(st.m, 12);  // 3*4
  EXPECT_EQ(st.n, 12);  // 2*6
  EXPECT_EQ(st.k, 5);
  EXPECT_DOUBLE_EQ(st.flops, 2.0 * 12 * 12 * 5);
}

TEST(Einsum, StatsCountPermutedWords) {
  Rng rng(2);
  DenseTensor a = DenseTensor::random({4, 3, 2}, rng);
  DenseTensor b = DenseTensor::random({3, 5}, rng);
  EinsumStats st;
  // "akb,kc->abc": A's contracted mode is interleaved between its free modes,
  // so no transpose lowering applies and A must be permuted; B is aligned.
  tt::tensor::einsum("akb,kc->abc", a, b, &st);
  EXPECT_DOUBLE_EQ(st.permuted_words, static_cast<double>(a.size()));
  EXPECT_EQ(st.lowered_transposes, 0);
}

TEST(Einsum, PureTransposesLowerToGemmFlagsNotCopies) {
  Rng rng(2);
  DenseTensor a = DenseTensor::random({4, 3}, rng);
  DenseTensor b = DenseTensor::random({5, 4}, rng);
  EinsumStats st;
  // "ka,bk->ab": A is stored [con, free] and B [free, con] — both are pure
  // matrix transposes, handed to gemm as trans flags with zero words moved.
  tt::tensor::einsum("ka,bk->ab", a, b, &st);
  EXPECT_DOUBLE_EQ(st.permuted_words, 0.0);
  EXPECT_EQ(st.lowered_transposes, 2);
}

TEST(Einsum, NoPermutationForAlignedSpec) {
  Rng rng(3);
  DenseTensor a = DenseTensor::random({4, 3}, rng);
  DenseTensor b = DenseTensor::random({3, 5}, rng);
  EinsumStats st;
  tt::tensor::einsum("ik,kj->ij", a, b, &st);
  EXPECT_DOUBLE_EQ(st.permuted_words, 0.0);
}

TEST(Einsum, RejectsMalformedSpecs) {
  Rng rng(4);
  DenseTensor a = DenseTensor::random({2, 2}, rng);
  DenseTensor b = DenseTensor::random({2, 2}, rng);
  EXPECT_THROW(tt::tensor::einsum("ab,bc", a, b), tt::Error);        // no arrow
  EXPECT_THROW(tt::tensor::einsum("ab->ab", a, b), tt::Error);       // one operand
  EXPECT_THROW(tt::tensor::einsum("aa,ab->b", a, b), tt::Error);     // trace
  EXPECT_THROW(tt::tensor::einsum("ab,bc->abc", a, b), tt::Error);   // batch label
  EXPECT_THROW(tt::tensor::einsum("ab,cd->ab", a, b), tt::Error);    // dangling c,d
  EXPECT_THROW(tt::tensor::einsum("abc,bc->a", a, b), tt::Error);    // order mismatch
}

TEST(Einsum, RejectsDimensionMismatch) {
  Rng rng(5);
  DenseTensor a = DenseTensor::random({2, 3}, rng);
  DenseTensor b = DenseTensor::random({4, 2}, rng);
  EXPECT_THROW(tt::tensor::einsum("ab,bc->ac", a, b), tt::Error);
}

TEST(Einsum, ZeroDimensionOperand) {
  Rng rng(6);
  DenseTensor a = DenseTensor::random({3, 0}, rng);
  DenseTensor b = DenseTensor::random({0, 4}, rng);
  DenseTensor c = tt::tensor::einsum("ab,bc->ac", a, b);
  EXPECT_EQ(c.dim(0), 3);
  EXPECT_EQ(c.dim(1), 4);
  EXPECT_DOUBLE_EQ(c.max_abs(), 0.0);
}

}  // namespace
