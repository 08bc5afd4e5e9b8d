// Determinism and correctness of the thread-parallel block-contraction
// executor: bitwise-identical outputs and ContractStats at any thread count,
// and agreement with the fused dense oracle. Also covers in-place bin
// accumulation for every operand lowering route, on the thread executor and
// under the rank scheduler.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "dmrg/engines.hpp"
#include "runtime/machine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/spawn_modes.hpp"
#include "support/thread_pool.hpp"
#include "symm/block_ops.hpp"
#include "symm/fuse.hpp"
#include "tensor/einsum.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::symm::BlockTensor;
using tt::symm::ContractOptions;
using tt::symm::ContractStats;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;
using tt::tensor::OperandRoute;

// A bond with many sectors so a single contraction produces dozens of bins.
Index wide_bond(Dir d, int nsec, int dim0) {
  std::vector<tt::symm::Sector> secs;
  for (int q = 0; q < nsec; ++q)
    secs.push_back({QN(q - nsec / 2), static_cast<index_t>(dim0 + q % 3)});
  return Index(secs, d);
}

Index phys(Dir d) { return Index({{QN(-1), 2}, {QN(1), 2}}, d); }

// Many-block operand pair sharing a contractible middle bond.
std::pair<BlockTensor, BlockTensor> many_block_pair(unsigned seed) {
  Rng rng(seed);
  const Index mid = wide_bond(Dir::Out, 11, 3);
  BlockTensor a = BlockTensor::random(
      {wide_bond(Dir::In, 9, 2), phys(Dir::In), mid}, QN::zero(1), rng);
  BlockTensor b = BlockTensor::random(
      {mid.reversed(), phys(Dir::In), wide_bond(Dir::Out, 9, 2)}, QN::zero(1), rng);
  return {std::move(a), std::move(b)};
}

// Bitwise block-tensor equality (not tolerance-based: the executor promises
// identical floating-point reductions at every thread count).
void expect_bitwise_equal(const BlockTensor& x, const BlockTensor& y) {
  ASSERT_TRUE(x.same_structure(y));
  ASSERT_EQ(x.num_blocks(), y.num_blocks());
  for (const auto& [key, blk] : x.blocks()) {
    const tt::tensor::DenseTensor* other = y.find_block(key);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(blk.shape(), other->shape());
    ASSERT_EQ(std::memcmp(blk.data(), other->data(),
                          static_cast<std::size_t>(blk.size()) * sizeof(double)),
              0);
  }
}

void expect_identical_stats(const ContractStats& x, const ContractStats& y) {
  // Bitwise: the cross-bin merge order is fixed, so even the floating-point
  // reductions must agree exactly.
  EXPECT_EQ(x.total_flops, y.total_flops);
  EXPECT_EQ(x.permuted_words, y.permuted_words);
  EXPECT_EQ(x.num_bins, y.num_bins);
  ASSERT_EQ(x.block_ops.size(), y.block_ops.size());
  for (std::size_t i = 0; i < x.block_ops.size(); ++i) {
    EXPECT_EQ(x.block_ops[i].flops, y.block_ops[i].flops);
    EXPECT_EQ(x.block_ops[i].words_a, y.block_ops[i].words_a);
    EXPECT_EQ(x.block_ops[i].words_b, y.block_ops[i].words_b);
    EXPECT_EQ(x.block_ops[i].words_c, y.block_ops[i].words_c);
  }
}

TEST(ParallelContract, BitwiseIdenticalAcrossThreadCounts) {
  auto [a, b] = many_block_pair(31);
  ContractOptions serial;
  serial.num_threads = 1;
  ContractStats st1;
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}}, &st1, serial);
  ASSERT_GT(ref.num_blocks(), 8);  // the workload must actually have many bins
  EXPECT_GT(st1.block_ops.size(), 30u);

  for (int threads : {2, 8}) {
    ContractOptions opts;
    opts.num_threads = threads;
    ContractStats st;
    const BlockTensor c = tt::symm::contract(a, b, {{2, 0}}, &st, opts);
    expect_bitwise_equal(ref, c);
    expect_identical_stats(st1, st);
  }
}

TEST(ParallelContract, TtThreadsGlobalKnobIsUsedByDefault) {
  auto [a, b] = many_block_pair(32);
  ContractStats st1, st8;
  tt::support::set_num_threads(1);
  const BlockTensor ref = tt::symm::contract(a, b, {{2, 0}}, &st1);
  tt::support::set_num_threads(8);
  const BlockTensor c = tt::symm::contract(a, b, {{2, 0}}, &st8);
  tt::support::set_num_threads(0);
  expect_bitwise_equal(ref, c);
  expect_identical_stats(st1, st8);
}

TEST(ParallelContract, MatchesFusedDenseOracle) {
  auto [a, b] = many_block_pair(33);
  ContractOptions opts;
  opts.num_threads = 4;
  const BlockTensor c = tt::symm::contract(a, b, {{2, 0}}, nullptr, opts);
  auto want = tt::tensor::einsum("lsr,rtm->lstm", tt::symm::fuse_dense(a),
                                 tt::symm::fuse_dense(b));
  auto got = tt::symm::fuse_dense(c);
  EXPECT_LT(tt::tensor::max_abs_diff(got, want), 1e-10 * (1.0 + want.max_abs()));
}

TEST(ParallelContract, MultiModeAndScalarOutputsStayDeterministic) {
  auto [a, b] = many_block_pair(34);
  (void)b;
  const BlockTensor adag = a.dagger();
  ContractOptions serial, par;
  serial.num_threads = 1;
  par.num_threads = 8;
  // Overlap-style double contraction (order-2 output).
  expect_bitwise_equal(tt::symm::contract(a, adag, {{1, 1}, {2, 2}}, nullptr, serial),
                       tt::symm::contract(a, adag, {{1, 1}, {2, 2}}, nullptr, par));
  // Full contraction to a scalar (single bin).
  expect_bitwise_equal(
      tt::symm::contract(a, adag, {{0, 0}, {1, 1}, {2, 2}}, nullptr, serial),
      tt::symm::contract(a, adag, {{0, 0}, {1, 1}, {2, 2}}, nullptr, par));
}

TEST(ParallelContract, EnginesProduceIdenticalResultsAtAnyThreadCount) {
  auto [a, b] = many_block_pair(37);
  const tt::rt::Cluster local{tt::rt::localhost(), 1, 1};
  for (auto kind : {tt::dmrg::EngineKind::kReference, tt::dmrg::EngineKind::kList}) {
    auto serial = tt::dmrg::make_engine(kind, local);
    serial->set_num_threads(1);
    auto par = tt::dmrg::make_engine(kind, local);
    par->set_num_threads(8);
    using tt::dmrg::Role;
    const BlockTensor c1 = serial->contract(a, Role::kOperator, b,
                                            Role::kIntermediate, {{2, 0}});
    const BlockTensor c8 =
        par->contract(a, Role::kOperator, b, Role::kIntermediate, {{2, 0}});
    expect_bitwise_equal(c1, c8);
    // The charged simulated cost must not depend on the thread count either.
    EXPECT_EQ(serial->tracker().flops(), par->tracker().flops());
    EXPECT_EQ(serial->tracker().total_time(), par->tracker().total_time());
  }
}

// --- in-place bin accumulation, one case per operand lowering route ---------
//
// Logical modes A = (l, x, y) and B = (x, y, m), contracted over x and y. The
// bond sectors make the middle output block collect three block pairs, and
// the (x=+1, y=-1) pair has a contracted dimension of 19·16 = 304 > 256, so
// its GEMM runs two k blocks. Each case stores the modes in a different order,
// which selects the route the lowering takes for each operand.
struct RouteCase {
  const char* name;
  std::array<int, 3> a_order;  // storage position -> logical mode of A
  std::array<int, 3> b_order;  // storage position -> logical mode of B
  OperandRoute route_a, route_b;
};

const RouteCase kRouteCases[] = {
    {"as_is", {0, 1, 2}, {0, 1, 2}, OperandRoute::kAsIs, OperandRoute::kAsIs},
    {"transpose_a", {1, 2, 0}, {0, 1, 2}, OperandRoute::kTranspose, OperandRoute::kAsIs},
    {"transpose_b", {0, 1, 2}, {2, 0, 1}, OperandRoute::kAsIs, OperandRoute::kTranspose},
    {"permute_both", {1, 0, 2}, {0, 2, 1}, OperandRoute::kPermute,
     OperandRoute::kPermute},
};

void PrintTo(const RouteCase& rc, std::ostream* os) { *os << rc.name; }

struct RouteOperands {
  BlockTensor a, b;
  std::vector<std::pair<int, int>> pairs;
};

RouteOperands route_operands(const RouteCase& rc, unsigned seed) {
  const Index outer({{QN(-2), 2}, {QN(-1), 3}, {QN(0), 2}, {QN(1), 1}, {QN(2), 3}},
                    Dir::In);
  const Index x({{QN(-1), 17}, {QN(0), 3}, {QN(1), 19}}, Dir::Out);
  const Index y({{QN(-1), 16}, {QN(0), 2}, {QN(1), 2}}, Dir::Out);
  const std::array<Index, 3> a_modes = {outer, x, y};
  const std::array<Index, 3> b_modes = {x.reversed(), y.reversed(), outer.reversed()};
  std::vector<Index> ai, bi;
  for (std::size_t p = 0; p < 3; ++p) {
    ai.push_back(a_modes[static_cast<std::size_t>(rc.a_order[p])]);
    bi.push_back(b_modes[static_cast<std::size_t>(rc.b_order[p])]);
  }
  auto pos = [](const std::array<int, 3>& order, int logical) {
    for (int p = 0; p < 3; ++p)
      if (order[static_cast<std::size_t>(p)] == logical) return p;
    return -1;
  };
  Rng rng(seed);
  RouteOperands ops{BlockTensor::random(ai, QN::zero(1), rng),
                    BlockTensor::random(bi, QN::zero(1), rng),
                    {{pos(rc.a_order, 1), pos(rc.b_order, 0)},
                     {pos(rc.a_order, 2), pos(rc.b_order, 1)}}};
  return ops;
}

// ContractStats as the per-pair formula gives them: per pair 2·m·n·k flops,
// the stored sizes of both operand blocks and m·n output words, plus the full
// operand block for each operand the lowering routes through a permute.
ContractStats formula_stats(const RouteOperands& ops) {
  const tt::symm::ContractPlan plan =
      tt::symm::make_contract_plan(ops.a, ops.b, ops.pairs);
  const auto bins = tt::symm::enumerate_bins(ops.a, ops.b, ops.pairs, plan);
  ContractStats st;
  st.num_bins = static_cast<int>(bins.size());
  for (const auto& bin : bins) {
    double bin_flops = 0.0, bin_words = 0.0;
    for (const auto& pw : bin.pairs) {
      double m = 1.0, n = 1.0, k = 1.0;
      for (int mode : plan.free_a) m *= static_cast<double>(pw.ablk->dim(mode));
      for (int mode : plan.free_b) n *= static_cast<double>(pw.bblk->dim(mode));
      for (auto [ma, mb] : ops.pairs) {
        (void)mb;
        k *= static_cast<double>(pw.ablk->dim(ma));
      }
      tt::symm::BlockOpCost op;
      op.flops = 2.0 * m * n * k;
      op.words_a = static_cast<double>(pw.ablk->size());
      op.words_b = static_cast<double>(pw.bblk->size());
      op.words_c = m * n;
      st.block_ops.push_back(op);
      bin_flops += op.flops;
      if (plan.lowering.route_a == OperandRoute::kPermute) bin_words += op.words_a;
      if (plan.lowering.route_b == OperandRoute::kPermute) bin_words += op.words_b;
    }
    st.total_flops += bin_flops;
    st.permuted_words += bin_words;
  }
  return st;
}

class InPlaceBinAccumulation : public ::testing::TestWithParam<RouteCase> {};

TEST_P(InPlaceBinAccumulation, MatchesDenseOracleAndPerPairStatsAtAnyThreadCount) {
  const RouteCase& rc = GetParam();
  const RouteOperands ops = route_operands(rc, 91);
  const tt::symm::ContractPlan plan =
      tt::symm::make_contract_plan(ops.a, ops.b, ops.pairs);
  ASSERT_EQ(plan.lowering.route_a, rc.route_a);
  ASSERT_EQ(plan.lowering.route_b, rc.route_b);

  // The workload must exercise what it claims: a bin accumulating several
  // pairs, and a pair whose contracted dimension spans two GEMM k blocks.
  const auto bins = tt::symm::enumerate_bins(ops.a, ops.b, ops.pairs, plan);
  std::size_t widest_bin = 0;
  index_t max_k = 0;
  for (const auto& bin : bins) {
    widest_bin = std::max(widest_bin, bin.pairs.size());
    for (const auto& pw : bin.pairs) {
      index_t k = 1;
      for (auto [ma, mb] : ops.pairs) {
        (void)mb;
        k *= pw.ablk->dim(ma);
      }
      max_k = std::max(max_k, k);
    }
  }
  ASSERT_GE(widest_bin, 3u);
  ASSERT_GT(max_k, 256);

  ContractStats ref_stats;
  tt::support::set_num_threads(1);
  const BlockTensor ref = tt::symm::contract(ops.a, ops.b, ops.pairs, &ref_stats);

  const auto want = tt::tensor::einsum(plan.spec, tt::symm::fuse_dense(ops.a),
                                       tt::symm::fuse_dense(ops.b));
  const auto got = tt::symm::fuse_dense(ref);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_LE(tt::tensor::max_abs_diff(got, want), 1e-12 * want.max_abs()) << rc.name;
  expect_identical_stats(formula_stats(ops), ref_stats);

  for (int threads : {2, 8}) {
    tt::support::set_num_threads(threads);
    ContractStats st;
    const BlockTensor c = tt::symm::contract(ops.a, ops.b, ops.pairs, &st);
    expect_bitwise_equal(ref, c);
    expect_identical_stats(ref_stats, st);
  }
  tt::support::set_num_threads(0);

  // Workers lower the shipped spec themselves and run their bins on their own
  // pool; results and stats must not move.
  for (tt::rt::SpawnMode mode : tt::rt::testing::tested_spawn_modes()) {
    tt::rt::SchedulerOptions opts;
    opts.num_ranks = 2;
    opts.mode = mode;
    opts.root_threads = 1;
    opts.worker_threads = 2;
    tt::rt::Scheduler sched(opts);
    ContractStats st;
    const BlockTensor c = sched.contract(ops.a, ops.b, ops.pairs, &st);
    expect_bitwise_equal(ref, c);
    expect_identical_stats(ref_stats, st);
    EXPECT_GT(sched.last().ranks[1].bins, 0);  // the worker really ran bins
    sched.shutdown();
  }
}

INSTANTIATE_TEST_SUITE_P(Routes, InPlaceBinAccumulation, ::testing::ValuesIn(kRouteCases),
                         [](const ::testing::TestParamInfo<RouteCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
