// Google-benchmark microbenches for the computational substrates: GEMM,
// tensor permutation (HPTT stand-in), einsum contraction (dense and sparse),
// SVD, block-sparse contraction (Alg. 2), one Davidson matvec and the
// transport's frame checksum. These measure real host throughput — the
// numbers behind the wall-clock columns of the figure benches.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "dmrg/engine.hpp"
#include "dmrg/env_graph.hpp"
#include "dmrg/environment.hpp"
#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "symm/block_ops.hpp"
#include "tensor/einsum.hpp"
#include "mps/mps.hpp"
#include "models/spin_half.hpp"
#include "models/electron.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "runtime/wire.hpp"

namespace {

using tt::Rng;
using tt::index_t;

void BM_Gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(1);
  auto a = tt::linalg::Matrix::random(n, n, rng);
  auto b = tt::linalg::Matrix::random(n, n, rng);
  tt::linalg::Matrix c(n, n);
  for (auto _ : state) {
    tt::linalg::gemm(false, false, 1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_GemmTransposed(benchmark::State& state) {
  // AᵀBᵀ: the packed builtin kernel (and dgemm) absorb the transposes during
  // packing, so this should track BM_Gemm closely — it used to pay two
  // materialized transpose copies per call.
  const index_t n = state.range(0);
  Rng rng(1);
  auto a = tt::linalg::Matrix::random(n, n, rng);
  auto b = tt::linalg::Matrix::random(n, n, rng);
  tt::linalg::Matrix c(n, n);
  for (auto _ : state) {
    tt::linalg::gemm(true, true, 1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmTransposed)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_Permute(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(2);
  auto t = tt::tensor::DenseTensor::random({n, n, 8, 4}, rng);
  for (auto _ : state) {
    auto p = t.permuted({3, 1, 0, 2});
    benchmark::DoNotOptimize(p.data());
  }
  state.SetBytesProcessed(state.iterations() * t.size() *
                          static_cast<int64_t>(sizeof(double)) * 2);
}
BENCHMARK(BM_Permute)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_EinsumDense(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(3);
  // Environment-style contraction L(a,k,b)·x(b,s,t,c).
  auto l = tt::tensor::DenseTensor::random({m, 16, m}, rng);
  auto x = tt::tensor::DenseTensor::random({m, 2, 2, m}, rng);
  for (auto _ : state) {
    auto y = tt::tensor::einsum("akb,bstc->akstc", l, x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_EinsumDense)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_EinsumSparse(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(4);
  tt::tensor::DenseTensor dl({m, 16, m});
  tt::tensor::DenseTensor dx({m, 2, 2, m});
  for (index_t i = 0; i < dl.size(); ++i)
    if (rng.uniform() < 0.2) dl[i] = rng.normal();
  for (index_t i = 0; i < dx.size(); ++i)
    if (rng.uniform() < 0.2) dx[i] = rng.normal();
  auto sl = tt::tensor::SparseTensor::from_dense(dl);
  auto sx = tt::tensor::SparseTensor::from_dense(dx);
  for (auto _ : state) {
    auto y = tt::tensor::einsum_ss("akb,bstc->akstc", sl, sx);
    benchmark::DoNotOptimize(y.nnz());
  }
}
BENCHMARK(BM_EinsumSparse)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_Svd(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(5);
  auto a = tt::linalg::Matrix::random(2 * n, n, rng);
  for (auto _ : state) {
    auto f = tt::linalg::svd(a);
    benchmark::DoNotOptimize(f.s.data());
  }
}
BENCHMARK(BM_Svd)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_Eigh(benchmark::State& state) {
  // Symmetric positive semidefinite, like the Gram matrices the builtin SVD
  // and the Davidson Rayleigh–Ritz step diagonalize.
  const index_t n = state.range(0);
  Rng rng(8);
  auto g = tt::linalg::Matrix::random(n, n, rng);
  auto a = tt::linalg::matmul(false, true, g, g);
  for (auto _ : state) {
    auto e = tt::linalg::eigh(a);
    benchmark::DoNotOptimize(e.values.data());
  }
}
BENCHMARK(BM_Eigh)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_BlockContract(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(6);
  auto sites = tt::models::spin_half_sites(12);
  auto psi = tt::mps::Mps::random(sites, tt::symm::QN(0), m, rng);
  const auto& a = psi.site(5);
  const auto& b = psi.site(6);
  for (auto _ : state) {
    auto c = tt::symm::contract(a, b, {{2, 0}});
    benchmark::DoNotOptimize(c.num_blocks());
  }
}
BENCHMARK(BM_BlockContract)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_BlockContractElectron(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(7);
  auto sites = tt::models::electron_sites(10);
  auto psi = tt::mps::Mps::random(sites, tt::symm::QN(10, 0), m, rng);
  const auto& a = psi.site(4);
  const auto& b = psi.site(5);
  for (auto _ : state) {
    auto c = tt::symm::contract(a, b, {{2, 0}});
    benchmark::DoNotOptimize(c.num_blocks());
  }
}
BENCHMARK(BM_BlockContractElectron)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_MatvecElectron(benchmark::State& state) {
  // One two-site Davidson matvec at the middle bond of the triangular Hubbard
  // 4×3 cylinder (the electrons workload), list engine, at bond dimension m.
  // Two conserved charges give many tiny blocks, and the four contractions
  // hit every operand route (as-is, transpose, permute), so this is the
  // per-block-pair layer the BlockContract cases (no permutes) miss.
  const index_t m = state.range(0);
  const auto lat = tt::models::triangular_cylinder(4, 3);
  auto sites = tt::models::electron_sites(lat.num_sites);
  const tt::mps::Mpo h = tt::models::hubbard_mpo(sites, lat, 1.0, 8.5);
  Rng rng(8);
  const auto psi = tt::mps::Mps::random(sites, tt::symm::QN(lat.num_sites, 0), m, rng);
  auto eng =
      tt::dmrg::make_engine(tt::dmrg::EngineKind::kList, {tt::rt::localhost(), 1, 1});
  const int j = lat.num_sites / 2 - 1;
  tt::dmrg::EnvGraph envs(*eng, psi, h);
  const tt::symm::BlockTensor left = envs.left(j);
  const tt::symm::BlockTensor right = envs.right(j + 2);
  const tt::symm::BlockTensor x =
      tt::symm::contract(psi.site(j), psi.site(j + 1), {{2, 0}});
  for (auto _ : state) {
    auto y = tt::dmrg::apply_two_site(*eng, left, h.site(j), h.site(j + 1), right, x);
    benchmark::DoNotOptimize(y.num_blocks());
  }
}
BENCHMARK(BM_MatvecElectron)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

// The frame checksum every transported byte passes through twice (sender and
// receiver): this layer's ceiling, in bytes/s. Arg is the buffer size in MB.
void BM_WireChecksum(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0)) << 20;
  std::vector<std::byte> buf(n);
  Rng rng(3);
  for (std::size_t i = 0; i < n; i += 4096)
    buf[i] = static_cast<std::byte>(static_cast<unsigned char>(rng.integer(0, 255)));
  for (auto _ : state) benchmark::DoNotOptimize(tt::rt::wire_checksum(buf.data(), n));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_WireChecksum)->Arg(1)->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace

// Explicit main (instead of benchmark_main) so the driver banner names the
// active linalg backend next to the numbers it produced.
int main(int argc, char** argv) {
  tt::bench::print_driver_header("bench_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
