#include "linalg/gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "linalg/backend.hpp"
#include "support/thread_pool.hpp"

namespace tt::linalg {

namespace {

// Half-open range overlap on raw addresses (std::uintptr_t: comparing
// unrelated pointers directly is unspecified).
bool ranges_overlap(const real_t* a, index_t na, const real_t* b, index_t nb) {
  if (na <= 0 || nb <= 0) return false;
  // tt-lint: allow(raw-cast-audit) pointer-to-integer for address ordering only; nothing is dereferenced through the cast
  const auto a0 = reinterpret_cast<std::uintptr_t>(a);
  // tt-lint: allow(raw-cast-audit) pointer-to-integer for address ordering only; nothing is dereferenced through the cast
  const auto a1 = reinterpret_cast<std::uintptr_t>(a + na);
  // tt-lint: allow(raw-cast-audit) pointer-to-integer for address ordering only; nothing is dereferenced through the cast
  const auto b0 = reinterpret_cast<std::uintptr_t>(b);
  // tt-lint: allow(raw-cast-audit) pointer-to-integer for address ordering only; nothing is dereferenced through the cast
  const auto b1 = reinterpret_cast<std::uintptr_t>(b + nb);
  return a0 < b1 && b0 < a1;
}

// --- packed-panel, register-tiled GEMM ---------------------------------------
//
// BLIS-style blocking: C is cut into tiles of at most kMc rows × kNt columns.
// For each kKc block of k, a tile packs its kNt-column slice of op(B) into
// kNr-wide strips and its row panel of op(A) into kMr-tall strips (alpha
// folded in), then sweeps them with a kMr×kNr register-tile micro-kernel. The
// packing reads op(A)/op(B) through their physical layout, so transposed
// operands cost nothing extra — no transpose is ever materialized.
//
// Tiles write disjoint parts of C and the k blocks run in order, so every C
// element accumulates its k contributions in one fixed order: results are
// bitwise identical whether the tiles run serially or on the pool at any
// thread count.
constexpr index_t kMr = 4;     // register tile rows
constexpr index_t kNr = 8;     // register tile cols (one or two vector widths)
constexpr index_t kMc = 128;   // A panel rows   (A panel: kMc×kKc = 256 KB)
constexpr index_t kKc = 256;   // shared k block
constexpr index_t kNt = 256;   // C tile cols    (B tile: kKc×kNt = 512 KB)
// m·n·k above which the tile loop runs on the pool; below it the dispatch
// costs more than the split saves.
constexpr index_t kParallelMinVolume = index_t{1} << 21;

index_t round_up(index_t x, index_t q) { return (x + q - 1) / q * q; }

// Pack alpha·op(A)[i0:i0+ib, pc:pc+kc] — one kMr-tall strip, k-major,
// zero-padded past ib rows.
void pack_a_strip(bool transa, const real_t* a, index_t m, index_t k,
                  index_t i0, index_t ib, index_t pc, index_t kc, real_t alpha,
                  real_t* ap) {
  for (index_t kk = 0; kk < kc; ++kk) {
    for (index_t i = 0; i < ib; ++i)
      ap[kk * kMr + i] = alpha * (transa ? a[(pc + kk) * m + i0 + i]
                                         : a[(i0 + i) * k + pc + kk]);
    for (index_t i = ib; i < kMr; ++i) ap[kk * kMr + i] = 0.0;
  }
}

// Pack op(B)[pc:pc+kc, j0:j0+jb] — one kNr-wide strip, zero-padded past jb.
void pack_b_strip(bool transb, const real_t* b, index_t k, index_t n,
                  index_t pc, index_t j0, index_t jb, index_t kc, real_t* bp) {
  for (index_t kk = 0; kk < kc; ++kk) {
    for (index_t j = 0; j < jb; ++j)
      bp[kk * kNr + j] = transb ? b[(j0 + j) * k + pc + kk]
                                : b[(pc + kk) * n + j0 + j];
    for (index_t j = jb; j < kNr; ++j) bp[kk * kNr + j] = 0.0;
  }
}

// C[0:mb, 0:nb] += Σ_kk ap-strip(kk) ⊗ bp-strip(kk). The accumulator tile
// lives in registers; padded lanes hold zeros and are simply not written back.
void micro_kernel(index_t kc, const real_t* __restrict ap,
                  const real_t* __restrict bp, real_t* __restrict c, index_t ldc,
                  index_t mb, index_t nb) {
  real_t acc[kMr][kNr] = {};
  for (index_t kk = 0; kk < kc; ++kk) {
    const real_t* av = ap + kk * kMr;
    const real_t* bv = bp + kk * kNr;
    for (index_t i = 0; i < kMr; ++i)
      for (index_t j = 0; j < kNr; ++j) acc[i][j] += av[i] * bv[j];
  }
  for (index_t i = 0; i < mb; ++i)
    for (index_t j = 0; j < nb; ++j) c[i * ldc + j] += acc[i][j];
}

// Per-thread pack buffers, reused across calls. Each grows to what the
// largest GEMM on its thread needed and never past one A panel (kMc×kKc) and
// one B tile (kKc×kNt): at most 768 KB per thread, whatever the shapes.
struct PackScratch {
  std::vector<real_t> a, b;
};

PackScratch& pack_scratch(std::size_t a_words, std::size_t b_words) {
  thread_local PackScratch s;
  if (s.a.size() < a_words) s.a.resize(a_words);
  if (s.b.size() < b_words) s.b.resize(b_words);
  return s;
}

// C += alpha·op(A)·op(B) for non-degenerate shapes (beta already applied).
// Serial below kParallelMinVolume, at one thread, and inside a pool region
// (e.g. a contraction bin): the tile loop is then a plain loop that packs each
// B tile once and reuses it for every row panel. On the pool every tile packs
// its own B tile, trading a repack per row panel for no shared state.
void gemm_packed(bool transa, bool transb, index_t m, index_t n, index_t k,
                 real_t alpha, const real_t* a, const real_t* b, real_t* c) {
  const index_t row_panels = (m + kMc - 1) / kMc;
  const index_t col_tiles = (n + kNt - 1) / kNt;
  const index_t tiles = row_panels * col_tiles;
  const index_t kb = std::min(kKc, k);
  const auto a_words = static_cast<std::size_t>(round_up(std::min(kMc, m), kMr) * kb);
  const auto b_words = static_cast<std::size_t>(round_up(std::min(kNt, n), kNr) * kb);
  const bool parallel = tiles > 1 && m * n * k > kParallelMinVolume &&
                        support::num_threads() > 1 && !support::in_parallel_region();
  for (index_t pc = 0; pc < k; pc += kKc) {
    const index_t kc = std::min(kKc, k - pc);
    // Pack op(B)[pc:pc+kc, jt:jt+kNt] into kNr-wide strips.
    auto pack_b_tile = [&](index_t jt, real_t* bp) {
      const index_t nt = std::min(kNt, n - jt);
      for (index_t j = 0; j < nt; j += kNr)
        pack_b_strip(transb, b, k, n, pc, jt + j, std::min(kNr, nt - j), kc,
                     bp + j * kc);
    };
    // C[ic:ic+kMc, jt:jt+kNt] += A panel · packed B tile. The A panel stays
    // cache-resident while the tile's B strips stream past it.
    auto run_tile = [&](index_t ic, index_t jt, const real_t* bp, real_t* ap) {
      const index_t mc = std::min(kMc, m - ic);
      const index_t nt = std::min(kNt, n - jt);
      for (index_t ir = 0; ir < mc; ir += kMr)
        pack_a_strip(transa, a, m, k, ic + ir, std::min(kMr, mc - ir), pc, kc,
                     alpha, ap + ir * kc);
      for (index_t j = 0; j < nt; j += kNr)
        for (index_t ir = 0; ir < mc; ir += kMr)
          micro_kernel(kc, ap + ir * kc, bp + j * kc, c + (ic + ir) * n + jt + j, n,
                       std::min(kMr, mc - ir), std::min(kNr, nt - j));
    };
    if (parallel) {
      support::parallel_for(tiles, [&](index_t t) {
        PackScratch& s = pack_scratch(a_words, b_words);
        const index_t jt = t % col_tiles * kNt;
        pack_b_tile(jt, s.b.data());
        run_tile(t / col_tiles * kMc, jt, s.b.data(), s.a.data());
      });
    } else {
      PackScratch& s = pack_scratch(a_words, b_words);
      for (index_t jt = 0; jt < n; jt += kNt) {
        pack_b_tile(jt, s.b.data());
        for (index_t ic = 0; ic < m; ic += kMc)
          run_tile(ic, jt, s.b.data(), s.a.data());
      }
    }
  }
}

void scale_inplace(real_t* c, index_t count, real_t beta) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    std::memset(c, 0, static_cast<std::size_t>(count) * sizeof(real_t));
    return;
  }
  for (index_t i = 0; i < count; ++i) c[i] *= beta;
}

}  // namespace

namespace detail {

void builtin_gemm(bool transa, bool transb, index_t m, index_t n, index_t k,
                  real_t alpha, const real_t* a, const real_t* b, real_t beta,
                  real_t* c) {
  scale_inplace(c, m * n, beta);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  gemm_packed(transa, transb, m, n, k, alpha, a, b, c);
}

void builtin_gemv(index_t m, index_t n, real_t alpha, const real_t* a,
                  const real_t* x, real_t beta, real_t* y) {
  for (index_t i = 0; i < m; ++i) {
    real_t s = 0.0;
    const real_t* ai = a + i * n;
    for (index_t j = 0; j < n; ++j) s += ai[j] * x[j];
    // BLAS semantics: beta == 0 overwrites without reading y, which may hold
    // NaN or uninitialized garbage that 0*y would propagate.
    y[i] = (beta == 0.0) ? alpha * s : alpha * s + beta * y[i];
  }
}

}  // namespace detail

void gemm_raw(bool transa, bool transb, index_t m, index_t n, index_t k,
              real_t alpha, const real_t* a, const real_t* b, real_t beta,
              real_t* c) {
  // BLAS forbids aliased output: the beta pass rewrites c before the multiply
  // reads a/b, so overlap would corrupt the operands silently.
  TT_CHECK(!ranges_overlap(c, m * n, a, m * k),
           "gemm output aliases operand A");
  TT_CHECK(!ranges_overlap(c, m * n, b, k * n),
           "gemm output aliases operand B");
  backend().gemm(transa, transb, m, n, k, alpha, a, b, beta, c);
}

void gemm(bool transa, bool transb, real_t alpha, const Matrix& a,
          const Matrix& b, real_t beta, Matrix& c) {
  const index_t m = transa ? a.cols() : a.rows();
  const index_t ka = transa ? a.rows() : a.cols();
  const index_t kb = transb ? b.cols() : b.rows();
  const index_t n = transb ? b.rows() : b.cols();
  TT_CHECK(ka == kb, "gemm inner dimension mismatch: " << ka << " vs " << kb);
  TT_CHECK(c.rows() == m && c.cols() == n,
           "gemm output shape mismatch: got " << c.rows() << "x" << c.cols()
                                              << ", want " << m << "x" << n);
  gemm_raw(transa, transb, m, n, ka, alpha, a.data(), b.data(), beta, c.data());
}

Matrix matmul(const Matrix& a, const Matrix& b) { return matmul(false, false, a, b); }

Matrix matmul(bool transa, bool transb, const Matrix& a, const Matrix& b) {
  const index_t m = transa ? a.cols() : a.rows();
  const index_t n = transb ? b.rows() : b.cols();
  Matrix c(m, n);
  gemm(transa, transb, 1.0, a, b, 0.0, c);
  return c;
}

void gemv(index_t m, index_t n, real_t alpha, const real_t* a, const real_t* x,
          real_t beta, real_t* y) {
  backend().gemv(m, n, alpha, a, x, beta, y);
}

}  // namespace tt::linalg
