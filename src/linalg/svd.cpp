#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/backend.hpp"
#include "linalg/gemm.hpp"
#include "runtime/trace.hpp"
#include "support/rng.hpp"

namespace tt::linalg {

namespace {

constexpr int kMaxSweeps = 60;
constexpr real_t kConvergence = 1.0e-14;
// A carried squared row norm that a rotation shrank below this fraction of
// its old value has lost most of its digits to cancellation: recompute it.
constexpr real_t kRecompute = 1.0e-4;

// x := c·x − s·y, y := s·x + c·y over n entries.
void rotate(real_t* x, real_t* y, index_t n, real_t c, real_t s) {
  for (index_t k = 0; k < n; ++k) {
    const real_t a = x[k], b = y[k];
    x[k] = c * a - s * b;
    y[k] = s * a + c * b;
  }
}

// One-sided Jacobi on the rows of w: rotates row pairs of w, and the same
// row pairs of q, until every pair of rows with squared norm above
// `negligible` is numerically orthogonal. Squared row norms are carried
// through the rotations and refreshed once a sweep, so a pair costs one dot
// product unless it rotates; a pair neither of whose rows moved since its
// check in the previous sweep is still orthogonal and costs nothing.
// Returns the final squared row norms.
std::vector<real_t> jacobi_orthogonalize(Matrix& w, Matrix& q, real_t negligible) {
  const index_t n = w.rows();
  const index_t len = w.cols();
  std::vector<real_t> nrm(static_cast<std::size_t>(n));
  std::vector<int> last(static_cast<std::size_t>(n), -1);  // sweep of last rotation
  auto norm2 = [&](index_t i) -> real_t& { return nrm[static_cast<std::size_t>(i)]; };
  auto moved = [&](index_t i, int sweep) {
    return last[static_cast<std::size_t>(i)] >= sweep;
  };
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    for (index_t i = 0; i < n; ++i)
      if (moved(i, sweep - 1)) norm2(i) = dot(w.row(i), w.row(i), len);
    bool rotated = false;
    for (index_t i = 0; i < n - 1; ++i) {
      for (index_t j = i + 1; j < n; ++j) {
        const real_t aii = norm2(i), ajj = norm2(j);
        if (aii <= negligible || ajj <= negligible) continue;
        if (!moved(i, sweep - 1) && !moved(j, sweep - 1)) continue;
        real_t* wi = w.row(i);
        real_t* wj = w.row(j);
        const real_t aij = dot(wi, wj, len);
        if (std::abs(aij) <= kConvergence * std::sqrt(aii) * std::sqrt(ajj)) continue;
        rotated = true;
        last[static_cast<std::size_t>(i)] = last[static_cast<std::size_t>(j)] = sweep;
        // Jacobi rotation zeroing the (i,j) Gram entry.
        const real_t zeta = (ajj - aii) / (2.0 * aij);
        const real_t t = ((zeta >= 0.0) ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const real_t cs = 1.0 / std::sqrt(1.0 + t * t);
        const real_t sn = cs * t;
        rotate(wi, wj, len, cs, sn);
        rotate(q.row(i), q.row(j), q.cols(), cs, sn);
        norm2(i) = aii - t * aij;
        norm2(j) = ajj + t * aij;
        if (norm2(i) < kRecompute * aii) norm2(i) = dot(wi, wi, len);
        if (norm2(j) < kRecompute * ajj) norm2(j) = dot(wj, wj, len);
      }
    }
    if (!rotated) break;
  }
  for (index_t i = 0; i < n; ++i) norm2(i) = dot(w.row(i), w.row(i), len);
  return nrm;
}

// Gram–Schmidt completion of the rows of f (r×c, r ≤ c) flagged invalid, so
// the returned factor has orthonormal rows even for rank-deficient inputs.
void complete_null_rows(Matrix& f, const std::vector<bool>& valid) {
  const index_t r = f.rows();
  const index_t len = f.cols();
  Rng rng(0xc0111ecdULL);
  for (index_t j = 0; j < r; ++j) {
    if (valid[static_cast<std::size_t>(j)]) continue;
    for (int attempt = 0; attempt < 8; ++attempt) {
      std::vector<real_t> cand(static_cast<std::size_t>(len));
      for (auto& v : cand) v = rng.normal();
      // Orthogonalize twice against all other rows (Kahan's rule).
      for (int pass = 0; pass < 2; ++pass) {
        for (index_t c = 0; c < r; ++c) {
          if (c == j || (!valid[static_cast<std::size_t>(c)] && c > j)) continue;
          const real_t* fc = f.row(c);
          const real_t d = dot(fc, cand.data(), len);
          for (index_t k = 0; k < len; ++k)
            cand[static_cast<std::size_t>(k)] -= d * fc[k];
        }
      }
      const real_t nrm = std::sqrt(dot(cand.data(), cand.data(), len));
      if (nrm > 1e-8) {
        for (index_t k = 0; k < len; ++k)
          f(j, k) = cand[static_cast<std::size_t>(k)] / nrm;
        break;
      }
    }
  }
}

}  // namespace

Matrix SvdResult::reconstruct() const {
  Matrix us = u;
  for (index_t i = 0; i < us.rows(); ++i)
    for (index_t j = 0; j < us.cols(); ++j) us(i, j) *= s[static_cast<std::size_t>(j)];
  return matmul(us, vt);
}

SvdResult svd(const Matrix& a) {
  if (a.rows() == 0 || a.cols() == 0) {
    SvdResult out;
    out.u = Matrix(a.rows(), std::min(a.rows(), a.cols()));
    out.vt = Matrix(std::min(a.rows(), a.cols()), a.cols());
    return out;
  }
  return backend().svd(a);
}

namespace detail {

SvdResult builtin_svd(const Matrix& a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  // Work on B = A (wide) or B = Aᵀ (tall), r×c with r ≤ c, so the Gram
  // matrix is the smaller one. The transposes ride on the GEMM flags.
  const bool tall = m > n;
  const index_t r = std::min(m, n);
  const index_t c = std::max(m, n);

  // A·2^-e with max |entry| in [1/2, 1): exact, and keeps entries near
  // 1e±150 from under- or overflowing in the Gram matrix.
  int e = 0;
  std::frexp(a.max_abs(), &e);
  Matrix as(m, n);
  Matrix g(r, r);
  {
    TT_TRACE_SPAN("svd.gram", rt::TraceCat::kSvd);
    for (index_t k = 0; k < a.size(); ++k) as.data()[k] = std::ldexp(a.data()[k], -e);
    gemm_raw(tall, !tall, r, r, c, 1.0, as.data(), as.data(), 0.0, g.data());
    for (index_t i = 0; i < r; ++i)
      for (index_t j = 0; j < i; ++j) g(j, i) = g(i, j);
  }
  // Eigenvectors of B·Bᵀ as the rows of q, then W = q·B: W's rows are
  // orthogonal to about ε‖B‖², so the Jacobi polish needs only a few sweeps.
  Matrix q;
  {
    TT_TRACE_SPAN("svd.eigh", rt::TraceCat::kSvd);
    q = builtin_eigh_rows(std::move(g)).rows;
  }
  Matrix w(r, c);
  {
    TT_TRACE_SPAN("svd.gram", rt::TraceCat::kSvd);
    gemm_raw(false, tall, r, c, r, 1.0, q.data(), as.data(), 0.0, w.data());
  }
  TT_TRACE_SPAN("svd.polish", rt::TraceCat::kSvd);
  // Rows of W carry absolute rounding of about ε‖A‖, so a row at or below
  // ε‖A‖_F has a noise direction. The polish leaves such rows alone (rotating
  // them only shrinks them towards underflow, where the orthogonality test
  // loses its digits and never passes) and the assembly completes them.
  const real_t eps = std::numeric_limits<real_t>::epsilon();
  const real_t frob = as.frobenius_norm();
  const real_t negligible = eps * eps * frob * frob;
  const std::vector<real_t> norm2 = jacobi_orthogonalize(w, q, negligible);

  // Singular values = row norms of W; sort descending. B = qᵀ·diag(s)·F with
  // F the normalized rows of W, negligible rows completed.
  std::vector<index_t> order(static_cast<std::size_t>(r));
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&](index_t x, index_t y) {
    return norm2[static_cast<std::size_t>(x)] > norm2[static_cast<std::size_t>(y)];
  });
  SvdResult out;
  out.s.resize(static_cast<std::size_t>(r));
  Matrix f(r, c);
  Matrix qs(r, r);
  std::vector<bool> valid(static_cast<std::size_t>(r), true);
  for (index_t k = 0; k < r; ++k) {
    const index_t src = order[static_cast<std::size_t>(k)];
    const real_t s = std::sqrt(norm2[static_cast<std::size_t>(src)]);
    out.s[static_cast<std::size_t>(k)] = std::ldexp(s, e);
    if (norm2[static_cast<std::size_t>(src)] > negligible) {
      for (index_t i = 0; i < c; ++i) f(k, i) = w(src, i) / s;
    } else {
      valid[static_cast<std::size_t>(k)] = false;
    }
    std::copy(q.row(src), q.row(src) + r, qs.row(k));
  }
  complete_null_rows(f, valid);
  if (tall) {
    out.u = f.transposed();
    out.vt = std::move(qs);
  } else {
    out.u = qs.transposed();
    out.vt = std::move(f);
  }
  return out;
}

}  // namespace detail

double svd_flops(index_t m, index_t n) {
  const double lo = static_cast<double>(std::min(m, n));
  const double hi = static_cast<double>(std::max(m, n));
  return 14.0 * hi * lo * lo;
}

index_t svd_rank(const std::vector<real_t>& s, real_t cutoff, index_t max_keep) {
  index_t keep = 0;
  for (real_t v : s) {
    if (v <= cutoff) break;
    ++keep;
  }
  // Floor before clamping: the "never empty the bond" rule must not override
  // an explicit max_keep == 0 truncation request.
  if (keep == 0 && !s.empty()) keep = 1;
  keep = std::min(keep, max_keep);
  return keep;
}

}  // namespace tt::linalg
