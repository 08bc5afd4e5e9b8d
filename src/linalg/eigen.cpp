#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/backend.hpp"

namespace tt::linalg {

namespace {

// QL iterations allowed per eigenvalue before giving up (EISPACK uses 30;
// implicit-shift QL needs about two on average).
constexpr int kMaxQlIterations = 60;

// Householder reduction of the symmetric matrix `a` to tridiagonal form
// T = Qᵀ·A·Q (EISPACK tred2, bottom row first). Both triangles are kept
// up to date so every inner loop runs along a contiguous row. On return d is
// T's diagonal, e[i] couples i and i+1 (e[n-1] = 0), and the result holds Qᵀ:
// its rows are the basis the QL stage rotates into eigenvectors.
Matrix tridiagonalize(Matrix& a, std::vector<real_t>& d, std::vector<real_t>& e) {
  const index_t n = a.rows();
  d.assign(static_cast<std::size_t>(n), 0.0);
  e.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<real_t> h(static_cast<std::size_t>(n), 0.0);  // 0: no reflector
  std::vector<real_t> p(static_cast<std::size_t>(n));
  for (index_t i = n - 1; i >= 1; --i) {
    // Reflector P_i = I − u·uᵀ/h on 0..i−1 maps row i's part left of the
    // diagonal onto its sub-diagonal entry; u overwrites that part of row i.
    real_t* u = a.row(i);
    const index_t l = i - 1;
    real_t scale = 0.0;
    for (index_t k = 0; k < i; ++k) scale += std::abs(u[k]);
    if (i == 1 || scale == 0.0) {
      e[static_cast<std::size_t>(l)] = u[l];
      continue;
    }
    real_t hh = 0.0;
    for (index_t k = 0; k < i; ++k) {
      u[k] /= scale;
      hh += u[k] * u[k];
    }
    const real_t f = u[l];
    const real_t g = f >= 0.0 ? -std::sqrt(hh) : std::sqrt(hh);
    e[static_cast<std::size_t>(l)] = scale * g;
    hh -= f * g;
    u[l] = f - g;
    // p = A·u/h, then q = p − (uᵀp / 2h)·u, kept in p.
    real_t up = 0.0;
    for (index_t j = 0; j < i; ++j) {
      p[static_cast<std::size_t>(j)] = dot(a.row(j), u, i) / hh;
      up += u[j] * p[static_cast<std::size_t>(j)];
    }
    const real_t kk = up / (hh + hh);
    for (index_t j = 0; j < i; ++j) p[static_cast<std::size_t>(j)] -= kk * u[j];
    // A := A − u·qᵀ − q·uᵀ on the leading i×i block.
    for (index_t j = 0; j < i; ++j) {
      real_t* aj = a.row(j);
      const real_t uj = u[j], qj = p[static_cast<std::size_t>(j)];
      for (index_t k = 0; k < i; ++k)
        aj[k] -= uj * p[static_cast<std::size_t>(k)] + qj * u[k];
    }
    h[static_cast<std::size_t>(i)] = hh;
  }
  for (index_t i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = a(i, i);

  // Qᵀ = P_2·P_3 ⋯ P_{n−1}, accumulated by right-multiplication so each
  // update is a row dot product and a row axpy.
  Matrix qt = Matrix::identity(n);
  for (index_t i = 2; i < n; ++i) {
    const real_t hh = h[static_cast<std::size_t>(i)];
    if (hh == 0.0) continue;
    const real_t* u = a.row(i);
    for (index_t r = 0; r < i; ++r) {
      real_t* q = qt.row(r);
      const real_t w = dot(q, u, i) / hh;
      for (index_t k = 0; k < i; ++k) q[k] -= w * u[k];
    }
  }
  return qt;
}

// Implicit-shift QL (EISPACK tql2) on the symmetric tridiagonal matrix
// (d, e), e[i] coupling i and i+1 (last entry ignored). Overwrites d with the
// unsorted eigenvalues and applies every rotation to the row pairs of zt, so
// starting from Qᵀ of A = Q·T·Qᵀ leaves A's eigenvectors in its rows.
// Throws tt::Error if an eigenvalue needs more than kMaxQlIterations.
void tridiagonal_ql(std::vector<real_t>& d, std::vector<real_t>& e, Matrix& zt) {
  const index_t n = static_cast<index_t>(d.size());
  real_t tnorm = 0.0;
  for (index_t i = 0; i < n; ++i)
    tnorm = std::max(tnorm, std::abs(d[static_cast<std::size_t>(i)]) +
                                std::abs(e[static_cast<std::size_t>(i)]));
  // Deflate an off-diagonal entry once it is below rounding of ‖T‖.
  const real_t tol = std::numeric_limits<real_t>::epsilon() * tnorm;
  const index_t len = zt.cols();
  auto ed = [&](index_t i) -> real_t& { return e[static_cast<std::size_t>(i)]; };
  auto dd = [&](index_t i) -> real_t& { return d[static_cast<std::size_t>(i)]; };
  for (index_t l = 0; l < n; ++l) {
    for (int iter = 0;; ++iter) {
      index_t m = l;
      while (m + 1 < n && std::abs(ed(m)) > tol) ++m;
      if (m == l) break;
      TT_CHECK(iter < kMaxQlIterations,
               "tridiagonal QL did not converge for eigenvalue " << l);
      // Wilkinson-style shift from the leading 2×2, chased up from row m.
      real_t g = (dd(l + 1) - dd(l)) / (2.0 * ed(l));
      real_t r = std::hypot(g, real_t{1.0});
      g = dd(m) - dd(l) + ed(l) / (g + std::copysign(r, g));
      real_t s = 1.0, c = 1.0, p = 0.0;
      bool split = false;
      for (index_t i = m - 1; i >= l; --i) {
        const real_t f = s * ed(i);
        const real_t b = c * ed(i);
        r = std::hypot(f, g);
        ed(i + 1) = r;
        if (r == 0.0) {
          // The rotation underflowed: T splits here; restart the search.
          dd(i + 1) -= p;
          ed(m) = 0.0;
          split = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = dd(i + 1) - p;
        r = (dd(i) - g) * s + 2.0 * c * b;
        p = s * r;
        dd(i + 1) = g + p;
        g = c * r - b;
        real_t* zi = zt.row(i);
        real_t* zj = zt.row(i + 1);
        for (index_t k = 0; k < len; ++k) {
          const real_t x = zi[k], y = zj[k];
          zj[k] = s * x + c * y;
          zi[k] = c * x - s * y;
        }
      }
      if (split) continue;
      dd(l) -= p;
      ed(l) = g;
      ed(m) = 0.0;
    }
  }
}

// EigRows → EigResult: eigenvalues ascending, eigenvectors as columns.
EigResult sorted_columns(detail::EigRows f) {
  const index_t n = f.rows.rows();
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&](index_t x, index_t y) {
    return f.values[static_cast<std::size_t>(x)] < f.values[static_cast<std::size_t>(y)];
  });
  EigResult out;
  out.values.resize(static_cast<std::size_t>(n));
  out.vectors = Matrix(n, n);
  for (index_t c = 0; c < n; ++c) {
    const index_t src = order[static_cast<std::size_t>(c)];
    out.values[static_cast<std::size_t>(c)] = f.values[static_cast<std::size_t>(src)];
    for (index_t i = 0; i < n; ++i) out.vectors(i, c) = f.rows(src, i);
  }
  return out;
}

}  // namespace

EigResult eigh(const Matrix& a, real_t symmetry_tol) {
  const index_t n = a.rows();
  TT_CHECK(a.rows() == a.cols(), "eigh requires a square matrix, got "
                                     << a.rows() << "x" << a.cols());
  const real_t scale = std::max(a.max_abs(), real_t{1.0});
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j)
      TT_CHECK(std::abs(a(i, j) - a(j, i)) <= symmetry_tol * scale,
               "eigh input not symmetric at (" << i << "," << j << ")");
  return backend().eigh(a);
}

namespace detail {

EigRows builtin_eigh_rows(Matrix a) {
  EigRows out;
  std::vector<real_t> e;
  out.rows = tridiagonalize(a, out.values, e);
  tridiagonal_ql(out.values, e, out.rows);
  return out;
}

EigResult builtin_eigh(const Matrix& a) { return sorted_columns(builtin_eigh_rows(a)); }

}  // namespace detail

EigResult eigh_tridiagonal(const std::vector<real_t>& diag,
                           const std::vector<real_t>& offdiag) {
  TT_CHECK(offdiag.size() + 1 == diag.size() || (diag.empty() && offdiag.empty()),
           "eigh_tridiagonal needs n-1 off-diagonal entries for n = "
               << diag.size() << ", got " << offdiag.size());
  detail::EigRows f;
  f.values = diag;
  std::vector<real_t> e = offdiag;
  e.push_back(0.0);
  f.rows = Matrix::identity(static_cast<index_t>(diag.size()));
  tridiagonal_ql(f.values, e, f.rows);
  return sorted_columns(std::move(f));
}

}  // namespace tt::linalg
