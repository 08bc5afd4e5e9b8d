#include "ed/lanczos.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace tt::ed {

namespace {

real_t vdot(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  real_t s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void vaxpy(std::vector<real_t>& y, real_t alpha, const std::vector<real_t>& x) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

real_t vnorm(const std::vector<real_t>& a) { return std::sqrt(vdot(a, a)); }

}  // namespace

LanczosResult lanczos_ground_state(index_t dim, const MatVec& matvec, int max_iter,
                                   real_t tol, std::uint64_t seed) {
  TT_CHECK(dim > 0, "Lanczos needs a positive dimension");
  LanczosResult out;
  if (dim == 1) {
    std::vector<real_t> x{1.0}, y{0.0};
    matvec(x, y);
    out.eigenvalue = y[0];
    out.eigenvector = {1.0};
    out.converged = true;
    out.iterations = 1;
    return out;
  }

  Rng rng(seed);
  const int iters = static_cast<int>(std::min<index_t>(max_iter, dim));
  std::vector<std::vector<real_t>> v;  // Lanczos basis (full storage)
  std::vector<real_t> alpha, beta;
  v.reserve(static_cast<std::size_t>(iters) + 1);
  alpha.reserve(static_cast<std::size_t>(iters));
  beta.reserve(static_cast<std::size_t>(iters));

  std::vector<real_t> q(static_cast<std::size_t>(dim));
  for (auto& e : q) e = rng.normal();
  {
    const real_t n = vnorm(q);
    for (auto& e : q) e /= n;
  }
  v.push_back(q);

  std::vector<real_t> w(static_cast<std::size_t>(dim));
  real_t prev_eval = 0.0;

  for (int it = 0; it < iters; ++it) {
    matvec(v.back(), w);
    const real_t a = vdot(w, v.back());
    alpha.push_back(a);

    // w := w − a·v_it − b·v_{it-1}, then full reorthogonalization (twice).
    vaxpy(w, -a, v.back());
    if (!beta.empty()) vaxpy(w, -beta.back(), v[v.size() - 2]);
    for (int pass = 0; pass < 2; ++pass)
      for (const auto& basis_vec : v) vaxpy(w, -vdot(w, basis_vec), basis_vec);

    // Rayleigh–Ritz on the tridiagonal matrix T = tridiag(beta, alpha, beta).
    const int k = static_cast<int>(alpha.size());
    auto eig = linalg::eigh_tridiagonal(alpha, beta);
    const real_t eval = eig.values.front();
    out.iterations = it + 1;

    const real_t bnext = vnorm(w);
    const bool stagnated = it > 0 && std::abs(eval - prev_eval) < tol * (1.0 + std::abs(eval));
    if (stagnated || bnext < 1e-14 || it == iters - 1) {
      // Assemble the Ritz vector.
      out.eigenvalue = eval;
      out.eigenvector.assign(static_cast<std::size_t>(dim), 0.0);
      for (int i = 0; i < k; ++i)
        vaxpy(out.eigenvector, eig.vectors(i, 0), v[static_cast<std::size_t>(i)]);
      const real_t n = vnorm(out.eigenvector);
      if (n > 0) for (auto& e : out.eigenvector) e /= n;
      out.converged = stagnated || bnext < 1e-14;
      return out;
    }
    prev_eval = eval;

    beta.push_back(bnext);
    for (auto& e : w) e /= bnext;
    v.push_back(w);
  }
  TT_FAIL("Lanczos failed to converge");
}

}  // namespace tt::ed
