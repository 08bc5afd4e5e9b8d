// Singular value decomposition (dispatched through linalg::Backend).
//
// Stands in for the ScaLAPACK pdgesvd the paper calls through Cyclops: every
// block-wise SVD in the DMRG truncation step lands here. svd() routes to the
// active backend: the builtin Gram-preconditioned Jacobi SVD below, or LAPACK
// dgesdd (falling back to dgesvd on non-convergence) under TT_WITH_BLAS.
//
// The builtin SVD is the density-matrix route classic DMRG codes truncate
// with, made exact by a polish. It scales A by a power of two to unit
// max-abs, forms the smaller Gram matrix with the packed GEMM, diagonalizes
// it (eigen.hpp: Householder + implicit QL), rotates A into that eigenbasis
// with one more GEMM, and finishes with one-sided Jacobi on the rows, which
// are already orthogonal to about ε‖A‖² and so converge in a few sweeps.
// Accuracy is absolute, ~ε‖A‖ per singular value (as for LAPACK), not the
// high relative accuracy of plain one-sided Jacobi on tiny singular values.
// That suffices here: truncation cuts at σ ≤ 1e-12 (or a relative cutoff)
// on a normalized θ, four orders of magnitude above ε‖θ‖, and the factors
// stay orthonormal to rounding whatever the spectrum.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace tt::linalg {

/// Thin SVD: A (m×n) = U (m×r) · diag(s) · Vᵀ (r×n), r = min(m,n),
/// singular values sorted descending, U/V orthonormal columns (including the
/// null-space completion for rank-deficient inputs).
struct SvdResult {
  Matrix u;
  std::vector<real_t> s;
  Matrix vt;

  /// Reconstruct U · diag(s) · Vᵀ (test/diagnostic helper).
  Matrix reconstruct() const;
};

SvdResult svd(const Matrix& a);

/// Flop estimate for the SVD of an m×n matrix (LAPACK-style 14·m·n² model).
double svd_flops(index_t m, index_t n);

/// Kept count under truncation: r' = min(max_keep, max(1, #{s > cutoff}))
/// when s is non-empty, else 0. The keep-at-least-one floor (DMRG must keep a
/// nonzero bond) applies before the cap, so an explicit max_keep == 0 request
/// wins and returns 0.
index_t svd_rank(const std::vector<real_t>& s, real_t cutoff, index_t max_keep);

namespace detail {

/// The self-contained Gram-preconditioned Jacobi SVD behind the "builtin"
/// backend.
/// Requires a non-empty input; call svd() unless comparing backends directly.
SvdResult builtin_svd(const Matrix& a);

}  // namespace detail

}  // namespace tt::linalg
