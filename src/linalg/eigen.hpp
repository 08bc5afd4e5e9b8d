// Symmetric eigensolver (dispatched through linalg::Backend).
//
// Used for the Rayleigh–Ritz step of the Davidson routine (paper Alg. 1 line
// 7 diagonalizes the small projected matrix M), for Lanczos's tridiagonal
// Ritz problem, inside the builtin SVD, and as a dense oracle in tests.
// eigh() validates symmetry, then routes to the active backend: the builtin
// Householder tridiagonalization plus implicit-shift QL below (EISPACK
// tred2/tql2), or LAPACK dsyevd under TT_WITH_BLAS.
//
// Accuracy is absolute, ~ε‖A‖ per eigenvalue (LAPACK's contract too), not
// the high relative accuracy a Jacobi eigensolver gives tiny eigenvalues. Its
// callers only need the former: Davidson and Lanczos want the lowest Ritz
// pair of a well-scaled projected matrix, and the SVD runs a Jacobi polish
// over the eigenbasis it gets from here.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace tt::linalg {

/// Full eigendecomposition of a symmetric matrix: A = V · diag(w) · Vᵀ with
/// eigenvalues ascending and eigenvectors in the columns of `vectors`.
struct EigResult {
  std::vector<real_t> values;
  Matrix vectors;
};

/// Throws tt::Error if `a` is not square or not symmetric to tolerance.
EigResult eigh(const Matrix& a, real_t symmetry_tol = 1e-10);

/// eigh() of the symmetric tridiagonal matrix with diagonal `diag` and
/// off-diagonal `offdiag` (one entry shorter). Runs the builtin QL stage
/// directly: no reduction, no backend dispatch.
EigResult eigh_tridiagonal(const std::vector<real_t>& diag,
                           const std::vector<real_t>& offdiag);

namespace detail {

/// Unsorted eigenpairs with the eigenvectors stored as rows:
/// A = rowsᵀ · diag(values) · rows. Row storage keeps every Givens rotation
/// of the QL stage (and of the SVD's Jacobi polish) on contiguous memory.
struct EigRows {
  std::vector<real_t> values;
  Matrix rows;
};

/// Householder tridiagonalization + implicit-shift QL of a symmetric matrix
/// (the lower and upper triangles must agree). The solver behind builtin_eigh
/// and builtin_svd.
EigRows builtin_eigh_rows(Matrix a);

/// The builtin eigensolver behind the "builtin" backend. Assumes a validated
/// square symmetric input; call eigh() unless comparing backends directly.
EigResult builtin_eigh(const Matrix& a);

}  // namespace detail

}  // namespace tt::linalg
