#pragma once
// Matrix decompositions and solvers: Householder QR, Cholesky (with rank-1
// append used by the incremental OMP solver), triangular solves and least
// squares.

#include "linalg/matrix.hpp"

namespace efficsense::linalg {

/// Thin QR via Householder reflections: A (m x n, m >= n) = Q (m x n) * R (n x n).
struct QrResult {
  Matrix q;
  Matrix r;
};
QrResult qr_decompose(const Matrix& a);

/// Cholesky factor L (lower triangular) of a symmetric positive-definite A.
/// Throws Error if A is not positive definite.
Matrix cholesky(const Matrix& a);

/// Solve L y = b (forward substitution), L lower triangular.
Vector solve_lower(const Matrix& l, const Vector& b);
/// Solve U x = y (back substitution), U upper triangular.
Vector solve_upper(const Matrix& u, const Vector& y);

/// Solve A x = b for square A via QR (no pivoting; A must be well-conditioned).
Vector solve(const Matrix& a, const Vector& b);

/// Least squares: argmin_x ||A x - b||_2 for m >= n via QR.
Vector lstsq(const Matrix& a, const Vector& b);

/// Incrementally maintained Cholesky factor of G = A_S^T A_S as columns are
/// appended to the active set S, together with the forward-substituted
/// right-hand side z = L^-1 b. Backbone of the OMP solver: each append costs
/// O(k^2) and extends z by one entry (entry i of a forward solve reads only
/// rows <= i, so the kept prefix never changes); each solve is then a single
/// O(k^2) back substitution. Neither call allocates.
class CholeskyAppend {
 public:
  explicit CholeskyAppend(std::size_t max_size);

  std::size_t size() const { return size_; }

  /// Append a column whose Gram entries against the existing active set are
  /// `cross` (size k), whose self inner product is `diag` and whose
  /// right-hand-side entry (its inner product with the target) is `rhs`.
  /// Returns false (and leaves the factor unchanged) if the update would
  /// make the matrix numerically singular.
  bool append(const Vector& cross, double diag, double rhs);

  /// Solve (A_S^T A_S) x = b for the appended right-hand sides b. `x` is
  /// resized to size(); reusing one vector across calls avoids allocation.
  void solve(Vector& x) const;

 private:
  std::size_t max_size_;
  std::size_t size_ = 0;
  Matrix l_;  // lower-triangular factor, only the leading size_ block is valid
  Vector z_;  // L z = b, only the leading size_ entries are valid
};

}  // namespace efficsense::linalg
