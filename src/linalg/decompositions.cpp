#include "linalg/decompositions.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace efficsense::linalg {

QrResult qr_decompose(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  EFF_REQUIRE(m >= n && n > 0, "qr_decompose requires m >= n > 0");

  Matrix r = a;                      // will be reduced in place
  Matrix qt = Matrix::identity(m);   // accumulates Q^T (full, trimmed later)
  Vector v(m);

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    const double alpha = (r(k, k) >= 0.0) ? -norm : norm;
    double vnorm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      v[i] = r(i, k) - (i == k ? alpha : 0.0);
      vnorm2 += v[i] * v[i];
    }
    if (vnorm2 == 0.0) continue;

    // Apply H = I - 2 v v^T / (v^T v) to R and accumulate into Q^T.
    for (std::size_t j = k; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i] * r(i, j);
      s = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= s * v[i];
    }
    for (std::size_t j = 0; j < m; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i] * qt(i, j);
      s = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) qt(i, j) -= s * v[i];
    }
  }

  QrResult out;
  out.q = Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) out.q(i, j) = qt(j, i);
  }
  out.r = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) out.r(i, j) = r(i, j);
  }
  return out;
}

Matrix cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  EFF_REQUIRE(n == a.cols(), "cholesky requires a square matrix");
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        EFF_REQUIRE(sum > 0.0, "matrix is not positive definite");
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

Vector solve_lower(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  EFF_REQUIRE(n == l.cols() && n == b.size(), "solve_lower shape mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    EFF_REQUIRE(l(i, i) != 0.0, "singular lower-triangular matrix");
    y[i] = sum / l(i, i);
  }
  return y;
}

Vector solve_upper(const Matrix& u, const Vector& y) {
  const std::size_t n = u.rows();
  EFF_REQUIRE(n == u.cols() && n == y.size(), "solve_upper shape mismatch");
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= u(ii, k) * x[k];
    EFF_REQUIRE(u(ii, ii) != 0.0, "singular upper-triangular matrix");
    x[ii] = sum / u(ii, ii);
  }
  return x;
}

Vector solve(const Matrix& a, const Vector& b) {
  EFF_REQUIRE(a.rows() == a.cols(), "solve requires a square matrix");
  return lstsq(a, b);
}

Vector lstsq(const Matrix& a, const Vector& b) {
  EFF_REQUIRE(a.rows() == b.size(), "lstsq shape mismatch");
  const QrResult qr = qr_decompose(a);
  const Vector qtb = matvec_transposed(qr.q, b);
  return solve_upper(qr.r, qtb);
}

CholeskyAppend::CholeskyAppend(std::size_t max_size)
    : max_size_(max_size), l_(max_size, max_size), z_(max_size) {
  EFF_REQUIRE(max_size > 0, "CholeskyAppend requires max_size > 0");
}

bool CholeskyAppend::append(const Vector& cross, double diag, double rhs) {
  EFF_REQUIRE(size_ < max_size_, "CholeskyAppend capacity exceeded");
  EFF_REQUIRE(cross.size() == size_, "cross-term vector has wrong size");
  // New row w of L solves L w = cross; new diagonal is sqrt(diag - |w|^2).
  // w is built in place in row size_, which is outside the valid block
  // until the append succeeds.
  double* w = l_.row_ptr(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const double* li = l_.row_ptr(i);
    double sum = cross[i];
    for (std::size_t k = 0; k < i; ++k) sum -= li[k] * w[k];
    w[i] = sum / li[i];
  }
  double d = diag;
  for (std::size_t i = 0; i < size_; ++i) d -= w[i] * w[i];
  if (d <= 1e-14 * std::max(1.0, diag)) return false;  // numerically singular
  w[size_] = std::sqrt(d);
  // One more forward-substitution step: z[size_] reads only row size_.
  double sum = rhs;
  for (std::size_t k = 0; k < size_; ++k) sum -= w[k] * z_[k];
  z_[size_] = sum / w[size_];
  ++size_;
  return true;
}

void CholeskyAppend::solve(Vector& x) const {
  // Back substitution L^T x = z on the leading size_ x size_ block.
  x.resize(size_);
  for (std::size_t ii = size_; ii-- > 0;) {
    double sum = z_[ii];
    for (std::size_t k = ii + 1; k < size_; ++k) sum -= l_(k, ii) * x[k];
    x[ii] = sum / l_(ii, ii);
  }
}

}  // namespace efficsense::linalg
