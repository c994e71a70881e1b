#include "numerics/kernels.hpp"

#include "numerics/simd.hpp"
#include "util/expect.hpp"

namespace evc::num {

void gemv(double alpha, const Matrix& a, const Vector& x, double beta,
          Vector& y) {
  EVC_EXPECT(a.cols() == x.size(), "gemv dimension mismatch");
  EVC_EXPECT(&y != &x, "gemv output aliases input");
  if (beta == 0.0) {
    y.assign(a.rows(), 0.0);
  } else {
    EVC_EXPECT(y.size() == a.rows(), "gemv output dimension mismatch");
    if (beta != 1.0) y *= beta;
  }
  if (alpha == 0.0) return;
  const std::size_t rows = a.rows(), cols = a.cols();
  if (simd::dispatch_enabled()) {
    simd::active().gemv(alpha, a.ptr(), cols, rows, cols, x.ptr(), y.ptr());
    return;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) acc += a(i, j) * x[j];
    y[i] += alpha * acc;
  }
}

void gemv_t(double alpha, const Matrix& a, const Vector& x, double beta,
            Vector& y) {
  EVC_EXPECT(a.rows() == x.size(), "gemv_t dimension mismatch");
  EVC_EXPECT(&y != &x, "gemv_t output aliases input");
  if (beta == 0.0) {
    y.assign(a.cols(), 0.0);
  } else {
    EVC_EXPECT(y.size() == a.cols(), "gemv_t output dimension mismatch");
    if (beta != 1.0) y *= beta;
  }
  if (alpha == 0.0) return;
  const std::size_t rows = a.rows(), cols = a.cols();
  if (simd::dispatch_enabled()) {
    simd::active().gemv_t(alpha, a.ptr(), cols, rows, cols, x.ptr(), y.ptr());
    return;
  }
  // Row-major: run along rows of A so the inner loop is contiguous.
  for (std::size_t i = 0; i < rows; ++i) {
    const double xi = alpha * x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < cols; ++j) y[j] += a(i, j) * xi;
  }
}

void gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
          Matrix& c) {
  EVC_EXPECT(a.cols() == b.rows(), "gemm dimension mismatch");
  EVC_EXPECT(&c != &a && &c != &b, "gemm output aliases input");
  if (beta == 0.0) {
    c.resize(a.rows(), b.cols());
  } else {
    EVC_EXPECT(c.rows() == a.rows() && c.cols() == b.cols(),
               "gemm output dimension mismatch");
    if (beta != 1.0) c *= beta;
  }
  if (alpha == 0.0) return;
  const std::size_t rows = a.rows(), inner = a.cols(), cols = b.cols();
  if (simd::dispatch_enabled()) {
    simd::active().gemm(alpha, a.ptr(), inner, b.ptr(), cols, c.ptr(), cols,
                        rows, inner, cols);
    return;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < inner; ++k) {
      const double aik = alpha * a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < cols; ++j) c(i, j) += aik * b(k, j);
    }
  }
}

void axpy(double alpha, const Vector& x, Vector& y) {
  if (simd::dispatch_enabled()) {
    EVC_EXPECT(x.size() == y.size(), "axpy dimension mismatch");
    simd::active().axpy(alpha, x.ptr(), y.ptr(), y.size());
    return;
  }
  y.add_scaled(alpha, x);
}

double dot(const Vector& x, const Vector& y) {
  EVC_EXPECT(x.size() == y.size(), "dot dimension mismatch");
  if (simd::dispatch_enabled())
    return simd::active().dot(x.ptr(), y.ptr(), x.size());
  return x.dot(y);
}

double dot_span(const double* x, const double* y, std::size_t n) {
  if (simd::dispatch_enabled()) {
    if (const simd::FixedKernelTable* fixed = simd::fixed_table(n))
      return fixed->dot(x, y);
    return simd::active().dot(x, y, n);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void axpy_span(double a, const double* x, double* y, std::size_t n) {
  if (simd::dispatch_enabled()) {
    if (const simd::FixedKernelTable* fixed = simd::fixed_table(n)) {
      fixed->axpy(a, x, y);
      return;
    }
    simd::active().axpy(a, x, y, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void gemv_span(double alpha, const double* a, std::size_t lda,
               std::size_t rows, std::size_t cols, const double* x,
               double* y) {
  if (simd::dispatch_enabled()) {
    if (const simd::FixedKernelTable* fixed = simd::fixed_table(cols)) {
      fixed->gemv(alpha, a, lda, rows, x, y);
      return;
    }
    simd::active().gemv(alpha, a, lda, rows, cols, x, y);
    return;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    const double* ai = a + i * lda;
    for (std::size_t j = 0; j < cols; ++j) acc += ai[j] * x[j];
    y[i] += alpha * acc;
  }
}

void gemv_t_span(double alpha, const double* a, std::size_t lda,
                 std::size_t rows, std::size_t cols, const double* x,
                 double* y) {
  if (simd::dispatch_enabled()) {
    if (const simd::FixedKernelTable* fixed = simd::fixed_table(cols)) {
      fixed->gemv_t(alpha, a, lda, rows, x, y);
      return;
    }
    simd::active().gemv_t(alpha, a, lda, rows, cols, x, y);
    return;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const double xi = alpha * x[i];
    if (xi == 0.0) continue;
    const double* ai = a + i * lda;
    for (std::size_t j = 0; j < cols; ++j) y[j] += ai[j] * xi;
  }
}

void copy_into(const Vector& src, Vector& dst) {
  dst.data().assign(src.data().begin(), src.data().end());
}

}  // namespace evc::num
