// In-place BLAS-style kernels for the solver hot path.
//
// The Matrix/Vector operators allocate a fresh result on every call, which
// is fine for setup code but poisons the per-iteration loops of the QP/SQP
// solvers. These kernels write into caller-provided buffers instead, so a
// solver that owns a workspace performs zero heap allocations at steady
// state. Output buffers are resized to the correct dimension (an allocation
// only the first time; afterwards the capacity is reused).
//
// Execution: when SIMD dispatch is enabled (numerics/simd.hpp — the
// default), the inner loops run through the runtime-selected vector target
// using the blocked accumulation order, which is bit-identical across every
// target. EVC_SIMD=off preserves the legacy sequential loops bit-for-bit.
//
// Aliasing: output buffers must not alias any input (the loops read inputs
// while writing outputs). This is asserted where cheap.
#pragma once

#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"

namespace evc::num {

/// y := α·A·x + β·y. `y` is resized to a.rows() when β == 0; otherwise it
/// must already have that size. `y` must not alias `x`.
void gemv(double alpha, const Matrix& a, const Vector& x, double beta,
          Vector& y);

/// y := α·Aᵀ·x + β·y (without forming the transpose). `y` is resized to
/// a.cols() when β == 0; otherwise it must already have that size. `y` must
/// not alias `x`.
void gemv_t(double alpha, const Matrix& a, const Vector& x, double beta,
            Vector& y);

/// C := α·A·B + β·C. `c` is resized to a.rows()×b.cols() when β == 0;
/// otherwise it must already have those dimensions. `c` must not alias
/// `a` or `b`.
void gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
          Matrix& c);

/// y := α·x + y (same as Vector::add_scaled, in kernel spelling).
void axpy(double alpha, const Vector& x, Vector& y);

/// Σ x_i·y_i through the dispatched kernel (blocked order when SIMD is on;
/// Vector::dot's sequential order when off).
double dot(const Vector& x, const Vector& y);

/// dst := src, reusing dst's backing store when its capacity suffices.
void copy_into(const Vector& src, Vector& dst);

}  // namespace evc::num
