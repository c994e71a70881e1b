// Dense factorizations backing the QP/SQP solvers.
//
// * LuFactorization       — PLU with partial pivoting; general square
//                           systems (SQP KKT systems are symmetric but
//                           indefinite, so LU-with-pivoting is the robust
//                           workhorse at these sizes).
// * CholeskyFactorization — SPD systems (regularized QP Hessians).
//
// Both report singularity through `ok()` instead of throwing: the solvers
// treat a singular KKT matrix as a recoverable condition (they regularize
// and retry).
//
// Both support refactorization into preallocated workspace: default-construct
// once, then call `factorize()` per iteration — the internal storage is
// reused whenever the dimension allows, so steady-state refactorization
// performs no heap allocation. `solve_into` writes the solution into a
// caller-provided buffer for the same reason.
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"

namespace evc::num {

class LuFactorization {
 public:
  /// Empty factorization; call factorize() before solve().
  LuFactorization() = default;
  /// Factor A = P·L·U. `A` must be square.
  explicit LuFactorization(const Matrix& a) { factorize(a); }

  /// (Re)factor A = P·L·U into this object's workspace, reusing storage.
  /// Returns ok().
  bool factorize(const Matrix& a);

  /// False if a pivot collapsed below tolerance (singular to working
  /// precision); `solve` must not be called in that case.
  bool ok() const { return ok_; }
  std::size_t dim() const { return n_; }

  Vector solve(const Vector& b) const;
  /// Solve A·x = b into `x` (resized; must not alias `b` — the row
  /// permutation reads b out of order).
  void solve_into(const Vector& b, Vector& x) const;
  double determinant() const;

  /// Bytes of factorization storage currently held.
  std::size_t workspace_bytes() const {
    return lu_.capacity() * sizeof(double) +
           perm_.capacity() * sizeof(std::size_t);
  }

 private:
  std::size_t n_ = 0;
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
  bool ok_ = false;
};

class CholeskyFactorization {
 public:
  /// Empty factorization; call factorize() before solve().
  CholeskyFactorization() = default;
  /// Factor A = L·Lᵀ. `A` must be square and symmetric; `ok()` is false if
  /// A is not (numerically) positive definite.
  explicit CholeskyFactorization(const Matrix& a) { factorize(a); }

  /// (Re)factor A = L·Lᵀ into this object's workspace, reusing storage.
  /// Returns ok().
  bool factorize(const Matrix& a);

  bool ok() const { return ok_; }
  std::size_t dim() const { return n_; }
  Vector solve(const Vector& b) const;
  /// Solve A·x = b into `x` (resized; aliasing `b` is allowed — the
  /// triangular sweeps overwrite sequentially).
  void solve_into(const Vector& b, Vector& x) const;

  std::size_t workspace_bytes() const {
    return l_.capacity() * sizeof(double);
  }

 private:
  std::size_t n_ = 0;
  Matrix l_;
  bool ok_ = false;
};

/// Convenience: solve A·x = b by PLU. Throws std::runtime_error if A is
/// singular to working precision (callers that can recover should construct
/// LuFactorization directly and test ok()).
Vector solve_linear(const Matrix& a, const Vector& b);

}  // namespace evc::num
