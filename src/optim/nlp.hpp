// Nonlinear program interface consumed by the SQP solver.
//
//   minimize    f(x)            (smooth, with a constant Hessian — the MPC
//                                cost is quadratic)
//   subject to  c(x) = 0        (smooth nonlinear equalities; the MPC
//                                dynamics are bilinear)
//               A x ≤ b         (linear inequalities: actuator bounds,
//                                comfort zone, power limits C1–C10)
//
// The Hessian, the Jacobian and A are handed over as sparse CSR matrices
// (numerics/csr_matrix). H and A are built once per problem; the Jacobian
// is refilled in place at each linearization point.
#pragma once

#include <cstddef>

#include "numerics/csr_matrix.hpp"
#include "numerics/vector.hpp"

namespace evc::opt {

struct CondensingPlan;

class NlpProblem {
 public:
  virtual ~NlpProblem() = default;

  virtual std::size_t num_vars() const = 0;
  virtual std::size_t num_eq() const = 0;

  virtual double cost(const num::Vector& x) const = 0;
  virtual num::Vector cost_gradient(const num::Vector& x) const = 0;
  /// Constant Hessian of the cost. Must be symmetric with every diagonal
  /// entry stored (the solver adds regularization to each of them), so
  /// positive semidefinite is sufficient.
  virtual const num::CsrMatrix& cost_hessian() const = 0;

  /// Equality constraint values c(x) (size num_eq()).
  virtual num::Vector eq_constraints(const num::Vector& x) const = 0;
  /// Jacobian ∂c/∂x (num_eq() × num_vars()), written into `j` in place,
  /// reusing its storage. Entries that vanish at this x may stay stored as
  /// zeros — the solver drops them — so an implementation can keep one
  /// pattern for every x.
  virtual void eq_jacobian(const num::Vector& x, num::CsrMatrix& j) const = 0;

  /// Fixed linear inequalities A x ≤ b. May have zero rows.
  virtual const num::CsrMatrix& ineq_matrix() const = 0;
  virtual const num::Vector& ineq_vector() const = 0;

  /// Elimination order for the condensed QP backend (optim/condensed_qp),
  /// or nullptr when the problem does not offer one (the solver then stays
  /// on the sparse path regardless of the requested backend). The plan must
  /// be finalized and valid for every linearization this problem produces.
  virtual const CondensingPlan* condensing_plan() const { return nullptr; }
};

}  // namespace evc::opt
