// Sequential Quadratic Programming for the MPC's bilinear program.
//
// Per iteration: linearize the equalities around the iterate, solve the
// convex QP subproblem (the NLP's constant cost Hessian + regularization),
// then globalize with a backtracking line search on the ℓ1 merit function
//     φ(x) = f(x) + ν·‖c(x)‖₁ + ν·‖(A x − b)₊‖₁.
// The paper prescribes exactly this solver family for the HVAC MPC
// (Kelman & Borrelli, IFAC'11 — bilinear HVAC MPC via SQP).
//
// Hot-path behaviour: the solver owns a persistent QpWorkspace and a reused
// QP subproblem, so consecutive iterations (and consecutive solves on a
// receding horizon) share storage. H, the Jacobian and A stay sparse (CSR)
// from the NLP to the QP: the Jacobian is refilled in place, and the cost,
// the merit's A·x and the subproblem's b − A·x are sparse products. QP
// duals are carried from one subproblem to the next as interior-point warm
// starts, and the merit value of an accepted line-search candidate is
// cached so the next iteration does not re-evaluate cost/constraints at
// the same point.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "numerics/sparse_ldl.hpp"
#include "optim/nlp.hpp"
#include "optim/qp.hpp"

namespace evc::opt {

enum class SqpStatus {
  kConverged,       ///< step and constraint violation below tolerance
  kMaxIterations,   ///< best iterate returned
  kTimeout,         ///< wall-clock budget exhausted; best iterate returned
  kQpFailure,       ///< QP subproblem unsolvable even with elastic relaxation
};

/// Coarse classification for control-layer callers (see solve_status.hpp).
SolveStatus solve_status(SqpStatus status);

struct SqpOptions {
  std::size_t max_iterations = 30;
  double step_tolerance = 1e-6;        ///< ‖d‖∞ for convergence
  double constraint_tolerance = 1e-6;  ///< ‖c(x)‖∞ for convergence
  /// Wall-clock budget for one solve (s); 0 disables the deadline. Checked
  /// before every SQP iteration, and the remaining budget caps each QP
  /// subproblem's own deadline, so a stalled subproblem cannot blow through
  /// the control step. On expiry the best iterate so far is returned with
  /// status kTimeout.
  double time_budget_s = 0.0;
  double initial_penalty = 10.0;       ///< ν for the ℓ1 merit
  double hessian_regularization = 1e-8;
  std::size_t max_line_search_steps = 25;
  /// Seed each QP subproblem's interior-point iteration with the previous
  /// subproblem's multipliers (and an externally provided SqpWarmStart for
  /// the first one). Off reproduces fully cold QP solves.
  bool warm_start_duals = true;
  /// Second-order correction against the Maratos effect: when the full QP
  /// step is rejected by the merit test — or accepted without shrinking the
  /// equality violation, the zigzag variant of the same pathology — compute
  /// the least-norm feasibility restoration p (J·p = −c(x+d), see
  /// LeastNormRestoration) and offer x + d + p to the same acceptance test
  /// before backtracking.
  /// Near a curved constraint manifold the full step trades a large cost
  /// improvement for a quadratic feasibility loss; the correction removes
  /// that loss so the unit step — and with it fast local convergence —
  /// survives.
  bool second_order_correction = true;
  QpOptions qp;
};

struct SqpResult {
  SqpStatus status = SqpStatus::kQpFailure;
  num::Vector x;
  /// Final QP multipliers (equality / inequality): the dual state to carry
  /// into the next receding-horizon solve as an SqpWarmStart. Empty when no
  /// QP subproblem succeeded.
  num::Vector y_eq;
  num::Vector z_ineq;
  double cost = 0.0;
  double constraint_violation = 0.0;  ///< ‖c(x)‖∞ at the final iterate
  std::size_t iterations = 0;
  std::size_t qp_iterations_total = 0;
  /// Line searches rescued by a second-order correction step.
  std::size_t soc_steps = 0;

  bool usable() const { return status != SqpStatus::kQpFailure; }
};

/// Dual seed for the first QP subproblem of a solve — typically the final
/// multipliers of the previous receding-horizon step. Mismatched sizes are
/// ignored (cold start).
struct SqpWarmStart {
  num::Vector y_eq;
  num::Vector z_ineq;
  bool empty() const { return y_eq.empty() && z_ineq.empty(); }
};

/// Least-norm feasibility restoration for the second-order correction:
/// p = argmin ‖p‖ subject to J·p = −c, i.e. p = −Jᵀ·(J·Jᵀ)⁻¹·c, from one
/// sparse LDLᵀ of the quasi-definite system [I Jᵀ; J −δI][p; λ] = [0; −c]
/// (numerics/sparse_ldl). J·Jᵀ is never formed. The symbolic analysis is
/// cached and reused while J keeps its pattern; all buffers are reused
/// across corrections.
class LeastNormRestoration {
 public:
  /// Returns false — the caller then falls back to plain backtracking —
  /// when the refined step does not meet J·p = −c (rank-deficient J with c
  /// outside its range) or is non-finite.
  bool solve(const num::CsrMatrix& j, const num::Vector& c, num::Vector& p);

 private:
  num::SparseLdl ldl_;
  std::vector<std::size_t> col_ptr_, row_;
  std::vector<double> val_;  ///< δ = 0 values, in pattern order
  num::Vector rhs_, sol_;
};

class SqpSolver {
 public:
  explicit SqpSolver(SqpOptions options = {}) : options_(options) {}

  /// Solve `problem` starting from `x0` (size num_vars()). `x0` need not be
  /// feasible. `warm` optionally seeds the first QP subproblem's duals.
  ///
  /// Logically const but reuses an internal workspace: concurrent solve()
  /// calls on the *same* SqpSolver instance are not allowed (one solver per
  /// thread/controller).
  SqpResult solve(const NlpProblem& problem, const num::Vector& x0,
                  const SqpWarmStart* warm = nullptr) const;

  /// Perf counters aggregated over every QP subproblem solved through this
  /// solver's workspace.
  const QpPerfCounters& qp_counters() const { return qp_ws_.counters(); }
  void reset_qp_counters() const { qp_ws_.reset_counters(); }
  /// Checkpoint-restore path: reinstate aggregate counters saved from a
  /// previous solver instance.
  void restore_qp_counters(const QpPerfCounters& counters) const {
    qp_ws_.restore_counters(counters);
  }
  /// Bytes held by the persistent QP workspace.
  std::size_t workspace_bytes() const { return qp_ws_.bytes(); }

 private:
  SqpOptions options_;
  // Persistent hot-path storage (see class comment): reused across
  // iterations and across solves.
  mutable QpWorkspace qp_ws_;
  mutable QpProblem qp_;
  mutable QpWarmStart qp_warm_;
  mutable num::Vector candidate_;
  mutable num::Vector ax_;
  // Second-order-correction scratch: the restoration solver and the
  // correction step p.
  mutable LeastNormRestoration restoration_;
  mutable num::Vector soc_p_;
  mutable num::Vector soc_candidate_;
};

std::string to_string(SqpStatus status);

}  // namespace evc::opt
