// Primal active-set method for dense strictly convex QPs.
//
// An independent second solver for the same problem class as solve_qp()'s
// interior-point method. Two uses:
//  * cross-validation — the randomized test suite solves the same QPs with
//    both methods and requires matching optima, which catches solver bugs
//    that KKT-residual checks alone can miss;
//  * ablation — classical MPC deployments often prefer active-set because
//    of its excellent warm-starting behaviour; bench_ablation_solver can
//    compare both under the MPC workload.
//
// Works on dense copies of the QP's CSR matrices. Requires H ≻ 0 (add
// regularization for semidefinite problems) and a feasible starting point;
// `find_feasible_point` provides one via a slack-minimizing phase-1.
#pragma once

#include <optional>

#include "optim/qp.hpp"

namespace evc::opt {

struct ActiveSetOptions {
  std::size_t max_iterations = 200;
  double tolerance = 1e-9;
};

/// Solve with the primal active-set method starting from `x0`, which must
/// satisfy E x0 = e and A x0 ≤ b (within tolerance). Status is kSolved on
/// convergence, kMaxIterations otherwise, kNumericalIssue on singular KKT
/// systems or an infeasible start.
QpResult solve_qp_active_set(const QpProblem& problem, const num::Vector& x0,
                             const ActiveSetOptions& options = {});

/// Phase-1: find a point satisfying E x = e, A x ≤ b, or nullopt if none
/// was found (uses the interior-point solver on a slack formulation).
std::optional<num::Vector> find_feasible_point(const QpProblem& problem);

}  // namespace evc::opt
