#include "optim/sqp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "util/expect.hpp"

namespace evc::opt {

std::string to_string(SqpStatus status) {
  switch (status) {
    case SqpStatus::kConverged:
      return "converged";
    case SqpStatus::kMaxIterations:
      return "max-iterations";
    case SqpStatus::kTimeout:
      return "timeout";
    case SqpStatus::kQpFailure:
      return "qp-failure";
  }
  return "unknown";
}

SolveStatus solve_status(SqpStatus status) {
  switch (status) {
    case SqpStatus::kConverged:
      return SolveStatus::kConverged;
    case SqpStatus::kMaxIterations:
      return SolveStatus::kMaxIterations;
    case SqpStatus::kTimeout:
      return SolveStatus::kTimeout;
    case SqpStatus::kQpFailure:
      return SolveStatus::kNumericalFailure;
  }
  return SolveStatus::kNumericalFailure;
}

namespace {

// Everything the ℓ1 merit function φ(x) = f(x) + ν·viol(x) needs at a
// point, evaluated once and cached: when a line-search candidate is
// accepted, its evaluation *is* the next iteration's φ0 — the penalty ν may
// change between iterations, so the components are stored instead of φ
// itself. The equality values double as the QP subproblem's −e_vec.
struct MeritEval {
  double f = 0.0;
  num::Vector c;  ///< equality constraint values
  double eq_l1 = 0.0;
  double eq_inf = 0.0;
  double ineq_l1 = 0.0;
  double ineq_inf = 0.0;

  double viol_l1() const { return eq_l1 + ineq_l1; }
  double viol_inf() const { return std::max(eq_inf, ineq_inf); }
  double phi(double nu) const { return f + nu * viol_l1(); }
};

MeritEval evaluate_merit(const NlpProblem& problem,
                         const num::CsrMatrix& a_mat,
                         const num::Vector& b_vec, const num::Vector& x,
                         num::Vector& ax_scratch) {
  MeritEval m;
  m.f = problem.cost(x);
  m.c = problem.eq_constraints(x);
  m.eq_l1 = m.c.norm1();
  m.eq_inf = m.c.norm_inf();
  if (!b_vec.empty()) {
    a_mat.multiply(x, ax_scratch);
    for (std::size_t i = 0; i < b_vec.size(); ++i) {
      const double v = ax_scratch[i] - b_vec[i];
      if (v > 0.0) {
        m.ineq_l1 += v;
        m.ineq_inf = std::max(m.ineq_inf, v);
      }
    }
  }
  return m;
}

}  // namespace

bool LeastNormRestoration::solve(const num::CsrMatrix& j,
                                 const num::Vector& c, num::Vector& p) {
  // Relative bound on ‖J·p + c‖∞ after refinement. A consistent system
  // refines to roundoff; c outside the range of a rank-deficient J leaves
  // a residual of the order of ‖c‖.
  constexpr double kResidualTol = 1e-6;
  const std::size_t me = j.rows(), n = j.cols();
  col_ptr_.resize(n + me + 1);
  row_.clear();
  val_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    col_ptr_[i] = i;
    row_.push_back(i);
    val_.push_back(1.0);
  }
  // J's stored zeros stay out of the pattern.
  const std::size_t* j_ptr = j.row_ptr();
  const std::size_t* j_col = j.col_idx();
  const double* j_val = j.values();
  for (std::size_t r = 0; r < me; ++r) {
    col_ptr_[n + r] = row_.size();
    for (std::size_t k = j_ptr[r]; k < j_ptr[r + 1]; ++k)
      if (j_val[k] != 0.0) {
        row_.push_back(j_col[k]);
        val_.push_back(j_val[k]);
      }
    row_.push_back(n + r);
    val_.push_back(0.0);
  }
  col_ptr_[n + me] = row_.size();
  ldl_.analyze(n + me, n, col_ptr_, row_);
  double* vals = ldl_.values();
  for (std::size_t t = 0; t < val_.size(); ++t) vals[ldl_.slot(t)] = val_[t];
  if (!ldl_.factorize()) return false;

  rhs_.assign(n + me, 0.0);
  for (std::size_t r = 0; r < me; ++r) rhs_[n + r] = -c[r];
  sol_.resize(n + me);
  ldl_.solve(rhs_.ptr(), sol_.ptr());
  p.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = sol_[i];
    if (!std::isfinite(p[i])) return false;
  }
  double residual = 0.0;
  for (std::size_t r = 0; r < me; ++r) {
    double acc = c[r];
    for (std::size_t t = col_ptr_[n + r]; t + 1 < col_ptr_[n + r + 1]; ++t)
      acc += val_[t] * p[row_[t]];
    residual = std::max(residual, std::abs(acc));
  }
  return residual <= kResidualTol * c.norm_inf();
}

SqpResult SqpSolver::solve(const NlpProblem& problem, const num::Vector& x0,
                           const SqpWarmStart* warm) const {
  const std::size_t n = problem.num_vars();
  EVC_EXPECT(x0.size() == n, "SQP initial point dimension mismatch");
  const num::CsrMatrix& a_mat = problem.ineq_matrix();
  const num::Vector& b_vec = problem.ineq_vector();

  EVC_TRACE_SPAN_VAR(sqp_span, "sqp.solve");
  SqpResult result;
  result.x = x0;
  double nu = options_.initial_penalty;

  // The inequality system is fixed across iterations: copy it into the
  // reused QP subproblem once per solve.
  qp_.a_mat = a_mat;

  // Dual seed for the first QP subproblem (receding-horizon warm start).
  bool have_qp_warm = false;
  if (options_.warm_start_duals && warm != nullptr &&
      warm->y_eq.size() == problem.num_eq() &&
      warm->z_ineq.size() == b_vec.size()) {
    num::copy_into(warm->y_eq, qp_warm_.y_eq);
    num::copy_into(warm->z_ineq, qp_warm_.z_ineq);
    have_qp_warm = true;
  }

  MeritEval cur = evaluate_merit(problem, a_mat, b_vec, result.x, ax_);
  bool have_duals = false;

  const rt::Deadline deadline =
      rt::Deadline::from_budget_s(options_.time_budget_s);

  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    // Deadline watchdog: give up between iterations (the iterate is always
    // coherent there) and report kTimeout so the caller can degrade instead
    // of silently trusting a half-optimized plan.
    QpOptions qp_opts = options_.qp;
    if (deadline.active()) {
      const double left = deadline.remaining_s();
      if (iter > 0 && left <= 0.0) {
        result.status = SqpStatus::kTimeout;
        break;
      }
      // Cap the subproblem's own deadline at what is left of ours.
      const double cap = std::max(left, 1e-4);
      qp_opts.time_budget_s = qp_opts.time_budget_s > 0.0
                                  ? std::min(qp_opts.time_budget_s, cap)
                                  : cap;
    }
    result.iterations = iter + 1;
    const num::Vector grad = problem.cost_gradient(result.x);

    // QP subproblem in the step d:
    //   min ½dᵀHd + ∇fᵀd   s.t.  J·d = −c,  A·d ≤ b − A·x.
    qp_.h = problem.cost_hessian();
    qp_.h.add_to_diagonal(options_.hessian_regularization);
    qp_.g = grad;
    problem.eq_jacobian(result.x, qp_.e_mat);
    qp_.e_vec.resize(cur.c.size());
    for (std::size_t i = 0; i < cur.c.size(); ++i) qp_.e_vec[i] = -cur.c[i];
    if (b_vec.empty()) {
      qp_.b_vec.assign(0, 0.0);
    } else {
      a_mat.multiply(result.x, qp_.b_vec);
      for (std::size_t i = 0; i < b_vec.size(); ++i)
        qp_.b_vec[i] = b_vec[i] - qp_.b_vec[i];
    }

    // The QP decision variable is the *step*, so the primal seed is zero;
    // the multipliers of the previous subproblem (or receding-horizon
    // predecessor) seed the interior-point duals.
    const QpWarmStart* qp_seed = nullptr;
    if (options_.warm_start_duals && have_qp_warm) {
      qp_warm_.x.assign(n, 0.0);
      qp_seed = &qp_warm_;
    }

    // A usable result must also be finite — a diverged iterate poisons the
    // line search otherwise.
    const auto finite_result = [n](const QpResult& r) {
      if (!r.usable()) return false;
      for (std::size_t i = 0; i < n; ++i)
        if (!std::isfinite(r.x[i])) return false;
      return true;
    };

    QpResult qp_result;
    double extra_reg = options_.hessian_regularization;
    for (int attempt = 0; attempt < 5; ++attempt) {
      qp_result = solve_qp(qp_, qp_opts, qp_ws_, qp_seed);
      if (finite_result(qp_result)) break;
      qp_result.status = QpStatus::kNumericalIssue;
      // Singular or diverging KKT: convexify harder and retry (cold — the
      // warm seed did not help this subproblem).
      qp_seed = nullptr;
      extra_reg = std::max(extra_reg * 100.0, 1e-6);
      qp_.h.add_to_diagonal(extra_reg);
    }
    if (!qp_result.usable()) {
      result.status = SqpStatus::kQpFailure;
      break;
    }
    result.qp_iterations_total += qp_result.iterations;
    const num::Vector& d = qp_result.x;

    // Carry the multipliers into the next subproblem's warm start and the
    // final result.
    num::copy_into(qp_result.y_eq, qp_warm_.y_eq);
    num::copy_into(qp_result.z_ineq, qp_warm_.z_ineq);
    have_qp_warm = true;
    have_duals = true;

    if (d.norm_inf() <= options_.step_tolerance &&
        cur.eq_inf <= options_.constraint_tolerance &&
        cur.ineq_inf <= options_.constraint_tolerance) {
      result.status = SqpStatus::kConverged;
      break;
    }

    // Keep the ℓ1 penalty above the multipliers so the merit function is
    // exact (descent along the QP step is guaranteed).
    double mult_inf = 0.0;
    if (!qp_result.y_eq.empty())
      mult_inf = std::max(mult_inf, qp_result.y_eq.norm_inf());
    if (!qp_result.z_ineq.empty())
      mult_inf = std::max(mult_inf, qp_result.z_ineq.norm_inf());
    nu = std::max(nu, 2.0 * mult_inf + 1.0);

    const double phi0 = cur.phi(nu);
    const double viol0 = cur.viol_l1();
    // Directional derivative of the merit along d (upper bound).
    const double descent = grad.dot(d) - nu * viol0;

    double t = 1.0;
    bool stepped = false;
    MeritEval cand;
    {
      EVC_TRACE_SPAN("sqp.line_search");
      for (std::size_t ls = 0; ls < options_.max_line_search_steps; ++ls) {
        num::copy_into(result.x, candidate_);
        candidate_.add_scaled(t, d);
        cand = evaluate_merit(problem, a_mat, b_vec, candidate_, ax_);
        bool accepted =
            cand.phi(nu) <= phi0 + 1e-4 * t * std::min(descent, 0.0);
        // Maratos guard (see docs/SEED_FAILURES.md): on a curved constraint
        // manifold the full step carries a second-order feasibility error,
        // c(x+d) = O(‖d‖²). The ℓ1 merit then either rejects an excellent
        // step outright (the classic Maratos stall) or accepts a sequence
        // of steps that zigzag across the manifold without ever shrinking
        // the violation. Both show up as the unit step failing to reduce
        // infeasibility — so whenever that happens, restore feasibility
        // with the least-norm correction p = −Jᵀ·(J·Jᵀ)⁻¹·c(x+d) and
        // offer x + d + p to the same acceptance test. cand.c already
        // holds c(x+d).
        if (ls == 0 && options_.second_order_correction && !cand.c.empty() &&
            (!accepted ||
             cand.eq_l1 > std::max(0.5 * cur.eq_l1,
                                   options_.constraint_tolerance)) &&
            restoration_.solve(qp_.e_mat, cand.c, soc_p_)) {
          num::copy_into(candidate_, soc_candidate_);
          soc_candidate_.add_scaled(1.0, soc_p_);
          MeritEval cand_soc =
              evaluate_merit(problem, a_mat, b_vec, soc_candidate_, ax_);
          if (cand_soc.phi(nu) <= phi0 + 1e-4 * std::min(descent, 0.0) &&
              (!accepted || cand_soc.phi(nu) < cand.phi(nu))) {
            num::copy_into(soc_candidate_, candidate_);
            cand = std::move(cand_soc);
            accepted = true;
            ++result.soc_steps;
          }
        }
        if (accepted) {
          stepped = true;
          break;
        }
        t *= 0.5;
      }
    }
    if (!stepped) {
      // The merit cannot be decreased along this direction. A starved QP
      // subproblem (timeout after its first iterations) produces junk
      // directions, so a failed line search says nothing then — surface the
      // timeout instead of masking it as stagnation. Otherwise accept
      // convergence at a feasible iterate or report max-iterations.
      if (qp_result.status == QpStatus::kTimeout)
        result.status = SqpStatus::kTimeout;
      else
        result.status = (cur.eq_inf <= options_.constraint_tolerance &&
                         cur.ineq_inf <= options_.constraint_tolerance)
                            ? SqpStatus::kConverged
                            : SqpStatus::kMaxIterations;
      break;
    }
    // Merit stagnation at a feasible iterate: converged for all practical
    // purposes — don't burn the remaining iterations. When the *pre-step*
    // iterate is itself feasible, converge there and discard the step: it
    // bought no merit, and keeping the iterate bit-identical makes a
    // steady-state replan a true fixed point — the next solve linearizes at
    // the same point instead of chasing a microscopic creep.
    const double phi_new = cand.phi(nu);
    if (phi0 - phi_new <= 1e-7 * (1.0 + std::abs(phi_new)) &&
        cand.eq_inf <= options_.constraint_tolerance &&
        cand.ineq_inf <= options_.constraint_tolerance) {
      if (!(cur.eq_inf <= options_.constraint_tolerance &&
            cur.ineq_inf <= options_.constraint_tolerance)) {
        result.x = candidate_;
        cur = std::move(cand);
      }
      result.status = SqpStatus::kConverged;
      break;
    }
    result.x = candidate_;
    // The accepted candidate's evaluation becomes the next iteration's φ0 —
    // no re-evaluation of cost/constraints at the same point.
    cur = std::move(cand);
    result.status = SqpStatus::kMaxIterations;  // until proven converged
  }

  sqp_span.arg("iterations", static_cast<double>(result.iterations));
  result.cost = cur.f;
  result.constraint_violation = cur.viol_inf();
  if (have_duals) {
    result.y_eq = qp_warm_.y_eq;
    result.z_ineq = qp_warm_.z_ineq;
  }
  return result;
}

}  // namespace evc::opt
