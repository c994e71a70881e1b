#include "optim/active_set.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "numerics/factorization.hpp"
#include "util/expect.hpp"

namespace evc::opt {

namespace {

/// Dense copies of a QP's matrices: this oracle works on dense KKT blocks.
struct DenseMatrices {
  num::Matrix h;  ///< symmetrized
  num::Matrix e;
  num::Matrix a;
};

/// Solve the equality-constrained subproblem
///   min ½(x+d)ᵀH(x+d) + gᵀ(x+d)   s.t.  E(x+d) = e,  a_iᵀ(x+d) = b_i, i∈W
/// for the step d and multipliers (equalities first, then working rows).
/// Returns false when the KKT system is singular (degenerate working set).
bool solve_working_set(const DenseMatrices& p, const num::Vector& g,
                       const num::Vector& x,
                       const std::vector<std::size_t>& working,
                       num::Vector& d, num::Vector& y_eq,
                       num::Vector& z_working) {
  const std::size_t n = g.size();
  const std::size_t me = p.e.rows();
  const std::size_t mw = working.size();
  num::Matrix kkt(n + me + mw, n + me + mw);
  kkt.set_block(0, 0, p.h);
  if (me > 0) {
    kkt.set_block(n, 0, p.e);
    kkt.set_block(0, n, p.e.transposed());
  }
  for (std::size_t r = 0; r < mw; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      kkt(n + me + r, c) = p.a(working[r], c);
      kkt(c, n + me + r) = p.a(working[r], c);
    }
  }
  num::Vector rhs(n + me + mw);
  const num::Vector grad = p.h * x + g;
  for (std::size_t i = 0; i < n; ++i) rhs[i] = -grad[i];
  // x is feasible w.r.t. E and the working rows, so the constraint rhs in
  // step space is zero.
  num::LuFactorization lu(kkt);
  if (!lu.ok()) return false;
  const num::Vector sol = lu.solve(rhs);
  d = sol.segment(0, n);
  y_eq = sol.segment(n, me);
  z_working = sol.segment(n + me, mw);
  return true;
}

}  // namespace

QpResult solve_qp_active_set(const QpProblem& problem, const num::Vector& x0,
                             const ActiveSetOptions& options) {
  problem.validate();
  const std::size_t n = problem.num_vars();
  EVC_EXPECT(x0.size() == n, "active set: start dimension mismatch");
  const std::size_t mi = problem.num_ineq();

  DenseMatrices p{problem.h.to_dense(), problem.e_mat.to_dense(),
                  problem.a_mat.to_dense()};
  p.h.symmetrize();

  QpResult result;
  result.x = x0;
  result.y_eq = num::Vector(problem.num_eq());
  result.z_ineq = num::Vector(mi);

  // Verify the start is feasible.
  const double feas_tol = 1e-7;
  if (problem.num_eq() > 0 &&
      (p.e * x0 - problem.e_vec).norm_inf() > 1e-6) {
    result.status = QpStatus::kNumericalIssue;
    return result;
  }
  num::Vector ax = mi > 0 ? p.a * x0 : num::Vector(0);
  for (std::size_t i = 0; i < mi; ++i) {
    if (ax[i] - problem.b_vec[i] > 1e-6) {
      result.status = QpStatus::kNumericalIssue;
      return result;
    }
  }

  // Start with the (nearly) active rows in the working set.
  std::vector<std::size_t> working;
  for (std::size_t i = 0; i < mi; ++i)
    if (std::abs(ax[i] - problem.b_vec[i]) <= feas_tol) working.push_back(i);

  num::Vector x = x0;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    num::Vector d, y_eq, z_working;
    if (!solve_working_set(p, problem.g, x, working, d, y_eq, z_working)) {
      // Degenerate working set (linearly dependent rows): drop the newest
      // row and retry next iteration.
      if (working.empty()) {
        result.status = QpStatus::kNumericalIssue;
        break;
      }
      working.pop_back();
      continue;
    }

    if (d.norm_inf() <= options.tolerance) {
      // Stationary on the working set: check multiplier signs.
      double most_negative = -options.tolerance;
      std::size_t drop = working.size();
      for (std::size_t r = 0; r < working.size(); ++r) {
        if (z_working[r] < most_negative) {
          most_negative = z_working[r];
          drop = r;
        }
      }
      if (drop == working.size()) {
        result.status = QpStatus::kSolved;
        result.x = x;
        result.y_eq = y_eq;
        result.z_ineq = num::Vector(mi);
        for (std::size_t r = 0; r < working.size(); ++r)
          result.z_ineq[working[r]] = std::max(z_working[r], 0.0);
        result.objective = 0.5 * x.dot(p.h * x) + problem.g.dot(x);
        return result;
      }
      working.erase(working.begin() + static_cast<std::ptrdiff_t>(drop));
      continue;
    }

    // Ratio test against the non-working rows.
    double alpha = 1.0;
    std::size_t blocking = mi;
    for (std::size_t i = 0; i < mi; ++i) {
      if (std::find(working.begin(), working.end(), i) != working.end())
        continue;
      const double adi = p.a.row(i).dot(d);
      if (adi > options.tolerance) {
        const double axi = p.a.row(i).dot(x);
        const double step = (problem.b_vec[i] - axi) / adi;
        if (step < alpha) {
          alpha = std::max(step, 0.0);
          blocking = i;
        }
      }
    }
    x.add_scaled(alpha, d);
    if (blocking < mi) working.push_back(blocking);
  }

  if (result.status != QpStatus::kSolved &&
      result.status != QpStatus::kNumericalIssue)
    result.status = QpStatus::kMaxIterations;
  result.x = x;
  result.objective = 0.5 * x.dot(p.h * x) + problem.g.dot(x);
  return result;
}

std::optional<num::Vector> find_feasible_point(const QpProblem& problem) {
  // Phase-1 by proxy: minimize ½‖x‖² subject to the constraints with the
  // interior-point solver, which needs no feasible start.
  QpProblem phase1 = problem;
  phase1.h =
      num::CsrMatrix::from_dense(num::Matrix::identity(problem.num_vars()));
  phase1.g = num::Vector(problem.num_vars());
  const QpResult r = solve_qp(phase1);
  if (r.status != QpStatus::kSolved) return std::nullopt;
  if (problem.num_ineq() > 0) {
    const num::Vector ax = problem.a_mat.multiply(r.x);
    for (std::size_t i = 0; i < problem.num_ineq(); ++i)
      if (ax[i] - problem.b_vec[i] > 1e-7) return std::nullopt;
  }
  if (problem.num_eq() > 0 &&
      (problem.e_mat.multiply(r.x) - problem.e_vec).norm_inf() > 1e-6)
    return std::nullopt;
  return r.x;
}

}  // namespace evc::opt
