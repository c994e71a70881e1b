#include "optim/qp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "numerics/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "util/expect.hpp"

namespace evc::opt {

void QpProblem::validate() const {
  const std::size_t n = num_vars();
  EVC_EXPECT(n > 0, "QP with zero variables");
  EVC_EXPECT(h.rows() == n && h.cols() == n, "QP Hessian dimension mismatch");
  if (num_eq() > 0)
    EVC_EXPECT(e_mat.rows() == num_eq() && e_mat.cols() == n,
               "QP equality matrix dimension mismatch");
  else
    EVC_EXPECT(e_mat.rows() == 0, "QP equality matrix/vector mismatch");
  if (num_ineq() > 0)
    EVC_EXPECT(a_mat.rows() == num_ineq() && a_mat.cols() == n,
               "QP inequality matrix dimension mismatch");
  else
    EVC_EXPECT(a_mat.rows() == 0, "QP inequality matrix/vector mismatch");
}

std::string to_string(QpStatus status) {
  switch (status) {
    case QpStatus::kSolved:
      return "solved";
    case QpStatus::kMaxIterations:
      return "max-iterations";
    case QpStatus::kTimeout:
      return "timeout";
    case QpStatus::kNumericalIssue:
      return "numerical-issue";
  }
  return "unknown";
}

SolveStatus solve_status(QpStatus status) {
  switch (status) {
    case QpStatus::kSolved:
      return SolveStatus::kConverged;
    case QpStatus::kMaxIterations:
      return SolveStatus::kMaxIterations;
    case QpStatus::kTimeout:
      return SolveStatus::kTimeout;
    case QpStatus::kNumericalIssue:
      return SolveStatus::kNumericalFailure;
  }
  return SolveStatus::kNumericalFailure;
}

QpPerfCounters& QpPerfCounters::operator+=(const QpPerfCounters& rhs) {
  solves += rhs.solves;
  ipm_iterations += rhs.ipm_iterations;
  factorizations += rhs.factorizations;
  schur_solves += rhs.schur_solves;
  schur_regularizations += rhs.schur_regularizations;
  dense_fallbacks += rhs.dense_fallbacks;
  timeouts += rhs.timeouts;
  warm_starts += rhs.warm_starts;
  workspace_growths += rhs.workspace_growths;
  peak_workspace_bytes = std::max(peak_workspace_bytes,
                                  rhs.peak_workspace_bytes);
  condensed_solves += rhs.condensed_solves;
  condense_rebuilds += rhs.condense_rebuilds;
  active_set_changes += rhs.active_set_changes;
  solve_time_ns += rhs.solve_time_ns;
  factorize_time_ns += rhs.factorize_time_ns;
  timeout_time_ns += rhs.timeout_time_ns;
  return *this;
}

std::size_t QpWorkspace::bytes() const {
  const std::size_t vec_elems =
      x_.capacity() + y_.capacity() + z_.capacity() + s_.capacity() +
      best_x_.capacity() + best_y_.capacity() + best_z_.capacity() +
      r_dual_.capacity() + r_eq_.capacity() + r_ineq_.capacity() +
      tmp_mi_.capacity() + rhs1_.capacity() + rhs_.capacity() +
      sol_.capacity() + hx_.capacity() + dx_aff_.capacity() +
      dy_aff_.capacity() + ds_aff_.capacity() + dz_aff_.capacity() +
      dx_.capacity() + dy_.capacity() + ds_.capacity() + dz_.capacity() +
      rc_.capacity();
  const std::size_t double_elems = vec_elems + h_val_.capacity() +
                                   kkt_base_.capacity() + kkt_.capacity();
  const std::size_t index_elems =
      h_col_ptr_.capacity() + h_row_.capacity() + kkt_col_ptr_.capacity() +
      kkt_row_.capacity() + kkt_mark_.capacity();
  return double_elems * sizeof(double) + index_elems * sizeof(std::size_t) +
         ht_.bytes() + e_.bytes() + a_.bytes() + at_.bytes() +
         k_slot_.capacity() * sizeof(std::uint32_t) +
         ldl_.workspace_bytes() + lu_.workspace_bytes();
}

namespace {

// Registry ids of the KKT analysis cache: lookups per solve, analyses that
// actually ran (a miss), and the fill of the latest analysis.
struct KktMetrics {
  obs::MetricsRegistry::Id lookups;
  obs::MetricsRegistry::Id analyses;
  obs::MetricsRegistry::Id factor_nnz;
};

const KktMetrics& kkt_metrics() {
  static const KktMetrics ids{
      obs::MetricsRegistry::global().counter("qp.kkt_lookups"),
      obs::MetricsRegistry::global().counter("qp.kkt_analyses"),
      obs::MetricsRegistry::global().gauge("qp.kkt_factor_nnz")};
  return ids;
}

}  // namespace

void QpWorkspace::load_problem(const QpProblem& problem,
                               double regularization) {
  const std::size_t n = problem.num_vars();
  const std::size_t me = problem.num_eq();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Upper triangle of the symmetrized H, by columns. Above the diagonal,
  // column j pairs H(j, i) (row j of H) with H(i, j) (row j of Hᵀ), i < j;
  // both rows ascend, so one merge visits each i once.
  problem.h.transpose_into(ht_);
  const std::size_t* hp = problem.h.row_ptr();
  const std::size_t* hc = problem.h.col_idx();
  const double* hv = problem.h.values();
  const std::size_t* tp = ht_.row_ptr();
  const std::size_t* tc = ht_.col_idx();
  const double* tv = ht_.values();
  h_col_ptr_.resize(n + 1);
  h_row_.clear();
  h_val_.clear();
  for (std::size_t j = 0; j < n; ++j) {
    h_col_ptr_[j] = h_row_.size();
    std::size_t p = hp[j], q = tp[j];
    for (;;) {
      const std::size_t ip = p < hp[j + 1] ? hc[p] : n;
      const std::size_t iq = q < tp[j + 1] ? tc[q] : n;
      const std::size_t i = std::min(ip, iq);
      if (i >= j) break;
      const double lower = ip == i ? hv[p++] : 0.0;
      const double upper = iq == i ? tv[q++] : 0.0;
      const double v = 0.5 * (upper + lower);
      if (v != 0.0) {
        h_row_.push_back(i);
        h_val_.push_back(v);
      }
    }
    if (p < hp[j + 1] && hc[p] == j && hv[p] != 0.0) {
      h_row_.push_back(j);
      h_val_.push_back(hv[p]);
    }
  }
  h_col_ptr_[n] = h_row_.size();

  // E and A without their stored zeros (the MPC Jacobian keeps one pattern
  // at every linearization, so some of its entries vanish), and Aᵀ: the
  // AᵀDA pairs that land in column j of K come from the rows of A that
  // have a nonzero in column j.
  e_.assign_nonzeros(problem.e_mat);
  a_.assign_nonzeros(problem.a_mat);
  if (problem.num_ineq() == 0) a_.reset(n);  // validate() allows 0×k
  a_.transpose_into(at_);
  const std::size_t* a_ptr = a_.row_ptr();
  const std::size_t* a_col = a_.col_idx();
  const std::size_t* e_ptr = e_.row_ptr();
  const std::size_t* e_col = e_.col_idx();
  const double* e_val = e_.values();

  // KKT pattern, column by column: K's column j is the union of H's column,
  // the AᵀA pairs (ci ≤ j, j) of every row of A through column j, and the
  // diagonal; the column of equality row r holds that row's nonzeros plus
  // the (−δ) diagonal.
  kkt_col_ptr_.resize(n + me + 1);
  kkt_row_.clear();
  kkt_mark_.assign(n, kNone);
  std::size_t* const mark = kkt_mark_.data();
  const auto add_entry = [&](std::size_t i, std::size_t j) {
    if (mark[i] != j) {
      mark[i] = j;
      kkt_row_.push_back(i);
    }
  };
  for (std::size_t j = 0; j < n; ++j) {
    kkt_col_ptr_[j] = kkt_row_.size();
    for (std::size_t p = h_col_ptr_[j]; p < h_col_ptr_[j + 1]; ++p)
      add_entry(h_row_[p], j);
    for (std::size_t q = at_.row_ptr()[j]; q < at_.row_ptr()[j + 1]; ++q) {
      // Row at_.col_idx()[q] of A holds column j; its columns are
      // ascending, so the pairs ending in j are its entries up to and
      // including j.
      const std::size_t* col = a_col + a_ptr[at_.col_idx()[q]];
      do {
        add_entry(*col, j);
      } while (*col++ != j);
    }
    add_entry(j, j);
  }
  for (std::size_t r = 0; r < me; ++r) {
    kkt_col_ptr_[n + r] = kkt_row_.size();
    for (std::size_t k = e_ptr[r]; k < e_ptr[r + 1]; ++k)
      kkt_row_.push_back(e_col[k]);
    kkt_row_.push_back(n + r);
  }
  kkt_col_ptr_[n + me] = kkt_row_.size();

  const KktMetrics& metrics = kkt_metrics();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.add(metrics.lookups);
  if (ldl_.analyze(n + me, n, kkt_col_ptr_, kkt_row_)) {
    registry.add(metrics.analyses);
    registry.set(metrics.factor_nnz, static_cast<double>(ldl_.factor_nnz()));
  }

  // Slot map of K, then the iteration-invariant values (H + reg·I and E)
  // laid out in the factor's order.
  k_slot_.resize(n * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t t = kkt_col_ptr_[j]; t < kkt_col_ptr_[j + 1]; ++t)
      k_slot_[kkt_row_[t] * n + j] = static_cast<std::uint32_t>(ldl_.slot(t));
  kkt_base_.assign(kkt_row_.size(), 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = h_col_ptr_[j]; p < h_col_ptr_[j + 1]; ++p)
      kkt_base_[k_slot_[h_row_[p] * n + j]] = h_val_[p];
    kkt_base_[k_slot_[j * n + j]] += regularization;
  }
  for (std::size_t r = 0; r < me; ++r)
    for (std::size_t k = e_ptr[r]; k < e_ptr[r + 1]; ++k)
      kkt_base_[ldl_.slot(kkt_col_ptr_[n + r] + (k - e_ptr[r]))] = e_val[k];
}

void QpWorkspace::assemble_kkt(const num::Vector& z, const num::Vector& s) {
  const std::size_t n = h_col_ptr_.size() - 1;
  double* vals = ldl_.values();
  std::copy(kkt_base_.begin(), kkt_base_.end(), vals);
  const std::size_t* a_ptr = a_.row_ptr();
  const std::size_t* a_col = a_.col_idx();
  const double* a_val = a_.values();
  for (std::size_t r = 0; r < z.size(); ++r) {
    // Clamp the barrier scaling: an almost-converged active constraint
    // would otherwise overflow the KKT system and poison the
    // factorization.
    const double d = std::clamp(z[r] / s[r], 1e-10, 1e10);
    for (std::size_t ki = a_ptr[r]; ki < a_ptr[r + 1]; ++ki) {
      const double dai = d * a_val[ki];
      const std::uint32_t* slots = k_slot_.data() + a_col[ki] * n;
      for (std::size_t kj = ki; kj < a_ptr[r + 1]; ++kj)
        vals[slots[a_col[kj]]] += dai * a_val[kj];
    }
  }
}

void QpWorkspace::dense_kkt_from_values() {
  const std::size_t dim = kkt_col_ptr_.size() - 1;
  kkt_.resize(dim, dim);
  const double* vals = ldl_.values();
  for (std::size_t j = 0; j < dim; ++j)
    for (std::size_t t = kkt_col_ptr_[j]; t < kkt_col_ptr_[j + 1]; ++t) {
      const double v = vals[ldl_.slot(t)];
      kkt_(kkt_row_[t], j) = v;
      kkt_(j, kkt_row_[t]) = v;
    }
}

namespace {

// Largest α in (0, 1] with v + α·dv ≥ (1−tau)·v elementwise (v > 0).
double max_step(const num::Vector& v, const num::Vector& dv, double tau) {
  double alpha = 1.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (dv[i] < 0.0) alpha = std::min(alpha, -tau * v[i] / dv[i]);
  }
  return alpha;
}

// Books the wall time of one solve into the workspace counters on every exit
// path. Timed-out solves are additionally booked under timeout_time_ns so the
// `timeouts` count has a matching time axis.
struct SolveTimeGuard {
  QpPerfCounters& counters;
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  bool timed_out = false;

  ~SolveTimeGuard() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    counters.solve_time_ns += static_cast<std::uint64_t>(ns);
    if (timed_out) counters.timeout_time_ns += static_cast<std::uint64_t>(ns);
  }
};

}  // namespace

QpResult solve_qp(const QpProblem& problem, const QpOptions& options) {
  QpWorkspace workspace;
  return solve_qp(problem, options, workspace, nullptr);
}

QpResult solve_qp(const QpProblem& problem, const QpOptions& options,
                  QpWorkspace& ws, const QpWarmStart* warm_start) {
  problem.validate();
  const std::size_t n = problem.num_vars();
  const std::size_t me = problem.num_eq();
  const std::size_t mi = problem.num_ineq();

  using Clock = std::chrono::steady_clock;
  const std::size_t bytes_before = ws.bytes();
  ++ws.counters_.solves;
  SolveTimeGuard time_guard{ws.counters_};
  EVC_TRACE_SPAN_VAR(qp_span, "qp.solve");

  // Times one factorization attempt (any path) and books it under
  // factorize_time_ns; the caller still bumps the per-path counters.
  const auto timed_factorize = [&ws](auto&& factorize) {
    EVC_TRACE_SPAN("qp.factorize");
    const Clock::time_point f0 = Clock::now();
    const bool ok = factorize();
    ws.counters_.factorize_time_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - f0)
            .count());
    return ok;
  };

  // Sparse views, KKT pattern + cached analysis, slot maps.
  ws.load_problem(problem, options.regularization);

  // E and A as loaded (stored zeros dropped).
  const std::size_t* e_ptr = ws.e_.row_ptr();
  const std::size_t* e_col = ws.e_.col_idx();
  const double* e_val = ws.e_.values();
  const std::size_t* a_ptr = ws.a_.row_ptr();
  const std::size_t* a_col = ws.a_.col_idx();
  const double* a_val = ws.a_.values();

  // row-sparse products over A
  const auto csr_dot_row = [=](std::size_t r, const num::Vector& v) {
    double acc = 0.0;
    for (std::size_t k = a_ptr[r]; k < a_ptr[r + 1]; ++k)
      acc += a_val[k] * v[a_col[k]];
    return acc;
  };
  // out = H·x over the symmetric upper triangle (unregularized).
  const auto h_times = [&ws, n](const num::Vector& x, num::Vector& out) {
    out.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = ws.h_col_ptr_[j]; p < ws.h_col_ptr_[j + 1]; ++p) {
        const std::size_t i = ws.h_row_[p];
        out[i] += ws.h_val_[p] * x[j];
        if (i != j) out[j] += ws.h_val_[p] * x[i];
      }
  };

  // r_dual = (H + reg·I) x + g + Eᵀy + Aᵀz; r_eq = E x − e;
  // r_ineq = A x + s − b.
  const auto compute_residuals = [&](const num::Vector& x,
                                     const num::Vector& y,
                                     const num::Vector& z,
                                     const num::Vector& s) {
    h_times(x, ws.r_dual_);
    for (std::size_t i = 0; i < n; ++i)
      ws.r_dual_[i] += options.regularization * x[i] + problem.g[i];
    ws.r_eq_.resize(me);
    for (std::size_t r = 0; r < me; ++r) {
      double acc = -problem.e_vec[r];
      const double yr = y[r];
      for (std::size_t k = e_ptr[r]; k < e_ptr[r + 1]; ++k) {
        acc += e_val[k] * x[e_col[k]];
        ws.r_dual_[e_col[k]] += e_val[k] * yr;
      }
      ws.r_eq_[r] = acc;
    }
    ws.r_ineq_.resize(mi);
    for (std::size_t r = 0; r < mi; ++r) {
      const double zr = z[r];
      double acc = s[r] - problem.b_vec[r];
      for (std::size_t k = a_ptr[r]; k < a_ptr[r + 1]; ++k) {
        acc += a_val[k] * x[a_col[k]];
        ws.r_dual_[a_col[k]] += a_val[k] * zr;
      }
      ws.r_ineq_[r] = acc;
    }
  };
  const auto residual_inf = [&]() {
    return std::max({ws.r_dual_.norm_inf(),
                     ws.r_eq_.empty() ? 0.0 : ws.r_eq_.norm_inf(),
                     ws.r_ineq_.empty() ? 0.0 : ws.r_ineq_.norm_inf()});
  };
  const auto objective_of = [&](const num::Vector& x) {
    h_times(x, ws.hx_);
    return 0.5 * x.dot(ws.hx_) + problem.g.dot(x);
  };
  const auto finish_workspace_counters = [&]() {
    const std::size_t bytes_after = ws.bytes();
    if (bytes_after > bytes_before) ++ws.counters_.workspace_growths;
    ws.counters_.peak_workspace_bytes =
        std::max(ws.counters_.peak_workspace_bytes, bytes_after);
  };
  // Sparse LDLᵀ of the KKT values currently in the factor, booked as one
  // factorization; on success the caller solves through ws.ldl_.
  const auto factorize_sparse = [&]() {
    ++ws.counters_.factorizations;
    const bool ok = timed_factorize([&] { return ws.ldl_.factorize(); });
    if (ok) ++ws.counters_.schur_solves;
    return ok;
  };

  QpResult result;
  result.x = num::Vector(n);
  result.y_eq = num::Vector(me);
  result.z_ineq = num::Vector(mi);

  // ---- Pure equality-constrained (or unconstrained) QP: one KKT solve ----
  if (mi == 0) {
    ws.assemble_kkt(result.z_ineq, result.z_ineq);  // no barrier terms
    ws.rhs_.resize(n + me);
    for (std::size_t i = 0; i < n; ++i) ws.rhs_[i] = -problem.g[i];
    for (std::size_t i = 0; i < me; ++i) ws.rhs_[n + i] = problem.e_vec[i];
    ws.sol_.resize(n + me);
    const auto finish = [&]() {
      for (std::size_t i = 0; i < n; ++i) result.x[i] = ws.sol_[i];
      for (std::size_t i = 0; i < me; ++i) result.y_eq[i] = ws.sol_[n + i];
      result.status = QpStatus::kSolved;
      result.objective = objective_of(result.x);
      compute_residuals(result.x, result.y_eq, result.z_ineq, result.z_ineq);
      result.kkt_residual = residual_inf();
      finish_workspace_counters();
      return result;
    };
    if (factorize_sparse()) {
      ws.ldl_.solve(ws.rhs_.ptr(), ws.sol_.ptr());
      return finish();
    }

    // Dense fallback with regularize-and-retry (H indefinite, or so badly
    // conditioned that the LDLᵀ met a pivot of the wrong sign).
    ws.dense_kkt_from_values();
    double delta = options.regularization;
    for (int attempt = 0; attempt < 6; ++attempt) {
      ++ws.counters_.factorizations;
      ++ws.counters_.dense_fallbacks;
      if (timed_factorize([&] { return ws.lu_.factorize(ws.kkt_); })) {
        ws.lu_.solve_into(ws.rhs_, ws.sol_);
        return finish();
      }
      delta = std::max(delta * 100.0, 1e-10);
      for (std::size_t i = 0; i < n; ++i) ws.kkt_(i, i) += delta;
      for (std::size_t i = 0; i < me; ++i) ws.kkt_(n + i, n + i) -= delta;
    }
    result.status = QpStatus::kNumericalIssue;
    finish_workspace_counters();
    return result;
  }
  // ---- Interior point (Mehrotra predictor-corrector) ----
  const rt::Deadline deadline =
      rt::Deadline::from_budget_s(options.time_budget_s);
  bool hard_failure = false;
  bool timed_out = false;
  num::Vector& x = ws.x_;
  num::Vector& y = ws.y_;
  num::Vector& z = ws.z_;
  num::Vector& s = ws.s_;
  x.assign(n, 0.0);
  y.assign(me, 0.0);
  z.assign(mi, 1.0);
  s.resize(mi);
  // Start slacks at a comfortable distance from the boundary.
  for (std::size_t i = 0; i < mi; ++i)
    s[i] = std::max(1.0, std::abs(problem.b_vec[i]));

  // Warm start: seed the primal from the previous solution and clamp the
  // multipliers/slacks into the interior — an accurate seed starts the
  // barrier nearly converged; a stale one is no worse than a cold start.
  if (warm_start != nullptr && warm_start->x.size() == n &&
      warm_start->y_eq.size() == me && warm_start->z_ineq.size() == mi) {
    ++ws.counters_.warm_starts;
    for (std::size_t i = 0; i < n; ++i) x[i] = warm_start->x[i];
    for (std::size_t i = 0; i < me; ++i) y[i] = warm_start->y_eq[i];
    for (std::size_t i = 0; i < mi; ++i)
      z[i] = std::max(warm_start->z_ineq[i], 1e-3);
    for (std::size_t i = 0; i < mi; ++i) {
      const double slack = problem.b_vec[i] - csr_dot_row(i, x);
      s[i] = std::max(slack, 1e-3 * std::max(1.0, std::abs(problem.b_vec[i])));
    }
  }

  const double scale =
      std::max({1.0, problem.g.norm_inf(), problem.b_vec.norm_inf(),
                me > 0 ? problem.e_vec.norm_inf() : 0.0});

  // Track the best iterate seen so that divergence still returns something
  // usable to the SQP line search.
  num::copy_into(x, ws.best_x_);
  num::copy_into(y, ws.best_y_);
  num::copy_into(z, ws.best_z_);
  double best_residual = std::numeric_limits<double>::infinity();

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Deadline watchdog: checked between iterations so the loop always
    // leaves a coherent (x, y, z, s) behind — never a half-applied step.
    if (iter > 0 && deadline.expired()) {
      timed_out = true;
      ++ws.counters_.timeouts;
      break;
    }
    result.iterations = iter + 1;
    ++ws.counters_.ipm_iterations;
    compute_residuals(x, y, z, s);
    const double mu = s.dot(z) / static_cast<double>(mi);
    result.kkt_residual = residual_inf();

    if (!std::isfinite(result.kkt_residual) || !std::isfinite(mu)) {
      // The iteration diverged (ill-conditioned scaling matrix); fall back
      // to the best iterate recorded so far.
      hard_failure = true;
      break;
    }
    const double progress = result.kkt_residual + mu;
    if (progress < best_residual) {
      best_residual = progress;
      num::copy_into(x, ws.best_x_);
      num::copy_into(y, ws.best_y_);
      num::copy_into(z, ws.best_z_);
    }

    if (result.kkt_residual <= options.tolerance * scale &&
        mu <= options.tolerance * scale) {
      result.status = QpStatus::kSolved;
      break;
    }

    // KKT values for K = H + AᵀDA, D = diag(z/s), scattered straight into
    // the factor. If the LDLᵀ meets a pivot of the wrong sign (K not
    // numerically positive definite under extreme barrier scaling), fall
    // back to a dense LU of the full KKT matrix, regularizing once more if
    // needed.
    ws.assemble_kkt(z, s);
    const bool use_ldl = factorize_sparse();
    if (!use_ldl) {
      ws.dense_kkt_from_values();
      ++ws.counters_.factorizations;
      ++ws.counters_.dense_fallbacks;
      if (!timed_factorize([&] { return ws.lu_.factorize(ws.kkt_); })) {
        for (std::size_t i = 0; i < n; ++i) ws.kkt_(i, i) += 1e-8;
        for (std::size_t i = 0; i < me; ++i) ws.kkt_(n + i, n + i) -= 1e-8;
        ++ws.counters_.factorizations;
        ++ws.counters_.dense_fallbacks;
        if (!timed_factorize([&] { return ws.lu_.factorize(ws.kkt_); })) {
          hard_failure = true;
          break;
        }
      }
    }

    // Newton step for the perturbed KKT system with complementarity target
    // rc: Z·ds + S·dz = rc − Z·S·e. Eliminating ds = −r_i − A·dx and
    // dz = D·A·dx + (rc − z∘s + z∘r_i)/s gives the reduced system
    // factorized above. Writes into caller-provided buffers — no
    // allocation at steady state.
    const auto solve_newton = [&](const num::Vector& rc, num::Vector& dx,
                                  num::Vector& dy, num::Vector& ds,
                                  num::Vector& dz) {
      ws.tmp_mi_.resize(mi);
      for (std::size_t i = 0; i < mi; ++i)
        ws.tmp_mi_[i] =
            (rc[i] - z[i] * s[i] + z[i] * ws.r_ineq_[i]) / s[i];
      ws.rhs1_.resize(n);
      for (std::size_t i = 0; i < n; ++i) ws.rhs1_[i] = -ws.r_dual_[i];
      for (std::size_t r = 0; r < mi; ++r) {
        const double wr = ws.tmp_mi_[r];
        if (wr == 0.0) continue;
        for (std::size_t k = a_ptr[r]; k < a_ptr[r + 1]; ++k)
          ws.rhs1_[a_col[k]] -= a_val[k] * wr;
      }
      ws.rhs_.resize(n + me);
      for (std::size_t i = 0; i < n; ++i) ws.rhs_[i] = ws.rhs1_[i];
      for (std::size_t i = 0; i < me; ++i) ws.rhs_[n + i] = -ws.r_eq_[i];
      ws.sol_.resize(n + me);
      if (use_ldl)
        ws.ldl_.solve(ws.rhs_.ptr(), ws.sol_.ptr());
      else
        ws.lu_.solve_into(ws.rhs_, ws.sol_);
      dx.resize(n);
      for (std::size_t i = 0; i < n; ++i) dx[i] = ws.sol_[i];
      dy.resize(me);
      for (std::size_t i = 0; i < me; ++i) dy[i] = ws.sol_[n + i];
      ds.resize(mi);
      for (std::size_t r = 0; r < mi; ++r)
        ds[r] = -ws.r_ineq_[r] - csr_dot_row(r, dx);
      dz.resize(mi);
      for (std::size_t i = 0; i < mi; ++i)
        dz[i] = (rc[i] - z[i] * s[i] - z[i] * ds[i]) / s[i];
    };

    // Predictor (affine): rc = 0 target → drive ZSe to 0.
    ws.rc_.assign(mi, 0.0);
    solve_newton(ws.rc_, ws.dx_aff_, ws.dy_aff_, ws.ds_aff_, ws.dz_aff_);
    const double a_s_aff = max_step(s, ws.ds_aff_, 1.0);
    const double a_z_aff = max_step(z, ws.dz_aff_, 1.0);
    const double alpha_aff = std::min(a_s_aff, a_z_aff);
    double mu_aff = 0.0;
    for (std::size_t i = 0; i < mi; ++i)
      mu_aff += (s[i] + alpha_aff * ws.ds_aff_[i]) *
                (z[i] + alpha_aff * ws.dz_aff_[i]);
    mu_aff /= static_cast<double>(mi);
    const double sigma = std::pow(std::clamp(mu_aff / mu, 0.0, 1.0), 3);

    // Corrector: rc = σμe − ΔS_aff·ΔZ_aff·e.
    for (std::size_t i = 0; i < mi; ++i)
      ws.rc_[i] = sigma * mu - ws.ds_aff_[i] * ws.dz_aff_[i];
    solve_newton(ws.rc_, ws.dx_, ws.dy_, ws.ds_, ws.dz_);

    const double tau = 0.995;
    const double alpha = std::min(
        {max_step(s, ws.ds_, tau), max_step(z, ws.dz_, tau), 1.0});

    x.add_scaled(alpha, ws.dx_);
    if (me > 0) y.add_scaled(alpha, ws.dy_);
    s.add_scaled(alpha, ws.ds_);
    z.add_scaled(alpha, ws.dz_);
  }

  if (result.status != QpStatus::kSolved) {
    // Hand back the best iterate, not the possibly-diverged last one. A
    // near-converged iterate counts as solved: the typical "failure" mode
    // is the barrier matrix blowing up the KKT factorization one iteration
    // *after* the iterate has effectively converged.
    num::copy_into(ws.best_x_, x);
    num::copy_into(ws.best_y_, y);
    num::copy_into(ws.best_z_, z);
    result.kkt_residual = best_residual;
    if (best_residual <= 1e-5 * scale)
      result.status = QpStatus::kSolved;
    else if (hard_failure)
      result.status = QpStatus::kNumericalIssue;
    else
      result.status =
          timed_out ? QpStatus::kTimeout : QpStatus::kMaxIterations;
  }
  time_guard.timed_out = result.status == QpStatus::kTimeout;
  qp_span.arg("iterations", static_cast<double>(result.iterations));
  for (std::size_t i = 0; i < n; ++i) result.x[i] = x[i];
  for (std::size_t i = 0; i < me; ++i) result.y_eq[i] = y[i];
  for (std::size_t i = 0; i < mi; ++i) result.z_ineq[i] = z[i];
  result.objective = objective_of(x);
  finish_workspace_counters();
  return result;
}

}  // namespace evc::opt
