#include "optim/condensed_qp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "numerics/kernels.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/serialize.hpp"

namespace evc::opt {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Relative ∞-norm distance of `a` from the equally-sized snapshot `b`.
double relative_drift(const num::CsrMatrix& a, const num::Matrix& b) {
  const std::size_t* ptr = a.row_ptr();
  const std::size_t* col = a.col_idx();
  const double* val = a.values();
  double diff = 0.0, scale = 1.0;
  for (std::size_t r = 0; r < b.rows(); ++r) {
    const double* pb = b.row_ptr(r);
    std::size_t k = ptr[r];
    for (std::size_t c = 0; c < b.cols(); ++c) {
      const double va = k < ptr[r + 1] && col[k] == c ? val[k++] : 0.0;
      diff = std::max(diff, std::abs(va - pb[c]));
      scale = std::max(scale, std::abs(pb[c]));
    }
  }
  return diff / scale;
}

void write_matrix(BinaryWriter& writer, const num::Matrix& m) {
  writer.write_size(m.rows());
  writer.write_size(m.cols());
  writer.write_f64_seq(m.ptr(), m.rows() * m.cols());
}

void read_matrix(BinaryReader& reader, num::Matrix& m) {
  const std::size_t rows = reader.read_size();
  const std::size_t cols = reader.read_size();
  const std::vector<double> data = reader.read_f64_vec();
  if (data.size() != rows * cols)
    throw SerializationError("condensed cache matrix size mismatch");
  m.resize(rows, cols);
  std::copy(data.begin(), data.end(), m.ptr());
}

}  // namespace

const char* to_string(QpBackend backend) {
  switch (backend) {
    case QpBackend::kSparse:
      return "sparse";
    case QpBackend::kCondensed:
      return "condensed";
    case QpBackend::kAuto:
      return "auto";
  }
  return "unknown";
}

std::optional<QpBackend> parse_qp_backend(std::string_view text) {
  if (text == "sparse" || text == "ipm") return QpBackend::kSparse;
  if (text == "condensed" || text == "dense") return QpBackend::kCondensed;
  if (text == "auto") return QpBackend::kAuto;
  return std::nullopt;
}

QpBackend qp_backend_from_env(QpBackend fallback) {
  const char* env = std::getenv("EVC_MPC_BACKEND");
  if (env == nullptr || *env == '\0') return fallback;
  const auto parsed = parse_qp_backend(env);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "evclimate: EVC_MPC_BACKEND=%s not recognized "
                 "(sparse|condensed|auto); using %s\n",
                 env, to_string(fallback));
    return fallback;
  }
  return *parsed;
}

bool CondensingPlan::finalize() {
  free_cols.clear();
  if (dep_rows.size() != dep_cols.size()) return false;
  if (dep_cols.size() > num_vars) return false;
  std::vector<unsigned char> row_seen(dep_rows.size(), 0);
  std::vector<unsigned char> col_seen(num_vars, 0);
  for (std::size_t i = 0; i < dep_rows.size(); ++i) {
    // Every equality row must be consumed exactly once, so rows are a
    // permutation of 0..num_eq-1; columns must be distinct and in range.
    if (dep_rows[i] >= dep_rows.size() || row_seen[dep_rows[i]] != 0)
      return false;
    if (dep_cols[i] >= num_vars || col_seen[dep_cols[i]] != 0) return false;
    row_seen[dep_rows[i]] = 1;
    col_seen[dep_cols[i]] = 1;
  }
  free_cols.reserve(num_vars - dep_cols.size());
  for (std::size_t c = 0; c < num_vars; ++c)
    if (col_seen[c] == 0) free_cols.push_back(c);
  return true;
}

bool CondensedQpSolver::plan_matches(const QpProblem& qp,
                                     const CondensingPlan& plan) const {
  return plan.num_vars == qp.num_vars() && plan.num_eq() == qp.num_eq() &&
         plan.num_free() == qp.num_vars() - qp.num_eq() &&
         plan.num_free() > 0;
}

bool CondensedQpSolver::drift_within(const QpProblem& qp,
                                     const CondensedQpOptions& options) const {
  if (cached_e_.rows() != qp.e_mat.rows() ||
      cached_e_.cols() != qp.e_mat.cols() ||
      cached_h_.rows() != qp.h.rows() || cached_a_.rows() != qp.a_mat.rows())
    return false;
  if (relative_drift(qp.e_mat, cached_e_) > options.drift_tolerance)
    return false;
  // The Hessian diagonal moves when the SQP layer regularizes-and-retries;
  // catch that even under the constant-Hessian contract.
  const std::size_t n = qp.h.rows();
  double diff = 0.0, scale = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    diff = std::max(diff, std::abs(qp.h.coeff(i, i) - cached_h_(i, i)));
    scale = std::max(scale, std::abs(cached_h_(i, i)));
  }
  if (diff / scale > options.drift_tolerance) return false;
  if (!options.assume_constant_hessian) {
    if (relative_drift(qp.h, cached_h_) > options.drift_tolerance)
      return false;
    if (qp.a_mat.rows() > 0 &&
        relative_drift(qp.a_mat, cached_a_) > options.drift_tolerance)
      return false;
  }
  return true;
}

bool CondensedQpSolver::derive(const CondensingPlan& plan, double min_pivot) {
  const std::size_t n = plan.num_vars;
  const std::size_t me = plan.num_eq();
  const std::size_t nf = plan.num_free();

  // Structural check against the actual matrix: in elimination order, row i
  // must not touch a variable eliminated later, and its pivot must be solid.
  pivots_.assign(me, 0.0);
  for (std::size_t i = 0; i < me; ++i) {
    const double pivot = cached_e_(plan.dep_rows[i], plan.dep_cols[i]);
    if (std::abs(pivot) < min_pivot) return false;
    pivots_[i] = pivot;
    for (std::size_t j = i + 1; j < me; ++j)
      if (cached_e_(plan.dep_rows[i], plan.dep_cols[j]) != 0.0) return false;
  }

  // Null-space basis Z by forward substitution: free rows are unit vectors,
  // each dependent row is solved from its equality row (which, by the order
  // just verified, references only rows already filled in). Zero entries of
  // E are skipped — MPC equality rows have a handful of nonzeros each.
  z_.resize(n, nf);
  for (std::size_t t = 0; t < nf; ++t) z_(plan.free_cols[t], t) = 1.0;
  for (std::size_t i = 0; i < me; ++i) {
    const std::size_t row = plan.dep_rows[i];
    const std::size_t col = plan.dep_cols[i];
    const double* e_row = cached_e_.row_ptr(row);
    double* z_col = z_.row_ptr(col);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == col || e_row[j] == 0.0) continue;
      num::axpy_span(-e_row[j] / pivots_[i], z_.row_ptr(j), z_col, nf);
    }
  }

  // H·Z and A·Z with explicit zero-skipping: both matrices are sparse
  // (bounds and short couplings), and rebuilds sit on the re-linearization
  // path where this is the dominant cost.
  hz_.resize(n, nf);
  for (std::size_t i = 0; i < n; ++i) {
    const double* h_row = cached_h_.row_ptr(i);
    double* out = hz_.row_ptr(i);
    for (std::size_t k = 0; k < n; ++k)
      if (h_row[k] != 0.0) num::axpy_span(h_row[k], z_.row_ptr(k), out, nf);
  }
  a_r_.resize(cached_a_.rows(), nf);
  for (std::size_t i = 0; i < cached_a_.rows(); ++i) {
    const double* a_row = cached_a_.row_ptr(i);
    double* out = a_r_.row_ptr(i);
    for (std::size_t k = 0; k < n; ++k)
      if (a_row[k] != 0.0) num::axpy_span(a_row[k], z_.row_ptr(k), out, nf);
  }

  zt_ = z_.transposed();
  num::gemm(1.0, zt_, hz_, 0.0, h_r_);
  h_r_.symmetrize();
  if (!chol_hr_.factorize(h_r_)) return false;

  // Dual-recovery table: for elimination step i, the nonzeros of E's
  // column dep_cols[i] in later dependent rows (the strictly-lower part of
  // the triangularized block, consumed backwards when recovering y).
  col_ptr_.assign(me + 1, 0);
  col_j_.clear();
  col_val_.clear();
  for (std::size_t i = 0; i < me; ++i) {
    col_ptr_[i] = col_j_.size();
    for (std::size_t j = i + 1; j < me; ++j) {
      const double val = cached_e_(plan.dep_rows[j], plan.dep_cols[i]);
      if (val != 0.0) {
        col_j_.push_back(j);
        col_val_.push_back(val);
      }
    }
  }
  col_ptr_[me] = col_j_.size();
  return true;
}

QpResult CondensedQpSolver::solve(const QpProblem& qp,
                                  const CondensingPlan& plan,
                                  const CondensedQpOptions& options,
                                  QpPerfCounters& counters,
                                  const QpWarmStart* warm_start) {
  QpResult result;
  if (!plan_matches(qp, plan)) return result;

  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = qp.num_vars();
  const std::size_t me = qp.num_eq();
  const std::size_t nf = plan.num_free();
  const std::size_t mi = qp.num_ineq();

  // A checkpoint-restored cache carries only the linearization snapshots;
  // re-derive the prediction matrices from them silently (bit-identical to
  // what the pre-checkpoint run computed, so no counters move).
  if (state_ == CacheState::kNeedsDerive) {
    state_ = derive(plan, options.min_pivot) ? CacheState::kReady
                                             : CacheState::kEmpty;
  }

  bool rebuilt = false;
  if (state_ != CacheState::kReady || !drift_within(qp, options)) {
    EVC_TRACE_SPAN("qp.condense");
    const auto rebuild_start = std::chrono::steady_clock::now();
    qp.e_mat.to_dense(cached_e_);
    qp.h.to_dense(cached_h_);
    qp.a_mat.to_dense(cached_a_);
    if (!derive(plan, options.min_pivot)) {
      state_ = CacheState::kEmpty;
      return result;
    }
    state_ = CacheState::kReady;
    rebuilt = true;
    ++counters.condense_rebuilds;
    ++counters.factorizations;
    counters.factorize_time_ns += elapsed_ns(rebuild_start);
  }

  // Particular solution E·d_p = e with free variables pinned to zero, by
  // the same forward substitution that built Z.
  d_p_.assign(n, 0.0);
  for (std::size_t i = 0; i < me; ++i) {
    const std::size_t row = plan.dep_rows[i];
    const double acc =
        qp.e_vec[row] - num::dot_span(cached_e_.row_ptr(row), d_p_.ptr(), n);
    d_p_[plan.dep_cols[i]] = acc / pivots_[i];
  }

  // Reduced gradient g_r = Zᵀ(H·d_p + g) and rhs b_r = b − A·d_p.
  rhs_full_.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) rhs_full_[j] = qp.g[j];
  num::gemv_span(1.0, cached_h_.ptr(), n, n, n, d_p_.ptr(), rhs_full_.ptr());
  g_r_.assign(nf, 0.0);
  num::gemv_t_span(1.0, z_.ptr(), nf, n, nf, rhs_full_.ptr(), g_r_.ptr());
  b_r_.assign(mi, 0.0);
  for (std::size_t i = 0; i < mi; ++i) b_r_[i] = qp.b_vec[i];
  num::gemv_span(-1.0, cached_a_.ptr(), n, mi, n, d_p_.ptr(), b_r_.ptr());

  // Warm working set: the support of the previous solve's inequality
  // multipliers. Derived fresh from the caller's seed every time — the
  // solver itself keeps no hidden cross-solve state.
  warm_idx_.clear();
  const bool warm =
      warm_start != nullptr && warm_start->z_ineq.size() == mi;
  if (warm) {
    double z_max = 0.0;
    for (std::size_t i = 0; i < mi; ++i)
      z_max = std::max(z_max, warm_start->z_ineq[i]);
    const double threshold =
        std::max(options.warm_threshold, options.warm_relative * z_max);
    for (std::size_t i = 0; i < mi; ++i)
      if (warm_start->z_ineq[i] > threshold) warm_idx_.push_back(i);
  }

  DenseActiveSetOutput as_out;
  {
    EVC_TRACE_SPAN_VAR(span, "qp.active_set");
    as_out = active_set_.solve(chol_hr_, h_r_, a_r_, g_r_, b_r_, warm_idx_,
                               options.active_set, v_, lam_);
    span.arg("iterations", static_cast<double>(as_out.iterations));
    span.arg("set_changes", static_cast<double>(as_out.set_changes));
  }
  if (as_out.status != QpStatus::kSolved) return result;

  // Expand v back to the full space and recover the multipliers.
  result.x.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) result.x[j] = d_p_[j];
  num::gemv_span(1.0, z_.ptr(), nf, n, nf, v_.ptr(), result.x.ptr());
  result.z_ineq.assign(mi, 0.0);
  for (std::size_t i = 0; i < mi; ++i) result.z_ineq[i] = lam_[i];

  // Equality duals from stationarity H·x + g + Eᵀy + Aᵀz = 0, solved over
  // the dependent columns in reverse elimination order (Eᵀ restricted to
  // those columns is upper triangular in that order).
  hx_.assign(n, 0.0);
  num::gemv_span(1.0, cached_h_.ptr(), n, n, n, result.x.ptr(), hx_.ptr());
  result.objective = 0.5 * num::dot_span(result.x.ptr(), hx_.ptr(), n) +
                     num::dot_span(qp.g.ptr(), result.x.ptr(), n);
  y_eq_rhs_.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) y_eq_rhs_[j] = hx_[j] + qp.g[j];
  num::gemv_t_span(1.0, cached_a_.ptr(), n, mi, n, lam_.ptr(),
                   y_eq_rhs_.ptr());
  result.y_eq.assign(me, 0.0);
  for (std::size_t i = me; i-- > 0;) {
    double acc = -y_eq_rhs_[plan.dep_cols[i]];
    for (std::size_t t = col_ptr_[i]; t < col_ptr_[i + 1]; ++t)
      acc -= col_val_[t] * result.y_eq[plan.dep_rows[col_j_[t]]];
    result.y_eq[plan.dep_rows[i]] = acc / pivots_[i];
  }

  result.status = QpStatus::kSolved;
  result.iterations = as_out.iterations;
  result.kkt_residual = as_out.kkt_residual;

  ++counters.solves;
  ++counters.condensed_solves;
  // A cache hit reuses the cached Cholesky factor: that is the warm path,
  // and it must not also count as a factorization (nor a rebuild as a warm
  // start) — each solve is exactly one of the two.
  if (!rebuilt && warm) ++counters.warm_starts;
  counters.active_set_changes += as_out.set_changes;
  counters.solve_time_ns += elapsed_ns(start);
  counters.peak_workspace_bytes =
      std::max(counters.peak_workspace_bytes, bytes());
  return result;
}

void CondensedQpSolver::save_cache(BinaryWriter& writer) const {
  writer.section("condensed_cache");
  writer.write_bool(state_ != CacheState::kEmpty);
  if (state_ == CacheState::kEmpty) return;
  write_matrix(writer, cached_e_);
  write_matrix(writer, cached_h_);
  write_matrix(writer, cached_a_);
}

void CondensedQpSolver::load_cache(BinaryReader& reader) {
  reader.expect_section("condensed_cache");
  if (!reader.read_bool()) {
    state_ = CacheState::kEmpty;
    return;
  }
  read_matrix(reader, cached_e_);
  read_matrix(reader, cached_h_);
  read_matrix(reader, cached_a_);
  state_ = CacheState::kNeedsDerive;
}

std::size_t CondensedQpSolver::bytes() const {
  const std::size_t mats =
      (cached_e_.capacity() + cached_h_.capacity() + cached_a_.capacity() +
       z_.capacity() + zt_.capacity() + hz_.capacity() + h_r_.capacity() +
       a_r_.capacity()) *
      sizeof(double);
  const std::size_t vecs =
      (d_p_.capacity() + rhs_full_.capacity() + g_r_.capacity() +
       b_r_.capacity() + v_.capacity() + lam_.capacity() + hx_.capacity() +
       y_eq_rhs_.capacity() + pivots_.capacity() + col_val_.capacity()) *
      sizeof(double);
  const std::size_t idx =
      (col_ptr_.capacity() + col_j_.capacity() + warm_idx_.capacity()) *
      sizeof(std::size_t);
  return mats + vecs + idx + chol_hr_.workspace_bytes() +
         active_set_.bytes();
}

}  // namespace evc::opt
