// Convex quadratic programming over sparse (CSR) problem matrices.
//
//   minimize    ½ xᵀH x + gᵀx
//   subject to  E x = e          (equalities)
//               A x ≤ b          (inequalities)
//
// Solved with a primal-dual interior-point method (Mehrotra
// predictor-corrector). Chosen over active-set because it needs no feasible
// starting point and has no combinatorial cycling — the SQP layer throws
// mildly inconsistent linearizations at it every control step, and
// regularize-and-retry is easier to reason about than active-set repair.
//
// Problem sizes here are MPC-scale (n ≲ 300, a few hundred constraints),
// and the systems are almost all zeros: the horizon-12 MPC KKT matrix is
// 208×208 with ~560 nonzeros in its upper triangle. Each solve reads H, E
// and A once, in O(nnz), into the views the iteration uses (stored zeros
// dropped, so the KKT pattern depends on the nonzero values alone); the
// per-iteration KKT system [K Eᵀ; E 0], K = H + AᵀDA, is then factored by
// one sparse quasi-definite LDLᵀ (numerics/sparse_ldl) whose symbolic
// analysis is cached in the workspace and reused whenever the next QP has
// exactly the same pattern.
// The analysis depends on that pattern alone, never on which QPs the
// workspace solved before, so results are history-independent. Every
// iteration scatters H + AᵀDA and E straight into the factor's value array
// through slot maps computed once per solve, and the residuals run over the
// same sparse views. A dense LU of the full KKT matrix remains as the
// fallback when the LDLᵀ meets a pivot of the wrong sign (K not
// numerically positive definite).
//
// All per-iteration storage lives in a QpWorkspace that the caller may own
// and reuse across solves: at steady state (same problem dimensions) the
// interior-point loop performs zero heap allocations. The workspace also
// accumulates perf counters (iterations, factorizations, fallbacks, peak
// bytes) so benches can track the solver's cost envelope. The registry
// counters qp.kkt_lookups / qp.kkt_analyses and the gauge qp.kkt_factor_nnz
// expose the analysis cache's hit rate and the factor's fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "numerics/aligned.hpp"
#include "numerics/csr_matrix.hpp"
#include "numerics/factorization.hpp"
#include "numerics/matrix.hpp"
#include "numerics/sparse_ldl.hpp"
#include "numerics/vector.hpp"
#include "optim/solve_status.hpp"

namespace evc::opt {

struct QpProblem {
  num::CsrMatrix h;  ///< n×n, symmetric PSD (regularized here)
  num::Vector g;  ///< n
  num::CsrMatrix e_mat;  ///< m_e×n equality matrix (may be 0×n)
  num::Vector e_vec;  ///< m_e
  num::CsrMatrix a_mat;  ///< m_i×n inequality matrix (may be 0×n)
  num::Vector b_vec;  ///< m_i

  std::size_t num_vars() const { return g.size(); }
  std::size_t num_eq() const { return e_vec.size(); }
  std::size_t num_ineq() const { return b_vec.size(); }
  /// Throws std::invalid_argument on inconsistent dimensions.
  void validate() const;
};

enum class QpStatus {
  kSolved,
  kMaxIterations,   ///< best iterate returned; residuals not at tolerance
  kTimeout,         ///< wall-clock budget exhausted; best iterate returned
  kNumericalIssue,  ///< KKT factorization failed even after regularization
};

/// Coarse classification for control-layer callers (see solve_status.hpp).
SolveStatus solve_status(QpStatus status);

struct QpResult {
  QpStatus status = QpStatus::kNumericalIssue;
  num::Vector x;          ///< primal solution
  num::Vector y_eq;       ///< equality multipliers
  num::Vector z_ineq;     ///< inequality multipliers (≥ 0)
  double objective = 0.0;
  std::size_t iterations = 0;
  double kkt_residual = 0.0;  ///< max-norm of stationarity+feasibility

  bool usable() const { return status != QpStatus::kNumericalIssue; }
};

struct QpOptions {
  std::size_t max_iterations = 60;
  double tolerance = 1e-8;      ///< residual + complementarity target
  double regularization = 1e-9; ///< added to H's diagonal before solving
  /// Wall-clock budget for one solve (s); 0 disables the deadline. Checked
  /// once per interior-point iteration, so an exhausted budget still returns
  /// the best iterate seen (status kTimeout) rather than aborting mid-step.
  double time_budget_s = 0.0;
};

/// Primal/dual seed for the interior-point iteration, typically the solution
/// of the previous QP in an SQP or receding-horizon sequence. Multipliers
/// are clamped into the interior and slacks re-derived from the primal seed,
/// so a stale or slightly infeasible seed degrades into a cold start rather
/// than a failure. Ignored when dimensions do not match the problem.
struct QpWarmStart {
  num::Vector x;       ///< primal seed (size n)
  num::Vector y_eq;    ///< equality multiplier seed (size m_e)
  num::Vector z_ineq;  ///< inequality multiplier seed (size m_i)
  bool empty() const { return x.empty() && y_eq.empty() && z_ineq.empty(); }
};

/// Perf counters accumulated across every solve that uses a workspace.
struct QpPerfCounters {
  std::size_t solves = 0;
  std::size_t ipm_iterations = 0;
  std::size_t factorizations = 0;      ///< KKT factorizations, any path
  /// Successful sparse LDLᵀ KKT factorizations (the name is kept for the
  /// checkpoint layout).
  std::size_t schur_solves = 0;
  std::size_t dense_fallbacks = 0;     ///< full dense KKT LU factorizations
  std::size_t timeouts = 0;            ///< solves that hit their wall budget
  std::size_t warm_starts = 0;         ///< solves seeded from a warm start
  std::size_t workspace_growths = 0;   ///< solves that grew any buffer
  std::size_t peak_workspace_bytes = 0;
  std::size_t condensed_solves = 0;   ///< always 0; exists only for perfbench/
  std::size_t condense_rebuilds = 0;  ///< always 0; exists only for perfbench/
  // Wall-time attribution, so `timeouts` has a matching time axis and the
  // MPC layer can report where its solve budget actually went.
  std::uint64_t solve_time_ns = 0;      ///< total wall time inside solve_qp
  std::uint64_t factorize_time_ns = 0;  ///< wall time inside factorizations
  std::uint64_t timeout_time_ns = 0;    ///< solve time of timed-out solves

  QpPerfCounters& operator+=(const QpPerfCounters& rhs);
};

/// Reusable storage for solve_qp. Create once (per thread/controller), pass
/// to every solve: buffers grow to the largest problem seen and are then
/// reused, making the interior-point loop allocation-free at steady state.
/// Not thread-safe — one workspace per concurrent solver.
class QpWorkspace {
 public:
  QpWorkspace() = default;

  const QpPerfCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = QpPerfCounters{}; }
  /// Overwrite the counters wholesale — used by checkpoint restore so a
  /// resumed controller reports the same aggregate solver telemetry as an
  /// uninterrupted run.
  void restore_counters(const QpPerfCounters& counters) {
    counters_ = counters;
  }

  /// Bytes currently held across all buffers (capacity, not size).
  std::size_t bytes() const;

 private:
  friend QpResult solve_qp(const QpProblem&, const QpOptions&, QpWorkspace&,
                           const QpWarmStart*);

  /// Read the problem into the sparse views, build the KKT pattern, look
  /// up (or run) its analysis and lay out the iteration-invariant values.
  void load_problem(const QpProblem& problem, double regularization);
  /// Write the KKT values for barrier scalings z/s into the factor.
  void assemble_kkt(const num::Vector& z, const num::Vector& s);
  /// Dense copy of the KKT values in the factor (LU fallback path).
  void dense_kkt_from_values();

  QpPerfCounters counters_;

  // Views of the problem, rebuilt per solve: the upper triangle of the
  // symmetrized H by columns (without the regularization), Hᵀ (to pair
  // H(i, j) with H(j, i)), E and A without their stored zeros, and Aᵀ.
  std::vector<std::size_t> h_col_ptr_, h_row_;
  num::AlignedBuffer h_val_;
  num::CsrMatrix ht_, e_, a_, at_;

  // Upper pattern of the KKT matrix [K Eᵀ; E −δI] (compressed-column), and
  // the slot map of K: k_slot_[i·n + j] (i ≤ j, (i, j) in the pattern) is
  // where K(i, j) lives in the factor's value array, so H and every AᵀDA
  // pair scatter straight into the factor.
  std::vector<std::size_t> kkt_col_ptr_, kkt_row_, kkt_mark_;
  std::vector<std::uint32_t> k_slot_;
  num::AlignedBuffer kkt_base_;  ///< H + reg·I and E, in factor order
  num::SparseLdl ldl_;

  num::Matrix kkt_;    ///< dense (n+me) KKT matrix (fallback path)
  num::LuFactorization lu_;

  num::Vector x_, y_, z_, s_;
  num::Vector best_x_, best_y_, best_z_;
  num::Vector r_dual_, r_eq_, r_ineq_;
  num::Vector tmp_mi_, rhs1_, rhs_, sol_, hx_;
  num::Vector dx_aff_, dy_aff_, ds_aff_, dz_aff_;
  num::Vector dx_, dy_, ds_, dz_, rc_;
};

/// Solve a convex QP. H is symmetrized internally. The overload
/// without a workspace allocates a fresh one per call (setup code); hot
/// paths should own a QpWorkspace and pass it in, optionally with a warm
/// start from the previous solve in the sequence.
QpResult solve_qp(const QpProblem& problem, const QpOptions& options = {});
QpResult solve_qp(const QpProblem& problem, const QpOptions& options,
                  QpWorkspace& workspace,
                  const QpWarmStart* warm_start = nullptr);

std::string to_string(QpStatus status);

}  // namespace evc::opt
