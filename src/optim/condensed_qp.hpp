// Condensed QP backend for the MPC fast path.
//
// The sparse path hands the interior-point solver the full step-space QP —
// all 11N+2 variables, 6N+2 equality rows — every receding-horizon step.
// But the equalities are the *model*: given the 5N free inputs per step
// (supply temperature, compressor duty, recirculation, mass flow, comfort
// slack), the states and powers are determined. Condensing eliminates them
// up front (the Φ/Γ "prediction matrix" construction of classic MPC,
// generalized here to an arbitrary triangularizable equality structure):
//
//     d = Z·v + d_p       (d: all variables, v: free variables)
//
// with E·Z = 0 and E·d_p = e, turning the QP into a small dense input-space
// problem
//
//     min ½ vᵀ(ZᵀHZ) v + (Zᵀ(H·d_p + g))ᵀ v   s.t.  (A·Z) v ≤ b − A·d_p
//
// solved by the warm-started dense active-set method in
// optim/dense_active_set. The win is structural: Z, ZᵀHZ (and its Cholesky
// factor), and A·Z depend only on the *linearization*, which barely moves
// between SQP iterations and receding-horizon steps — so they are cached in
// this solver and rebuilt only when the cached equality matrix drifts past
// a tolerance. A steady-state warm solve is then two small triangular
// sweeps and an active-set confirmation: microseconds, not milliseconds.
//
// Which variables are "dependent" and in what order they can be eliminated
// is problem knowledge, declared by the NLP through a CondensingPlan (the
// MPC formulation orders its rows so the dependent block is unit-lower-
// triangular-ish with pivots ≥ 1). The plan is validated here; a problem
// without a plan, or a solve that fails numerically, falls back to the
// sparse interior-point path — the condensed backend is an accelerator,
// never the only route to an answer.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "numerics/factorization.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"
#include "optim/dense_active_set.hpp"
#include "optim/qp.hpp"

namespace evc {
class BinaryReader;
class BinaryWriter;
}  // namespace evc

namespace evc::opt {

/// Which QP engine the SQP layer uses for its subproblems.
enum class QpBackend {
  kSparse,     ///< full-space interior point (the original path)
  kCondensed,  ///< condensed dense active set, IPM fallback on failure
  kAuto,       ///< condensed when the problem offers a plan, else sparse
};

const char* to_string(QpBackend backend);
/// Parse an EVC_MPC_BACKEND value ("sparse"|"condensed"|"auto");
/// unknown strings → nullopt.
std::optional<QpBackend> parse_qp_backend(std::string_view text);
/// Backend from the EVC_MPC_BACKEND environment variable, or `fallback`
/// when the variable is unset/empty/unrecognized (unrecognized values also
/// print a note on stderr, mirroring EVC_SIMD handling).
QpBackend qp_backend_from_env(QpBackend fallback);

/// Declaration of an eliminable equality structure: equality row
/// `dep_rows[i]` is solved for variable `dep_cols[i]`, in order. Valid iff
/// row dep_rows[i] has no nonzero in any dep_cols[j] with j > i (the
/// dependent block is lower triangular in elimination order) and every
/// pivot E(dep_rows[i], dep_cols[i]) stays well away from zero. All
/// equality rows must appear exactly once, so the elimination consumes the
/// entire equality system.
struct CondensingPlan {
  std::size_t num_vars = 0;
  std::vector<std::size_t> dep_rows;
  std::vector<std::size_t> dep_cols;
  /// Derived by finalize(): the non-dependent columns, ascending — the
  /// variables of the condensed QP, in the order Z's columns use.
  std::vector<std::size_t> free_cols;

  std::size_t num_eq() const { return dep_rows.size(); }
  std::size_t num_free() const { return free_cols.size(); }

  /// Validate index ranges/uniqueness and derive free_cols. Returns false
  /// (leaving the plan unusable) on any inconsistency. Triangularity and
  /// pivot health are structural properties of E and are checked against
  /// the actual matrix at rebuild time, not here.
  bool finalize();
};

struct CondensedQpOptions {
  /// Relative ∞-norm drift of the equality matrix (and Hessian diagonal)
  /// beyond which the cached prediction matrices are rebuilt. The cached
  /// matrices are used *as* the linearization when within tolerance, so the
  /// default is tight enough that reuse only happens when the SQP iterate
  /// has effectively stopped moving (converged steps, ZOH holds) — a
  /// rebuild is cheap, a silently stale model is not.
  double drift_tolerance = 1e-7;
  /// The SQP layer's Hessian and inequality matrix are constant across
  /// iterations (quadratic objective, fixed bounds) except for the diagonal
  /// regularization it may add — which the diagonal drift check catches.
  /// Set false for problems whose full H/A genuinely change, at the cost of
  /// a full-matrix compare per solve.
  bool assume_constant_hessian = true;
  /// Minimum pivot magnitude accepted when triangularizing E at rebuild.
  double min_pivot = 1e-8;
  /// Inequality multipliers in the warm start seed the active set when they
  /// exceed max(warm_threshold, warm_relative · max_i z_i). The relative
  /// part matters when the seed comes from an *interior-point* solve (the
  /// bootstrap after any fallback): IPM multipliers are strictly positive
  /// everywhere — inactive rows sit at the duality-gap floor (~tolerance),
  /// orders of magnitude below the active ones — so an absolute threshold
  /// alone seeds every row and the active-set method starts from garbage.
  double warm_threshold = 1e-8;
  double warm_relative = 1e-4;
  DenseActiveSetOptions active_set;
};

/// Condensed-backend solver with a persistent prediction-matrix cache.
/// One instance per SQP solver; not thread-safe. All cross-solve state is
/// the cache (E/H/A snapshots) — checkpointable via save_cache/load_cache —
/// plus matrices derived deterministically from it, so a restored solver
/// replays byte-identically.
class CondensedQpSolver {
 public:
  /// Solve the QP through the condensed path. On any structural or
  /// numerical failure returns a result with status kNumericalIssue
  /// (usable() false) and books nothing but the attempt — the caller is
  /// expected to fall back to solve_qp. On success books
  /// solves/condensed_solves, either condense_rebuilds+factorizations (cache
  /// miss) or warm_starts (cache hit with a warm seed), and
  /// active_set_changes into `counters`.
  QpResult solve(const QpProblem& qp, const CondensingPlan& plan,
                 const CondensedQpOptions& options, QpPerfCounters& counters,
                 const QpWarmStart* warm_start);

  /// Drop the cached prediction matrices (next solve rebuilds).
  void invalidate() { state_ = CacheState::kEmpty; }
  bool has_cache() const { return state_ != CacheState::kEmpty; }

  /// Serialize the cache snapshots (E/H/A at last rebuild). The derived
  /// matrices are *not* written: load_cache marks them for silent
  /// re-derivation on the next solve — same bits, no counter increments, so
  /// a restored run's telemetry matches an uninterrupted one.
  void save_cache(BinaryWriter& writer) const;
  void load_cache(BinaryReader& reader);

  std::size_t bytes() const;

 private:
  enum class CacheState {
    kEmpty,        ///< no snapshots; next solve rebuilds
    kNeedsDerive,  ///< snapshots restored from a checkpoint; derive silently
    kReady,        ///< snapshots + derived matrices valid
  };

  bool plan_matches(const QpProblem& qp, const CondensingPlan& plan) const;
  bool drift_within(const QpProblem& qp, const CondensedQpOptions& options)
      const;
  /// Build Z, H_r = ZᵀHZ (+ Cholesky), A_r = A·Z and the dual-recovery
  /// tables from the cached snapshots. Returns false when E cannot be
  /// triangularized in plan order or H_r is not positive definite.
  bool derive(const CondensingPlan& plan, double min_pivot);

  CacheState state_ = CacheState::kEmpty;

  // Snapshots of the linearization the cache was built from: dense copies
  // of the QP's CSR matrices, which the condensing works on.
  num::Matrix cached_e_, cached_h_, cached_a_;

  // Derived: the condensed problem.
  num::Matrix z_;    ///< num_vars × num_free null-space basis, E·Z = 0
  num::Matrix zt_;   ///< Zᵀ (kept for the ZᵀHZ product)
  num::Matrix hz_;   ///< H·Z scratch
  num::Matrix h_r_;  ///< ZᵀHZ
  num::Matrix a_r_;  ///< A·Z
  num::CholeskyFactorization chol_hr_;
  std::vector<double> pivots_;  ///< E(dep_rows[i], dep_cols[i])
  // Dual recovery: for elimination step i, the sub-column nonzeros
  // E(dep_rows[j], dep_cols[i]) with j > i, flattened CSR-style.
  std::vector<std::size_t> col_ptr_, col_j_;
  std::vector<double> col_val_;

  DenseActiveSetSolver active_set_;

  // Per-solve scratch.
  num::Vector d_p_, rhs_full_, g_r_, b_r_, v_, lam_, hx_, y_eq_rhs_;
  std::vector<std::size_t> warm_idx_;
};

}  // namespace evc::opt
