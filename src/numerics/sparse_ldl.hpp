// Sparse LDLᵀ factorization of symmetric quasi-definite KKT matrices
//
//   M = [ K   Eᵀ ]      K  p×p symmetric positive definite,
//       [ E  −δI ]      E  (dim−p)×p, any rank,
//
// the system the interior-point QP solves every iteration (K = H + AᵀDA,
// E the MPC dynamics Jacobian) and the SQP's least-norm restoration solves
// ([I Jᵀ; J −δI]). A quasi-definite matrix has an LDLᵀ factorization in
// *every* symmetric ordering, with p positive and dim−p negative pivots
// (Vanderbei, SIAM J. Optim. 1995), so the ordering can be chosen for fill
// alone. The factorization follows QDLDL (the OSQP linear-system solver,
// Stellato et al., Math. Prog. Comp. 2020): an up-looking, row-by-row LDLᵀ
// over a precomputed elimination tree.
//
// Two phases:
//  * analyze() — the symbolic step, a pure function of the pattern: a
//    deterministic minimum-degree ordering (ties go to the lowest index;
//    a negative node waits until its positive neighbours are eliminated),
//    the permuted upper-triangular pattern, the elimination tree and the
//    column counts of L. Storage for the numeric step is sized here. A call
//    with the pattern already analyzed is a no-op, so callers simply pass
//    the pattern of every new system and get the cached analysis back
//    whenever it repeats.
//  * factorize() — the numeric step, into the preallocated storage. The
//    caller first writes the δ = 0 matrix into values() through slot().
//    The matrix is scaled symmetrically (unit diagonal on the positive
//    block, unit-norm coupling rows on the negative one) and −δ is added
//    to the negative block's scaled pivots, so δ is relative to the
//    system's own scale. A pivot of the wrong sign or a non-finite pivot
//    returns false.
//
// solve() applies the factor, then a fixed number of iterative-refinement
// steps against the exact δ = 0 matrix, so the regularization does not bias
// the answer of a nonsingular system.
//
// At steady state (repeated pattern) neither factorize() nor solve()
// allocates. The TU is compiled with -ffp-contract=off and uses no SIMD
// dispatch, so it produces the same bits on every supported target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace evc::num {

class SparseLdl {
 public:
  /// Symbolic analysis of a dim×dim pattern given as its upper triangle in
  /// compressed-column form: column j lists its row indices i ≤ j in
  /// row_idx[col_ptr[j] .. col_ptr[j+1]), diagonal included (required).
  /// Indices below `num_pos` carry positive pivots, the rest negative ones.
  /// Returns true when a new analysis ran, false when the pattern equals
  /// the one already analyzed (which is then reused as is).
  bool analyze(std::size_t dim, std::size_t num_pos,
               const std::vector<std::size_t>& col_ptr,
               const std::vector<std::size_t>& row_idx);

  /// Position in values() of entry k of the analyzed pattern (k indexes
  /// row_idx as passed to analyze()).
  std::size_t slot(std::size_t k) const { return slot_[k]; }
  /// The δ = 0 matrix, stored in the factor's permuted upper triangle.
  /// Callers scatter values here through slot() before factorize().
  double* values() { return ax_.data(); }
  const double* values() const { return ax_.data(); }

  /// Numeric factorization of values(). Returns false (and leaves the
  /// factor unusable) on a pivot of the wrong sign or a non-finite pivot.
  bool factorize();
  bool ok() const { return ok_; }

  /// Solve M·x = b with δ = 0, refined; requires ok(). `b` and `x` hold
  /// dim() elements and may alias.
  void solve(const double* b, double* x);

  std::size_t dim() const { return n_; }
  /// Nonzeros below the diagonal of L (the fill of the factorization).
  std::size_t factor_nnz() const { return li_.size(); }
  /// Bytes of symbolic + numeric storage currently held.
  std::size_t workspace_bytes() const;

 private:
  /// Dual regularization δ on the negative block's pivots of the scaled
  /// matrix: just above the rounding noise of a unit-scaled Schur
  /// complement, so a rank-deficient E still factors with the right signs.
  static constexpr double kDelta = 1e-14;
  /// Iterative-refinement steps per solve (against the δ = 0 matrix).
  static constexpr int kRefinementSteps = 2;

  void order(const std::vector<std::size_t>& col_ptr,
             const std::vector<std::size_t>& row_idx);
  void compute_scaling();
  void ldl_solve_in_place(double* x) const;

  // Analyzed pattern (as passed in) — the cache key.
  std::size_t n_ = 0;
  std::size_t num_pos_ = 0;
  std::vector<std::size_t> key_col_ptr_, key_row_idx_;
  bool analyzed_ = false;
  bool ok_ = false;

  // Ordering: perm_[k] = original index eliminated k-th; iperm_ inverse.
  std::vector<std::size_t> perm_, iperm_;
  // Permuted upper triangle C = P·M·Pᵀ (compressed-column).
  std::vector<std::size_t> ap_, ai_;
  std::vector<double> ax_;
  std::vector<std::size_t> slot_;
  std::vector<std::size_t> diag_pos_;  ///< diagonal entry of each column
  std::vector<double> reg_;  ///< −δ on negative pivots, 0 elsewhere
  std::vector<std::int8_t> sign_;  ///< expected pivot sign, permuted order

  // Elimination tree and column counts of L.
  std::vector<std::ptrdiff_t> etree_;
  std::vector<std::size_t> lnz_;

  // Factor L (unit lower, compressed-column, strict part) and D⁻¹.
  std::vector<std::size_t> lp_, li_;
  std::vector<double> lx_, dinv_;
  std::vector<double> scale_;  ///< symmetric diagonal scaling, see .cpp

  // Numeric / solve scratch.
  std::vector<std::uint8_t> y_marker_;
  std::vector<std::size_t> y_idx_, elim_buf_, next_space_;
  std::vector<double> y_vals_;
  std::vector<double> bp_, xp_, rp_;

  // Minimum-degree scratch: bitset adjacency of the elimination graph.
  std::vector<std::uint64_t> adj_;
  enum : std::uint8_t { kEligible, kWaiting, kDone };
  std::vector<std::size_t> degree_;
  std::vector<std::uint8_t> md_state_;  ///< kEligible / kWaiting / kDone
};

}  // namespace evc::num
