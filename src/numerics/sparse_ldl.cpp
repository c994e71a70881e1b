#include "numerics/sparse_ldl.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace evc::num {

bool SparseLdl::analyze(std::size_t dim, std::size_t num_pos,
                        const std::vector<std::size_t>& col_ptr,
                        const std::vector<std::size_t>& row_idx) {
  EVC_EXPECT(num_pos <= dim, "SparseLdl: num_pos exceeds the dimension");
  EVC_EXPECT(col_ptr.size() >= dim + 1 && col_ptr[0] == 0,
             "SparseLdl: column pointer array too short");
  const std::size_t nnz = col_ptr[dim];
  EVC_EXPECT(row_idx.size() >= nnz, "SparseLdl: row index array too short");

  if (analyzed_ && dim == n_ && num_pos == num_pos_ &&
      std::equal(col_ptr.begin(), col_ptr.begin() + dim + 1,
                 key_col_ptr_.begin(), key_col_ptr_.end()) &&
      std::equal(row_idx.begin(), row_idx.begin() + nnz,
                 key_row_idx_.begin(), key_row_idx_.end()))
    return false;

  for (std::size_t j = 0; j < dim; ++j) {
    bool has_diag = false;
    for (std::size_t p = col_ptr[j]; p < col_ptr[j + 1]; ++p) {
      EVC_EXPECT(row_idx[p] <= j, "SparseLdl: entry below the diagonal");
      has_diag = has_diag || row_idx[p] == j;
    }
    EVC_EXPECT(has_diag, "SparseLdl: missing diagonal entry");
  }

  n_ = dim;
  num_pos_ = num_pos;
  key_col_ptr_.assign(col_ptr.begin(), col_ptr.begin() + dim + 1);
  key_row_idx_.assign(row_idx.begin(), row_idx.begin() + nnz);
  analyzed_ = true;
  ok_ = false;

  order(col_ptr, row_idx);

  // Permuted upper triangle: entry (i, j) lands at (min, max) of
  // (iperm[i], iperm[j]); slot_ remembers where each input entry went.
  ap_.assign(n_ + 1, 0);
  for (std::size_t j = 0; j < n_; ++j)
    for (std::size_t p = col_ptr[j]; p < col_ptr[j + 1]; ++p)
      ++ap_[std::max(iperm_[row_idx[p]], iperm_[j]) + 1];
  for (std::size_t j = 0; j < n_; ++j) ap_[j + 1] += ap_[j];
  next_space_.assign(ap_.begin(), ap_.end() - 1);
  ai_.resize(nnz);
  slot_.resize(nnz);
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t p = col_ptr[j]; p < col_ptr[j + 1]; ++p) {
      const std::size_t a = iperm_[row_idx[p]];
      const std::size_t b = iperm_[j];
      const std::size_t q = next_space_[std::max(a, b)]++;
      ai_[q] = std::min(a, b);
      slot_[p] = q;
    }
  }
  ax_.assign(nnz, 0.0);
  diag_pos_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k)
    for (std::size_t p = ap_[k]; p < ap_[k + 1]; ++p)
      if (ai_[p] == k) diag_pos_[k] = p;

  reg_.resize(n_);
  sign_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const bool negative = perm_[k] >= num_pos_;
    reg_[k] = negative ? -kDelta : 0.0;
    sign_[k] = negative ? -1 : 1;
  }

  // Elimination tree and column counts of L (QDLDL_etree): walk each
  // entry's path up the partial tree, counting one L entry per visited
  // node until the walk meets a node already marked for this column.
  etree_.assign(n_, -1);
  lnz_.assign(n_, 0);
  next_space_.assign(n_, 0);  // visit marks
  for (std::size_t j = 0; j < n_; ++j) {
    next_space_[j] = j;
    for (std::size_t p = ap_[j]; p < ap_[j + 1]; ++p) {
      std::size_t i = ai_[p];
      while (next_space_[i] != j) {
        if (etree_[i] == -1) etree_[i] = static_cast<std::ptrdiff_t>(j);
        ++lnz_[i];
        next_space_[i] = j;
        i = static_cast<std::size_t>(etree_[i]);
      }
    }
  }
  lp_.resize(n_ + 1);
  lp_[0] = 0;
  for (std::size_t j = 0; j < n_; ++j) lp_[j + 1] = lp_[j] + lnz_[j];
  li_.resize(lp_[n_]);
  lx_.resize(lp_[n_]);
  dinv_.resize(n_);
  scale_.resize(n_);
  y_marker_.resize(n_);
  y_idx_.resize(n_);
  elim_buf_.resize(n_);
  next_space_.resize(n_);
  y_vals_.resize(n_);
  bp_.resize(n_);
  xp_.resize(n_);
  rp_.resize(n_);
  return true;
}

// Minimum-degree ordering on the explicit elimination graph, kept as one
// adjacency bitset per node: eliminating p joins its neighbours into a
// clique (row_u |= row_p) and drops p. The next pivot is the remaining
// eligible node of least degree, ties to the lowest index, so the ordering
// is a pure function of the pattern. A negative node is eligible only once
// it has no positive neighbour left: its pivot is then −δ minus a Schur
// complement of the positive block, computed from stable positive pivots.
// Eliminated earlier, its pivot would be −δ itself and the factor would
// grow like 1/δ, which forces δ up to where it biases the answer. Positive
// nodes are always eligible, so some node always is. O(dim² / 64) memory
// and work per elimination — nothing at MPC scale (dim ≈ 200).
void SparseLdl::order(const std::vector<std::size_t>& col_ptr,
                      const std::vector<std::size_t>& row_idx) {
  const std::size_t words = (n_ + 63) / 64;
  adj_.assign(n_ * words, 0);
  const auto set_bit = [&](std::size_t r, std::size_t c) {
    adj_[r * words + c / 64] |= std::uint64_t{1} << (c % 64);
  };
  for (std::size_t j = 0; j < n_; ++j)
    for (std::size_t p = col_ptr[j]; p < col_ptr[j + 1]; ++p)
      if (row_idx[p] != j) {
        set_bit(row_idx[p], j);
        set_bit(j, row_idx[p]);
      }
  // A row's degree, and whether it still touches the positive block
  // [0, num_pos).
  const auto update = [&](std::size_t r) {
    const std::uint64_t* row = adj_.data() + r * words;
    std::size_t deg = 0;
    bool touches_pos = false;
    for (std::size_t w = 0; w < words; ++w) {
      deg += static_cast<std::size_t>(std::popcount(row[w]));
      const std::size_t lo = w * 64;
      if (lo < num_pos_) {
        const std::size_t bits = std::min<std::size_t>(64, num_pos_ - lo);
        const std::uint64_t mask =
            bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
        touches_pos = touches_pos || (row[w] & mask) != 0;
      }
    }
    degree_[r] = deg;
    md_state_[r] = r >= num_pos_ && touches_pos ? kWaiting : kEligible;
  };
  degree_.resize(n_);
  md_state_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) update(i);
  perm_.resize(n_);
  iperm_.resize(n_);

  for (std::size_t k = 0; k < n_; ++k) {
    std::size_t pivot = n_;
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < n_; ++i)
      if (md_state_[i] == kEligible && degree_[i] < best) {
        best = degree_[i];
        pivot = i;
      }
    perm_[k] = pivot;
    iperm_[pivot] = k;
    md_state_[pivot] = kDone;
    const std::uint64_t* row_p = adj_.data() + pivot * words;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = row_p[w]; bits != 0; bits &= bits - 1) {
        const std::size_t u =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        std::uint64_t* row_u = adj_.data() + u * words;
        for (std::size_t v = 0; v < words; ++v) row_u[v] |= row_p[v];
        row_u[u / 64] &= ~(std::uint64_t{1} << (u % 64));
        row_u[pivot / 64] &= ~(std::uint64_t{1} << (pivot % 64));
        update(u);
      }
    }
  }
}

// Symmetric diagonal scaling T so that T·M·T has a unit positive-block
// diagonal and unit-norm coupling rows: t = 1/√M_jj on the positive block,
// and on the negative block t = 1/‖row of E·T_pos‖₂, which brings the
// diagonal of the Schur complement E·K⁻¹·Eᵀ towards 1 whatever the
// barrier scaling. That makes δ a relative regularization: a barrier term
// of 1e10 shrinks E·K⁻¹·Eᵀ to ~1e-10 in the unscaled system, and the
// scaling is what keeps δ below it.
void SparseLdl::compute_scaling() {
  for (std::size_t k = 0; k < n_; ++k) {
    const double d = ax_[diag_pos_[k]];
    scale_[k] = sign_[k] > 0 && d > 0.0 && std::isfinite(d)
                    ? 1.0 / std::sqrt(d)
                    : 1.0;
    y_vals_[k] = 0.0;
  }
  for (std::size_t j = 0; j < n_; ++j)
    for (std::size_t p = ap_[j]; p < ap_[j + 1]; ++p) {
      const std::size_t i = ai_[p];
      if (sign_[i] > 0 && sign_[j] < 0) {
        const double v = ax_[p] * scale_[i];
        y_vals_[j] += v * v;
      } else if (sign_[i] < 0 && sign_[j] > 0) {
        const double v = ax_[p] * scale_[j];
        y_vals_[i] += v * v;
      }
    }
  for (std::size_t k = 0; k < n_; ++k)
    if (sign_[k] < 0 && y_vals_[k] > 0.0 && std::isfinite(y_vals_[k]))
      scale_[k] = 1.0 / std::sqrt(y_vals_[k]);
}

// Up-looking LDLᵀ (QDLDL_factor): row k of L is the solution of a sparse
// triangular system whose pattern is the union of the etree paths from the
// nonzeros of column k of the upper triangle.
bool SparseLdl::factorize() {
  EVC_EXPECT(analyzed_, "SparseLdl: factorize before analyze");
  ok_ = false;
  compute_scaling();
  for (std::size_t i = 0; i < n_; ++i) {
    y_marker_[i] = 0;
    y_vals_[i] = 0.0;
    next_space_[i] = lp_[i];
  }
  for (std::size_t k = 0; k < n_; ++k) {
    std::size_t nnz_y = 0;
    const double sk = scale_[k];
    double dk = reg_[k];
    for (std::size_t p = ap_[k]; p < ap_[k + 1]; ++p) {
      const std::size_t b = ai_[p];
      if (b == k) {
        dk += ax_[p] * sk * sk;
        continue;
      }
      y_vals_[b] = ax_[p] * scale_[b] * sk;
      if (y_marker_[b]) continue;
      // Walk up the etree from b until an already-visited node, then push
      // the path in reverse so y_idx_ ends up in topological order.
      y_marker_[b] = 1;
      elim_buf_[0] = b;
      std::size_t nnz_e = 1;
      std::ptrdiff_t next = etree_[b];
      while (next != -1 && static_cast<std::size_t>(next) < k) {
        const auto nx = static_cast<std::size_t>(next);
        if (y_marker_[nx]) break;
        y_marker_[nx] = 1;
        elim_buf_[nnz_e++] = nx;
        next = etree_[nx];
      }
      while (nnz_e > 0) y_idx_[nnz_y++] = elim_buf_[--nnz_e];
    }
    for (std::size_t t = nnz_y; t-- > 0;) {
      const std::size_t c = y_idx_[t];
      const std::size_t end = next_space_[c];
      const double yc = y_vals_[c];
      for (std::size_t q = lp_[c]; q < end; ++q)
        y_vals_[li_[q]] -= lx_[q] * yc;
      li_[end] = k;
      lx_[end] = yc * dinv_[c];
      dk -= yc * lx_[end];
      ++next_space_[c];
      y_vals_[c] = 0.0;
      y_marker_[c] = 0;
    }
    // Inverted tests so a NaN pivot fails too.
    if (!std::isfinite(dk) || (sign_[k] > 0 ? !(dk > 0.0) : !(dk < 0.0)))
      return false;
    dinv_[k] = 1.0 / dk;
  }
  ok_ = true;
  return true;
}

void SparseLdl::ldl_solve_in_place(double* x) const {
  for (std::size_t i = 0; i < n_; ++i) {
    const double xi = x[i];
    for (std::size_t q = lp_[i]; q < lp_[i + 1]; ++q) x[li_[q]] -= lx_[q] * xi;
  }
  for (std::size_t i = 0; i < n_; ++i) x[i] *= dinv_[i];
  for (std::size_t i = n_; i-- > 0;) {
    double xi = x[i];
    for (std::size_t q = lp_[i]; q < lp_[i + 1]; ++q) xi -= lx_[q] * x[li_[q]];
    x[i] = xi;
  }
}

void SparseLdl::solve(const double* b, double* x) {
  EVC_EXPECT(ok_, "SparseLdl: solve without a successful factorization");
  // x = T·(T·M·T)⁻¹·T·b in the permuted ordering.
  for (std::size_t k = 0; k < n_; ++k) {
    bp_[k] = b[perm_[k]];
    xp_[k] = scale_[k] * bp_[k];
  }
  ldl_solve_in_place(xp_.data());
  for (std::size_t k = 0; k < n_; ++k) xp_[k] *= scale_[k];
  for (int step = 0; step < kRefinementSteps; ++step) {
    // r = b − M₀·x over the symmetric upper triangle, then x += M⁻¹·r.
    std::copy(bp_.begin(), bp_.end(), rp_.begin());
    for (std::size_t j = 0; j < n_; ++j) {
      const double xj = xp_[j];
      for (std::size_t p = ap_[j]; p < ap_[j + 1]; ++p) {
        const std::size_t i = ai_[p];
        rp_[i] -= ax_[p] * xj;
        if (i != j) rp_[j] -= ax_[p] * xp_[i];
      }
    }
    for (std::size_t k = 0; k < n_; ++k) rp_[k] *= scale_[k];
    ldl_solve_in_place(rp_.data());
    for (std::size_t k = 0; k < n_; ++k) xp_[k] += scale_[k] * rp_[k];
  }
  for (std::size_t k = 0; k < n_; ++k) x[perm_[k]] = xp_[k];
}

std::size_t SparseLdl::workspace_bytes() const {
  const std::size_t index_elems =
      key_col_ptr_.capacity() + key_row_idx_.capacity() + perm_.capacity() +
      iperm_.capacity() + ap_.capacity() + ai_.capacity() +
      slot_.capacity() + diag_pos_.capacity() + lnz_.capacity() +
      lp_.capacity() + li_.capacity() +
      y_idx_.capacity() + elim_buf_.capacity() + next_space_.capacity() +
      degree_.capacity();
  const std::size_t double_elems =
      ax_.capacity() + reg_.capacity() + lx_.capacity() + dinv_.capacity() +
      scale_.capacity() +
      y_vals_.capacity() + bp_.capacity() + xp_.capacity() + rp_.capacity();
  return index_elems * sizeof(std::size_t) + double_elems * sizeof(double) +
         etree_.capacity() * sizeof(std::ptrdiff_t) +
         adj_.capacity() * sizeof(std::uint64_t) + sign_.capacity() +
         y_marker_.capacity() + md_state_.capacity();
}

}  // namespace evc::num
