// Compressed-sparse-row real matrix: the hand-off format for the MPC's
// problem matrices (cost Hessian, equality Jacobian, inequality matrix).
//
// Those matrices are 134×134, 74×134 and 192×134 at horizon 12 with more
// than 97 % zeros, and their patterns depend on the horizon alone, so the
// NLP builds them once (H, A) or refills the same pattern in place (J) and
// the QP reads them in O(nnz). Each row stores ascending column indices.
// A stored entry may hold 0.0 or −0.0 (a structural zero: the pattern is
// fixed, the value happened to vanish); consumers that derive a sparsity
// pattern from the values use assign_nonzeros() to drop those.
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/aligned.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"

namespace evc::num {

class CsrMatrix {
 public:
  /// One (row, col, value) term for from_entries().
  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };

  CsrMatrix() = default;
  /// rows×cols with no stored entries (all zero).
  CsrMatrix(std::size_t rows, std::size_t cols);

  /// The entries of `m` that compare unequal to 0.0 (both signed zeros are
  /// left out).
  static CsrMatrix from_dense(const Matrix& m);
  /// Every listed position becomes a stored entry, even when its value is
  /// zero. Terms at the same position are summed in the order given,
  /// starting from 0.0 — the bits a dense `m(r, c) += v` sequence produces.
  static CsrMatrix from_entries(std::size_t rows, std::size_t cols,
                                std::vector<Entry> entries);

  Matrix to_dense() const;
  /// Dense copy into `out`, reusing its storage.
  void to_dense(Matrix& out) const;

  std::size_t rows() const { return row_ptr_.size() - 1; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return col_.size(); }

  /// Row r's entries are [row_ptr()[r], row_ptr()[r + 1]).
  const std::size_t* row_ptr() const { return row_ptr_.data(); }
  const std::size_t* col_idx() const { return col_.data(); }
  const double* values() const { return val_.data(); }

  /// Stored value at (r, c), or 0.0 when (r, c) is not in the pattern.
  double coeff(std::size_t r, std::size_t c) const;

  /// Row-by-row assembly: reset() empties the matrix (keeping `cols` and the
  /// storage), push() appends an entry to the row being built, in ascending
  /// column order, and end_row() closes that row.
  void reset(std::size_t cols);
  void push(std::size_t col, double value);
  void end_row();

  /// this := src without its ±0.0 entries, reusing storage.
  void assign_nonzeros(const CsrMatrix& src);
  /// out := thisᵀ, reusing out's storage (`out` must be another matrix).
  void transpose_into(CsrMatrix& out) const;
  /// Add s to every diagonal entry. Throws std::invalid_argument when the
  /// matrix is not square or a diagonal entry is not stored.
  void add_to_diagonal(double s);

  /// y = this·x. Each row is summed from 0.0 in ascending column order, so
  /// for finite x the result equals Matrix·Vector bit for bit (the skipped
  /// zero products cannot change a sum that starts at +0.0).
  void multiply(const Vector& x, Vector& y) const;
  Vector multiply(const Vector& x) const;

  std::size_t bytes() const;

 private:
  /// Index of (r, c) in the entry arrays, or nnz() when it is not stored.
  std::size_t find(std::size_t r, std::size_t c) const;

  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<std::size_t> col_;
  AlignedBuffer val_;
};

}  // namespace evc::num
