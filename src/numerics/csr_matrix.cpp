#include "numerics/csr_matrix.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace evc::num {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols)
    : cols_(cols), row_ptr_(rows + 1, 0) {}

CsrMatrix CsrMatrix::from_dense(const Matrix& m) {
  CsrMatrix out;
  out.reset(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.row_ptr(r);
    for (std::size_t c = 0; c < m.cols(); ++c)
      if (row[c] != 0.0) out.push(c, row[c]);
    out.end_row();
  }
  return out;
}

CsrMatrix CsrMatrix::from_entries(std::size_t rows, std::size_t cols,
                                  std::vector<Entry> entries) {
  for (const Entry& e : entries)
    EVC_EXPECT(e.row < rows && e.col < cols, "CSR entry out of range");
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  CsrMatrix out;
  out.reset(cols);
  std::size_t k = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    while (k < entries.size() && entries[k].row == r) {
      const std::size_t c = entries[k].col;
      double sum = 0.0;
      for (; k < entries.size() && entries[k].row == r && entries[k].col == c;
           ++k)
        sum += entries[k].value;
      out.push(c, sum);
    }
    out.end_row();
  }
  return out;
}

Matrix CsrMatrix::to_dense() const {
  Matrix out;
  to_dense(out);
  return out;
}

void CsrMatrix::to_dense(Matrix& out) const {
  out.resize(rows(), cols_);
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      out(r, col_[k]) = val_[k];
}

std::size_t CsrMatrix::find(std::size_t r, std::size_t c) const {
  const auto first = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  return it != last && *it == c ? static_cast<std::size_t>(it - col_.begin())
                                : nnz();
}

double CsrMatrix::coeff(std::size_t r, std::size_t c) const {
  EVC_EXPECT(r < rows() && c < cols_, "CsrMatrix::coeff out of range");
  const std::size_t k = find(r, c);
  return k < nnz() ? val_[k] : 0.0;
}

void CsrMatrix::reset(std::size_t cols) {
  cols_ = cols;
  row_ptr_.assign(1, 0);
  col_.clear();
  val_.clear();
}

void CsrMatrix::push(std::size_t col, double value) {
  EVC_EXPECT(col < cols_, "CsrMatrix::push column out of range");
  EVC_EXPECT(col_.size() == row_ptr_.back() || col_.back() < col,
             "CsrMatrix::push columns must ascend within a row");
  col_.push_back(col);
  val_.push_back(value);
}

void CsrMatrix::end_row() { row_ptr_.push_back(col_.size()); }

void CsrMatrix::assign_nonzeros(const CsrMatrix& src) {
  reset(src.cols_);
  for (std::size_t r = 0; r < src.rows(); ++r) {
    for (std::size_t k = src.row_ptr_[r]; k < src.row_ptr_[r + 1]; ++k)
      if (src.val_[k] != 0.0) {
        col_.push_back(src.col_[k]);
        val_.push_back(src.val_[k]);
      }
    end_row();
  }
}

void CsrMatrix::transpose_into(CsrMatrix& out) const {
  // Counting sort by column; visiting the rows in order keeps each output
  // row's columns ascending. out.row_ptr_[c] serves as row c's fill cursor,
  // which leaves it at the start of row c + 1; the final shift restores it.
  EVC_EXPECT(&out != this, "transpose_into cannot transpose in place");
  std::vector<std::size_t>& ptr = out.row_ptr_;
  out.cols_ = rows();
  ptr.assign(cols_ + 1, 0);
  for (const std::size_t c : col_) ++ptr[c + 1];
  for (std::size_t c = 0; c < cols_; ++c) ptr[c + 1] += ptr[c];
  out.col_.resize(nnz());
  out.val_.resize(nnz());
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t dst = ptr[col_[k]]++;
      out.col_[dst] = r;
      out.val_[dst] = val_[k];
    }
  for (std::size_t c = cols_; c > 0; --c) ptr[c] = ptr[c - 1];
  ptr[0] = 0;
}

void CsrMatrix::add_to_diagonal(double s) {
  EVC_EXPECT(rows() == cols_, "add_to_diagonal requires a square matrix");
  for (std::size_t r = 0; r < rows(); ++r) {
    const std::size_t k = find(r, r);
    EVC_EXPECT(k < nnz(), "diagonal entry not stored");
    val_[k] += s;
  }
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  EVC_EXPECT(x.size() == cols_, "CsrMatrix * Vector dimension mismatch");
  y.resize(rows());
  for (std::size_t r = 0; r < rows(); ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += val_[k] * x[col_[k]];
    y[r] = acc;
  }
}

Vector CsrMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply(x, y);
  return y;
}

std::size_t CsrMatrix::bytes() const {
  return (row_ptr_.capacity() + col_.capacity()) * sizeof(std::size_t) +
         val_.capacity() * sizeof(double);
}

}  // namespace evc::num
