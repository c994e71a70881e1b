// Dense row-major real matrix for the embedded optimization stack.
// Storage is 64-byte aligned (numerics/aligned.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/aligned.hpp"
#include "numerics/vector.hpp"

namespace evc::num {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  /// Elements the backing store can hold without reallocating.
  std::size_t capacity() const { return data_.capacity(); }

  /// Set dimensions and zero every element. Reuses the backing store when
  /// capacity suffices — the workspace-reuse primitive.
  void resize(std::size_t rows, std::size_t cols);
  /// Zero every element, keeping dimensions.
  void set_zero();
  /// dst := src, reusing this matrix's backing store when adequate.
  void copy_from(const Matrix& src);

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  /// Raw 64-byte-aligned element pointer (row-major, leading dim = cols()).
  double* ptr() { return data_.data(); }
  const double* ptr() const { return data_.data(); }
  /// Pointer to the first element of row `r`.
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }
  /// Bounds-checked access.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;
  Vector operator*(const Vector& v) const;
  /// yᵀ = xᵀ·A, i.e. Aᵀ·x without forming the transpose.
  Vector transpose_times(const Vector& x) const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Copy rows [r0, r0+nr) × cols [c0, c0+nc).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;
  /// Write `src` at offset (r0, c0).
  void set_block(std::size_t r0, std::size_t c0, const Matrix& src);
  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;
  void set_row(std::size_t r, const Vector& v);

  /// max |a_ij|.
  double norm_max() const;
  /// Symmetrize in place: A := (A + Aᵀ)/2. Cheap guard before factorizing
  /// matrices that are symmetric up to rounding.
  void symmetrize();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedBuffer data_;
};

}  // namespace evc::num
