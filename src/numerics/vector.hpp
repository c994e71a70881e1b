// Dense real vector for the embedded optimization stack.
//
// Sized for MPC-scale problems (tens to a few hundred unknowns); all storage
// is contiguous doubles, all operations are O(n) loops — no expression
// templates, no aliasing surprises. The backing store is 64-byte aligned
// (numerics/aligned.hpp) so every buffer starts on a cache line.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "numerics/aligned.hpp"

namespace evc::num {

class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init)
      : data_(init.begin(), init.end()) {}
  /// Copies into aligned storage (the source allocator differs).
  explicit Vector(const std::vector<double>& data)
      : data_(data.begin(), data.end()) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  /// Elements the backing store can hold without reallocating.
  std::size_t capacity() const { return data_.capacity(); }

  /// Resize preserving existing elements (new elements zero). Reuses the
  /// backing store when capacity suffices — the workspace-reuse primitive.
  void resize(std::size_t n) { data_.resize(n, 0.0); }
  /// Resize and overwrite every element with `fill` (reuses capacity).
  void assign(std::size_t n, double fill) { data_.assign(n, fill); }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }
  /// Bounds-checked access (throws on misuse).
  double& at(std::size_t i);
  double at(std::size_t i) const;

  const AlignedBuffer& data() const { return data_; }
  AlignedBuffer& data() { return data_; }
  /// Raw 64-byte-aligned element pointer (kernel entry points).
  double* ptr() { return data_.data(); }
  const double* ptr() const { return data_.data(); }

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);
  /// this += s * rhs (axpy).
  Vector& add_scaled(double s, const Vector& rhs);

  double dot(const Vector& rhs) const;
  double norm2() const;
  double norm_inf() const;
  /// Sum of |x_i| (ℓ1 norm) — used by the SQP merit function.
  double norm1() const;

  void fill(double value);
  /// Copy of elements [begin, begin+count).
  Vector segment(std::size_t begin, std::size_t count) const;
  /// Write `src` into elements [begin, begin+src.size()).
  void set_segment(std::size_t begin, const Vector& src);

  friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
  friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
  friend Vector operator*(double s, Vector v) { return v *= s; }
  friend Vector operator*(Vector v, double s) { return v *= s; }
  friend Vector operator-(Vector v) { return v *= -1.0; }

 private:
  AlignedBuffer data_;
};

/// dst := src, reusing dst's backing store when its capacity suffices.
void copy_into(const Vector& src, Vector& dst);

}  // namespace evc::num
