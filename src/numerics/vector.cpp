#include "numerics/vector.hpp"

#include <cmath>

#include "util/expect.hpp"

namespace evc::num {

double& Vector::at(std::size_t i) {
  EVC_EXPECT(i < size(), "Vector::at out of range");
  return data_[i];
}

double Vector::at(std::size_t i) const {
  EVC_EXPECT(i < size(), "Vector::at out of range");
  return data_[i];
}

Vector& Vector::operator+=(const Vector& rhs) {
  EVC_EXPECT(size() == rhs.size(), "Vector += size mismatch");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  EVC_EXPECT(size() == rhs.size(), "Vector -= size mismatch");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Vector& Vector::add_scaled(double s, const Vector& rhs) {
  EVC_EXPECT(size() == rhs.size(), "Vector add_scaled size mismatch");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += s * rhs.data_[i];
  return *this;
}

double Vector::dot(const Vector& rhs) const {
  EVC_EXPECT(size() == rhs.size(), "Vector dot size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += data_[i] * rhs.data_[i];
  return acc;
}

double Vector::norm2() const { return std::sqrt(dot(*this)); }

double Vector::norm_inf() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::abs(x));
  return acc;
}

double Vector::norm1() const {
  double acc = 0.0;
  for (double x : data_) acc += std::abs(x);
  return acc;
}

void Vector::fill(double value) {
  for (double& x : data_) x = value;
}

Vector Vector::segment(std::size_t begin, std::size_t count) const {
  EVC_EXPECT(begin + count <= size(), "Vector::segment out of range");
  Vector out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = data_[begin + i];
  return out;
}

void Vector::set_segment(std::size_t begin, const Vector& src) {
  EVC_EXPECT(begin + src.size() <= size(), "Vector::set_segment out of range");
  for (std::size_t i = 0; i < src.size(); ++i) data_[begin + i] = src[i];
}

void copy_into(const Vector& src, Vector& dst) {
  dst.data().assign(src.data().begin(), src.data().end());
}

}  // namespace evc::num
