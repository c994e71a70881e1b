#include "probe.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

constexpr int kDim = 40;           ///< dense matrix order
constexpr int kSparseRows = 512;   ///< sparse matrix: rows x kSparseRows
constexpr int kPerRow = 6;         ///< non-zeros per sparse row
constexpr int kRepeats = 8;        ///< factor + solve + products per unit

}  // namespace

SpeedProbe::SpeedProbe()
    : spd_(kDim * kDim),
      factor_(kDim * kDim),
      rhs_(kSparseRows),
      x_(kSparseRows) {
  // A fixed matrix: B^T B + n I with B from a linear congruential stream.
  std::uint32_t state = 12345;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<double>(state >> 8) / static_cast<double>(1u << 24) - 0.5;
  };
  std::vector<double> b(kDim * kDim);
  for (double& v : b) v = next();
  for (int i = 0; i < kDim; ++i)
    for (int j = 0; j < kDim; ++j) {
      double s = i == j ? kDim : 0.0;
      for (int k = 0; k < kDim; ++k) s += b[k * kDim + i] * b[k * kDim + j];
      spd_[i * kDim + j] = s;
    }
  for (double& v : rhs_) v = next();
  row_start_.push_back(0);
  for (int r = 0; r < kSparseRows; ++r) {
    for (int k = 0; k < kPerRow; ++k) {
      state = state * 1664525u + 1013904223u;
      col_.push_back(static_cast<int>(state % kSparseRows));
      val_.push_back(next());
    }
    row_start_.push_back(static_cast<int>(col_.size()));
  }
}

double SpeedProbe::run() {
  // The untimed pass brings the probe's 70 KB back into the caches the
  // program's work has just used, so the timed pass measures the core.
  work();
  const double c0 = thread_cpu_s();
  work();
  return (thread_cpu_s() - c0) * 1e3;
}

void SpeedProbe::work() {
  x_ = rhs_;  // a fresh start each time keeps the values far from denormals
  double acc = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    // Cholesky factorisation, then forward and back substitution.
    factor_ = spd_;
    double* l = factor_.data();
    for (int j = 0; j < kDim; ++j) {
      double d = l[j * kDim + j];
      for (int k = 0; k < j; ++k) d -= l[j * kDim + k] * l[j * kDim + k];
      d = std::sqrt(d);
      l[j * kDim + j] = d;
      for (int i = j + 1; i < kDim; ++i) {
        double s = l[i * kDim + j];
        for (int k = 0; k < j; ++k) s -= l[i * kDim + k] * l[j * kDim + k];
        l[i * kDim + j] = s / d;
      }
    }
    for (int i = 0; i < kDim; ++i) {
      double s = rhs_[i] + acc * 1e-12;  // chains the repeats
      for (int k = 0; k < i; ++k) s -= l[i * kDim + k] * x_[k];
      x_[i] = s / l[i * kDim + i];
    }
    for (int i = kDim - 1; i >= 0; --i) {
      double s = x_[i];
      for (int k = i + 1; k < kDim; ++k) s -= l[k * kDim + i] * x_[k];
      x_[i] = s / l[i * kDim + i];
    }
    // A few sparse products through an index array.
    for (int sweep = 0; sweep < 4; ++sweep)
      for (int r = 0; r < kSparseRows; ++r) {
        double s = 0.0;
        for (int k = row_start_[r]; k < row_start_[r + 1]; ++k)
          s += val_[k] * x_[col_[k]];
        x_[r] = 0.5 * x_[r] + 0.01 * s;
      }
    acc += x_[kDim / 2];
  }
  sink_ += acc;
}

double slowdown(std::vector<double> unit_ms) {
  if (unit_ms.empty()) return 1.0;
  return mean_of_lowest(std::move(unit_ms), 0.95) / SpeedProbe::kNominalMs;
}

}  // namespace perfbench
