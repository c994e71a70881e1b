// Statistics the benchmark reports with: nearest-rank percentiles under
// the ten-samples-beyond rule, quartiles computed exactly like Python's
// statistics.quantiles(values, n=4), the trimmed mean behind the speed
// probe's slowdown, and the outcome ledger behind ok_frac
// (fail_frac = 1 - ok_frac).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// A percentile is reportable only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a tail.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples:
/// ceil(q * n). The epsilon keeps 0.99 * 100 at rank 99 despite binary
/// rounding of q.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  if (r < 1.0) return 1;
  return std::min(n, static_cast<std::size_t>(r));
}

/// Samples strictly above the nearest-rank q-th percentile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinSamplesBeyond;
}

/// Nearest-rank percentile of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty())
    throw std::invalid_argument("percentile of an empty sample");
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

/// Median (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Mean of the smallest `share` (0 < share <= 1) of the values, at least
/// one of them; 0 when empty. Drops the largest readings, which on a
/// shared host are preemptions, not speeds.
inline double mean_of_lowest(std::vector<double> values, double share) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(share * static_cast<double>(values.size()) - 1e-9)),
      1, values.size());
  double total = 0.0;
  for (std::size_t i = 0; i < keep; ++i) total += values[i];
  return total / static_cast<double>(keep);
}

/// Median, across `windows` consecutive slices of `in_order` (samples in
/// arrival order, the last slice taking the remainder), of each slice's
/// nearest-rank q-th percentile. A stall on a shared host then moves one
/// window's figure instead of the reported one.
inline double windowed_percentile(const std::vector<double>& in_order, double q,
                                  std::size_t windows) {
  if (windows == 0 || in_order.size() < windows)
    throw std::invalid_argument("fewer samples than windows");
  const std::size_t per = in_order.size() / windows;
  std::vector<double> figures;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(w * per);
    const auto last = w + 1 == windows
                          ? in_order.end()
                          : first + static_cast<std::ptrdiff_t>(per);
    std::vector<double> slice(first, last);
    std::sort(slice.begin(), slice.end());
    figures.push_back(percentile_sorted(slice, q));
  }
  return median(std::move(figures));
}

/// Quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), the formula the benchmark's spread
/// check applies to repeated runs.
inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.size() < 2)
    throw std::invalid_argument("quartiles need at least two samples");
  std::sort(values.begin(), values.end());
  const long long ld = static_cast<long long>(values.size());
  const long long m = ld + 1;
  constexpr long long n = 4;
  std::array<double, 3> out{};
  for (long long i = 1; i < n; ++i) {
    const long long j = std::clamp(i * m / n, 1LL, ld - 1);
    const long long delta = i * m - j * n;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] *
             static_cast<double>(n - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return out;
}

/// A growing sample of one timing or size.
class Sample {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank percentile; 0 for an empty sample (a layer the workload
  /// never reaches).
  double percentile(double q) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    return percentile_sorted(values_, q);
  }
  bool supports(double q) const { return percentile_supported(size(), q); }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// How one attempted request ended. Every attempt lands in exactly one.
enum class Outcome : std::uint8_t {
  kOk,        ///< executed, on time
  kLate,      ///< executed, past its deadline
  kRejected,  ///< refused at admission
  kShed,      ///< dropped by deadline-aware scheduling
  kErrored,   ///< the request threw
  kFinished,  ///< the vehicle had already run its whole profile
};
inline constexpr std::size_t kOutcomes = 6;

class OutcomeLedger {
 public:
  void attempt() { ++attempted_; }
  void record(Outcome outcome) { ++counts_[static_cast<std::size_t>(outcome)]; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t count(Outcome outcome) const {
    return counts_[static_cast<std::size_t>(outcome)];
  }
  std::uint64_t resolved() const {
    std::uint64_t total = 0;
    for (std::uint64_t c : counts_) total += c;
    return total;
  }
  std::uint64_t failed() const { return resolved() - count(Outcome::kOk); }
  /// Every attempt resolved into exactly one outcome.
  bool balanced() const { return resolved() == attempted_; }
  /// Failed (late, rejected, shed, errored or finished) over attempted.
  double fail_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed()) /
                                 static_cast<double>(attempted_);
  }
  double ok_frac() const { return attempted_ == 0 ? 0.0 : 1.0 - fail_frac(); }

 private:
  std::uint64_t attempted_ = 0;
  std::array<std::uint64_t, kOutcomes> counts_{};
};

}  // namespace perfbench
