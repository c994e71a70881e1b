// A yardstick for the host's current speed. The development host is a
// virtual machine on a shared machine. Each vCPU flips, every few tens of
// milliseconds to seconds, between a fast state and states up to 1.8x
// slower (a busy sibling hyperthread, shared caches), so the same
// single-threaded work varies by 30 % between runs even in thread CPU time.
// The probe is a fixed piece of dense and sparse linear algebra owned by
// the benchmark, so no change to the library can move its cost. Timed on
// the threads that do the program's work, next to that work, it gives the
// factor by which they ran slow, and the benchmark divides its timings by
// it. Measured on the drive workload, the log of a plan's time ratio
// between two passes follows the log of the probe's ratio with slope
// 0.85-0.94 and correlation 0.87-0.95.
#pragma once

#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// CPU time (ms) of one unit on the development host in its fast state.
  /// Normalised timings read in milliseconds of that host.
  static constexpr double kNominalMs = 0.11;

  SpeedProbe();

  /// Runs one unit of probe work on the calling thread and returns its
  /// thread CPU time (ms).
  double run();

  /// Folded result of every unit, so the compiler cannot drop the work.
  double sink() const { return sink_; }

 private:
  void work();

  std::vector<double> spd_;     ///< n x n symmetric positive definite
  std::vector<double> factor_;  ///< its Cholesky factor, refreshed per pass
  std::vector<double> rhs_;
  std::vector<double> x_;
  std::vector<int> row_start_;  ///< sparse matrix, compressed rows
  std::vector<int> col_;
  std::vector<double> val_;
  double sink_ = 0.0;
};

/// How much slower than kNominalMs the units ran: the mean of the fastest
/// 95 % of `unit_ms` (a unit the scheduler preempted is not a speed) over
/// kNominalMs; 1 when there are none. A mean, not a median, because the
/// host's states mix and a median would jump from one state to the other.
double slowdown(std::vector<double> unit_ms);

}  // namespace perfbench
