// Shared pieces of the benchmark: arguments, the result line, process
// resource readings, the span log of traced runs, and the controller
// decorator that times decide() calls from outside the library.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "core/mpc_controller.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the calling thread (s). On a virtual machine it excludes
/// the time the host stole from the vCPU.
double thread_cpu_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the result line plus the run
/// environment, printed on the line before it.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra key/value facts about the run (filesystem, completion
  /// observation, sample counts) merged into the environment line.
  std::vector<std::pair<std::string, std::string>> facts;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
  /// Mark the run incorrect; the reason goes to stderr.
  void fail(const std::string& why);
};

/// Peak resident set of this process (MB).
double peak_rss_mb();

/// User and system CPU seconds consumed by this process so far.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};
CpuTimes cpu_times();
/// System share of the CPU time spent between two readings.
double sys_cpu_frac(const CpuTimes& before, const CpuTimes& after);

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();
/// Pin the calling thread to `cpu`.
void pin_this_thread(int cpu);


/// In-memory spans of a traced run. A span has a name, a start, an end and
/// the span that caused it; self time is its duration minus the time its
/// children cover. Nothing is written until the run ends.
class SpanLog {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoParent = 0;

  struct Span {
    const char* name = "";
    Id parent = kNoParent;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t child_ns = 0;  ///< time covered by direct children
  };

  explicit SpanLog(std::size_t reserve = 1 << 16);

  Id open(const char* name, Id parent);
  void close(Id id);
  /// The innermost open span (kNoParent when none) — the parent of a span
  /// opened by code that does not know its caller, such as the decorator.
  Id current() const { return stack_.empty() ? kNoParent : stack_.back(); }

  std::size_t size() const { return spans_.size(); }
  static double duration_us(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
  }
  static double self_us(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-3;
  }
  /// Durations (us) of every closed span named `name`.
  Sample durations_us(const char* name) const;
  /// Sum of self times (us) of every span named `name`.
  double self_sum_us(const char* name) const;
  /// Sum of durations (us) of every span named `name`.
  double total_us(const char* name) const;

  /// Measured cost of one open/close pair on this host (ns), for the
  /// tracing-overhead estimate.
  static double calibrate_pair_ns();

 private:
  static std::uint64_t now_ns();
  std::vector<Span> spans_;
  std::vector<Id> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, SpanLog::Id parent)
      : log_(log), id_(log ? log->open(name, parent) : SpanLog::kNoParent) {}
  ScopedSpan(SpanLog* log, const char* name)
      : ScopedSpan(log, name, log ? log->current() : SpanLog::kNoParent) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  SpanLog::Id id() const { return id_; }

 private:
  SpanLog* log_;
  SpanLog::Id id_;
};

/// MPC work summed over decide() calls, from MpcPlanStats deltas.
struct MpcWork {
  std::uint64_t decides = 0;
  std::uint64_t plans = 0;
  std::uint64_t converged = 0;
  std::uint64_t failures = 0;
  std::uint64_t sqp_iterations = 0;
  std::uint64_t qp_iterations = 0;
  std::uint64_t solve_ns = 0;
  std::uint64_t qp_solves = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t factorizations = 0;
  std::uint64_t factorize_ns = 0;
  std::uint64_t dense_fallbacks = 0;
  std::uint64_t condensed_solves = 0;
  std::uint64_t condense_rebuilds = 0;

  /// Add the work between two snapshots of one controller's stats.
  void add_delta(const evc::core::MpcPlanStats& before,
                 const evc::core::MpcPlanStats& after);
};

/// Forwarding ClimateController decorator. Every call goes to `inner`
/// unchanged, so checkpoints and decisions are byte-identical to the
/// undecorated controller. decide() is timed; a call during which the MPC
/// tier (`mpc`, may be null) produced a plan appends its wall time to
/// plan_ms and its thread CPU time to plan_cpu_ms, in call order. With a span
/// log attached, each decide() also becomes a "ctl.decide" span under the
/// log's current span and its MpcPlanStats delta is summed into work().
class TimedController final : public evc::ctl::ClimateController {
 public:
  TimedController(evc::ctl::ClimateController& inner,
                  const evc::core::MpcClimateController* mpc, SpanLog* spans);

  std::string name() const override { return inner_.name(); }
  evc::hvac::HvacInputs decide(const evc::ctl::ControlContext& context) override;
  void reset() override { inner_.reset(); }
  evc::ctl::DecisionHealth last_health() const override {
    return inner_.last_health();
  }
  void save_state(evc::BinaryWriter& writer) const override {
    inner_.save_state(writer);
  }
  void load_state(evc::BinaryReader& reader) override {
    inner_.load_state(reader);
  }
  void fill_flight_record(evc::obs::FlightRecord& record) const override {
    inner_.fill_flight_record(record);
  }

  /// Called at the end of every decide() that produced a plan, outside its
  /// timing and its span.
  void set_after_plan(std::function<void()> hook) { after_plan_ = std::move(hook); }

  const std::vector<double>& plan_ms() const { return plan_ms_; }
  const std::vector<double>& plan_cpu_ms() const { return plan_cpu_ms_; }
  std::uint64_t decides() const { return decides_; }
  const MpcWork& work() const { return work_; }

 private:
  evc::ctl::ClimateController& inner_;
  const evc::core::MpcClimateController* mpc_;
  SpanLog* spans_;
  std::vector<double> plan_ms_;
  std::vector<double> plan_cpu_ms_;
  std::function<void()> after_plan_;
  std::uint64_t decides_ = 0;
  MpcWork work_;
};

/// Per-layer metrics derived from MPC work (core.mpc, optim, numerics).
void add_mpc_layer_metrics(RunResult& result, const MpcWork& work);

RunResult run_drive(const Args& args);
RunResult run_fleet(const Args& args);

}  // namespace perfbench
