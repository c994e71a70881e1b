#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>

namespace perfbench {

void RunResult::fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space. ru_maxrss would also
  // carry the peak of the process that forked it (the Python launcher,
  // about 7 MB), which is more than drive's own footprint.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

CpuTimes cpu_times() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double sys_cpu_frac(const CpuTimes& before, const CpuTimes& after) {
  const double user = after.user_s - before.user_s;
  const double sys = after.sys_s - before.sys_s;
  return user + sys > 0.0 ? sys / (user + sys) : 0.0;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

void pin_this_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    std::cerr << "perfbench: could not pin a thread to cpu " << cpu << "\n";
}

// --- SpanLog ---------------------------------------------------------------

SpanLog::SpanLog(std::size_t reserve) {
  spans_.reserve(reserve);
  stack_.reserve(16);
}

std::uint64_t SpanLog::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

SpanLog::Id SpanLog::open(const char* name, Id parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const Id id = static_cast<Id>(spans_.size());
  stack_.push_back(id);
  return id;
}

void SpanLog::close(Id id) {
  Span& s = spans_[id - 1];
  s.end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  if (s.parent != kNoParent) spans_[s.parent - 1].child_ns += s.end_ns - s.start_ns;
}

Sample SpanLog::durations_us(const char* name) const {
  Sample out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) out.add(duration_us(s));
  return out;
}

double SpanLog::self_sum_us(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) total += self_us(s);
  return total;
}

double SpanLog::total_us(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) total += duration_us(s);
  return total;
}

double SpanLog::calibrate_pair_ns() {
  constexpr std::size_t kPairs = 20000;
  SpanLog log(kPairs + 1);
  const Id root = log.open("calibrate", kNoParent);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kPairs; ++i) log.close(log.open("pair", root));
  const double elapsed = seconds_between(t0, Clock::now());
  log.close(root);
  return elapsed * 1e9 / static_cast<double>(kPairs);
}

// --- TimedController -------------------------------------------------------

void MpcWork::add_delta(const evc::core::MpcPlanStats& before,
                        const evc::core::MpcPlanStats& after) {
  ++decides;
  plans += after.plans - before.plans;
  converged += after.converged - before.converged;
  failures += after.failures - before.failures;
  sqp_iterations += after.sqp_iterations - before.sqp_iterations;
  qp_iterations += after.qp_iterations - before.qp_iterations;
  solve_ns += after.solve_time_ns - before.solve_time_ns;
  qp_solves += after.solver.solves - before.solver.solves;
  warm_starts += after.solver.warm_starts - before.solver.warm_starts;
  factorizations += after.solver.factorizations - before.solver.factorizations;
  factorize_ns += after.solver.factorize_time_ns - before.solver.factorize_time_ns;
  dense_fallbacks += after.solver.dense_fallbacks - before.solver.dense_fallbacks;
  condensed_solves +=
      after.solver.condensed_solves - before.solver.condensed_solves;
  condense_rebuilds +=
      after.solver.condense_rebuilds - before.solver.condense_rebuilds;
}

TimedController::TimedController(evc::ctl::ClimateController& inner,
                                 const evc::core::MpcClimateController* mpc,
                                 SpanLog* spans)
    : inner_(inner), mpc_(mpc), spans_(spans) {}

evc::hvac::HvacInputs TimedController::decide(
    const evc::ctl::ControlContext& context) {
  ++decides_;
  const bool traced = spans_ != nullptr && mpc_ != nullptr;
  evc::core::MpcPlanStats before;
  if (mpc_ != nullptr) before = mpc_->stats();
  evc::hvac::HvacInputs out;
  bool planned = false;
  {
    ScopedSpan span(traced ? spans_ : nullptr, "ctl.decide");
    const double c0 = thread_cpu_s();
    const Clock::time_point t0 = Clock::now();
    out = inner_.decide(context);
    const double s = seconds_between(t0, Clock::now());
    const double c = thread_cpu_s() - c0;
    planned = mpc_ != nullptr && mpc_->stats().plans != before.plans;
    if (planned) {
      plan_ms_.push_back(s * 1e3);
      plan_cpu_ms_.push_back(c * 1e3);
    }
    if (traced) work_.add_delta(before, mpc_->stats());
  }
  if (planned && after_plan_) after_plan_();
  return out;
}

void add_mpc_layer_metrics(RunResult& r, const MpcWork& w) {
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double plans = static_cast<double>(w.plans);
  r.add("mpc.plans", plans, "count");
  r.add("mpc.converged_frac", ratio(static_cast<double>(w.converged), plans),
        "fraction");
  r.add("mpc.sqp_iters_per_plan",
        ratio(static_cast<double>(w.sqp_iterations), plans), "count");
  r.add("optim.solve_ms_per_plan",
        ratio(static_cast<double>(w.solve_ns) * 1e-6, plans), "ms");
  r.add("optim.qp_iters_per_sqp_iter",
        ratio(static_cast<double>(w.qp_iterations),
              static_cast<double>(w.sqp_iterations)),
        "count");
  r.add("optim.warm_start_frac",
        ratio(static_cast<double>(w.warm_starts),
              static_cast<double>(w.qp_solves)),
        "fraction");
  r.add("optim.condense_hit_frac",
        ratio(static_cast<double>(w.condensed_solves - w.condense_rebuilds),
              static_cast<double>(w.condensed_solves)),
        "fraction");
  r.add("numerics.factorizations_per_plan",
        ratio(static_cast<double>(w.factorizations), plans), "count");
  r.add("numerics.factorize_ms_per_plan",
        ratio(static_cast<double>(w.factorize_ns) * 1e-6, plans), "ms");
  r.add("numerics.dense_fallbacks", static_cast<double>(w.dense_fallbacks),
        "count");
}

}  // namespace perfbench
