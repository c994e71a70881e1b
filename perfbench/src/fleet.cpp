// Workloads "fleet_mpc" and "fleet_churn": a svc::SessionService driven by
// an open-loop Poisson stream (the paced phase) and then by a saturating
// closed loop (the burst).
//
//   fleet_mpc    512 vehicles, all resident, governor off: every step runs
//                the paper's MPC tier, and the solver shares the CPU with
//                hydrate/encode on every request.
//   fleet_churn  16384 vehicles, residency capped at 1/8 of them: most
//                requests pay a store round trip. The governor's SLO is
//                out of reach, so steps run at the On/Off tier and the
//                svc/hydrate/store layers dominate.
//
// One bench thread is both generator and collector: it sends each request
// when due and polls the in-flight futures, so the service pool gets the
// other nproc - 1 cores. Latency runs from a request's due time to the
// poll that saw it complete. Speed probe units sent to the pool among the
// requests (WorkerProber) normalise the timings; see probe.hpp.
//
// The traced run replays the executed requests of a seeded sample of
// vehicles on one thread through the calls SessionService::execute makes,
// one span per call, and checks the replay against the service.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "battery/soh_model.hpp"
#include "common.hpp"
#include "probe.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/session_service.hpp"
#include "util/io/mem_vfs.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace evc;

struct FleetSpec {
  std::size_t vehicles = 0;
  double rate_rps = 0.0;  ///< paced-phase arrival rate
  bool churn = false;     ///< 1/8 residency cap and an unreachable SLO
};

constexpr std::size_t kShards = 8;
constexpr double kDeadlineS = 1.0;
constexpr double kAmbientC = 35.0;
constexpr double kPacedShare = 0.7;  ///< of --seconds; the burst gets the rest
/// Paced latencies are reported as the median over windows of this many
/// requests (at most kMaxWindows), the wall-clock burst rate as the median
/// over bins of kBurstBinS: a stall of the shared host moves one window.
constexpr std::size_t kWindowRequests = 400;
constexpr std::size_t kMaxWindows = 16;
constexpr double kBurstBinS = 0.5;
constexpr std::size_t kBurstInFlight = 64;
constexpr std::size_t kFillInFlight = 16;
/// Steps between MPC plans: MpcOptions::step_s over the 1 s sample period.
constexpr std::uint64_t kPlanEvery = 5;
constexpr std::size_t kReplayVehicles = 64;
constexpr int kSetupRepeats = 31;
/// The bench thread sleeps this long when a poll finds nothing to do. A
/// spinning generator competes with the service's workers for the cores,
/// and the stalls that caused dominated the latency tail; sleeping (with a
/// 1 us timer slack) costs tens of microseconds of resolution instead.
constexpr auto kIdleSleep = std::chrono::microseconds(20);
/// The generator has fallen behind its schedule when its median send lag
/// exceeds this. Host stalls show in the lag's tail (reported as
/// bench.gen_lag_us_p99); a generator that cannot keep the rate shows in
/// its median.
constexpr double kMaxMedianGenLagUs = 1000.0;
/// Period of the worker probe units (see WorkerProber).
constexpr auto kProbeEvery = std::chrono::milliseconds(20);

svc::ServiceOptions make_options(const FleetSpec& spec, io::Vfs* vfs) {
  svc::ServiceOptions o;
  o.shards = kShards;
  o.queue_capacity = 4096;
  o.resident_per_shard =
      spec.churn ? std::max<std::size_t>(1, spec.vehicles / 8 / kShards)
                 : spec.vehicles + 1;
  o.store.dir = "perfbench_store";
  o.store.sync = svc::SyncPolicy::kNever;
  o.store.vfs = vfs;
  if (spec.churn) {
    // As bench_service_scale: an SLO no tier meets walks the floor down to
    // On/Off within a few dozen steps and never promotes back.
    o.governor.slo_p99_s = 1e-6;
    o.governor.window = 64;
    o.governor.min_samples = 16;
    o.governor.evaluate_every = 8;
    o.governor.max_floor = 3;
    o.governor.promote_hold = std::size_t{1} << 30;
  }
  return o;
}

/// The per-vehicle simulation options SessionService::execute builds.
core::SimulationOptions vehicle_sim_options(const svc::ServiceOptions& o,
                                            std::uint64_t vehicle,
                                            const std::vector<double>* motor) {
  SplitMix64 rng(o.seed + 0x9E3779B97F4A7C15ull * vehicle);
  core::SimulationOptions s;
  s.initial_soc_percent =
      rng.uniform(o.min_initial_soc_percent, o.max_initial_soc_percent);
  s.initial_cabin_temp_c =
      rng.uniform(o.min_initial_cabin_temp_c, o.max_initial_cabin_temp_c);
  s.forecast_horizon_s = o.forecast_horizon_s;
  s.record_traces = o.record_traces;
  s.flight_recorder_capacity = o.flight_recorder_capacity;
  s.motor_power_cache = motor;
  return s;
}

void idle_until(Clock::time_point next_event) {
  const Clock::time_point now = Clock::now();
  if (next_event > now)
    std::this_thread::sleep_for(std::min<Clock::duration>(next_event - now, kIdleSleep));
}

/// Summed thread CPU time (s) of the pool's workers. One task per worker
/// reads its own clock; every task then waits until all have started, so
/// each lands on a different worker.
double pool_cpu_s(rt::ThreadPool& pool) {
  const std::size_t n = pool.size();
  std::vector<double> cpu(n, 0.0);
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> finished{0};
  for (std::size_t i = 0; i < n; ++i)
    pool.submit([&] {
      const std::size_t k = started.fetch_add(1);
      cpu[k] = thread_cpu_s();
      while (started.load() < n) std::this_thread::yield();
      finished.fetch_add(1);
    });
  while (finished.load() < n) std::this_thread::yield();
  double total = 0.0;
  for (double c : cpu) total += c;
  return total;
}

/// SpeedProbe units on the pool's workers, sent among the requests the
/// way a request is: at most one in flight, at most one per kProbeEvery. A
/// unit then meets what a request meets, other requests on the sibling
/// vCPUs included, and costs a worker about 0.25 ms per kProbeEvery.
class WorkerProber {
 public:
  WorkerProber(rt::ThreadPool& pool, Clock::time_point origin)
      : pool_(pool), origin_(origin) {}
  ~WorkerProber() { finish(); }
  WorkerProber(const WorkerProber&) = delete;
  WorkerProber& operator=(const WorkerProber&) = delete;

  /// Collects the unit in flight if it is done, then sends the next one
  /// if none is in flight and one is due.
  void poll(Clock::time_point now) {
    if (pending_ && pending_->wait_for(std::chrono::seconds(0)) ==
                        std::future_status::ready)
      collect();
    if (!pending_ && now - last_sent_ >= kProbeEvery) {
      auto done = std::make_shared<std::promise<std::pair<double, double>>>();
      pending_ = done->get_future();
      pending_sent_s_ = seconds_between(origin_, now);
      last_sent_ = now;
      pool_.submit([done, this] {
        const double c0 = thread_cpu_s();
        const double ms = probe_.run();
        done->set_value({ms, thread_cpu_s() - c0});
      });
    }
  }
  /// Waits for the unit in flight.
  void finish() {
    if (pending_) collect();
  }

  std::vector<double> sent_s;   ///< when each unit was sent, s after origin
  std::vector<double> unit_ms;  ///< each unit's timed pass
  double cpu_s = 0.0;           ///< worker CPU time all units took
  double sink() const { return probe_.sink(); }

 private:
  void collect() {
    const auto [ms, cpu] = pending_->get();
    pending_.reset();
    sent_s.push_back(pending_sent_s_);
    unit_ms.push_back(ms);
    cpu_s += cpu;
  }

  rt::ThreadPool& pool_;
  Clock::time_point origin_;
  SpeedProbe probe_;
  std::optional<std::future<std::pair<double, double>>> pending_;
  double pending_sent_s_ = 0.0;
  Clock::time_point last_sent_{};
};

enum class Phase : std::uint8_t { kWarmup, kFill, kPaced, kBurst };

/// One executed step of a sampled vehicle, as the service reported it.
struct Executed {
  std::uint64_t order = 0;  ///< submission order
  std::size_t floor = 0;
  std::size_t tier = 0;
  std::uint64_t step = 0;
  bool created = false;
  double cabin_c = 0.0;
  double soc = 0.0;
  double hvac_w = 0.0;
};

/// A paced-phase step's output, kept for the quality metrics.
struct PacedOut {
  bool ok = false;
  double latency_ms = 0.0;  ///< due -> observed completion
  double cabin_c = 0.0;
  double soc = 0.0;
  double hvac_w = 0.0;
};

/// Sends requests and collects their results on the calling thread.
class Client {
 public:
  Client(svc::SessionService& service, std::vector<char> sampled)
      : service_(service), sampled_(std::move(sampled)) {}

  void submit(std::uint64_t vehicle, Phase phase, Clock::time_point due,
              std::size_t paced_index = 0) {
    const bool timed = phase == Phase::kPaced || phase == Phase::kBurst;
    Pending p;
    p.deadline_s = timed ? kDeadlineS : 0.0;
    p.vehicle = vehicle;
    p.phase = phase;
    p.due = due;
    p.order = next_order_++;
    p.paced_index = paced_index;
    if (timed) ledger.attempt();
    const Clock::time_point t0 = Clock::now();
    p.future = service_.submit_step(vehicle, p.deadline_s);
    if (timed) submit_us.add(seconds_between(t0, Clock::now()) * 1e6);
    pending_.push_back(std::move(p));
  }

  /// Check every in-flight request once; returns how many completed.
  std::size_t poll() {
    const Clock::time_point now = Clock::now();
    if (timing_polls_ && last_poll_ != Clock::time_point{})
      poll_gaps_.observe(poll_gap_id_,
                         static_cast<std::uint64_t>(
                             std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 now - last_poll_).count()));
    last_poll_ = now;
    std::size_t done = 0;
    for (std::size_t i = 0; i < pending_.size();) {
      if (pending_[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(pending_[i], now);
        pending_[i] = std::move(pending_.back());
        pending_.pop_back();
        ++done;
      } else {
        ++i;
      }
    }
    return done;
  }

  void drain() {
    while (!pending_.empty())
      if (poll() == 0) idle_until(Clock::now() + kIdleSleep);
  }

  std::size_t in_flight() const { return pending_.size(); }
  void set_timing_polls(bool on) {
    timing_polls_ = on;
    last_poll_ = {};
  }
  void set_burst_window(Clock::time_point start, std::size_t bins) {
    burst_start_ = start;
    burst_bins.assign(bins, 0.0);
  }
  void resize_paced(std::size_t n) { paced.assign(n, PacedOut{}); }

  OutcomeLedger ledger;
  Sample submit_us;
  /// p99 gap between polls (us): the resolution of observed completions.
  double poll_us_p99() const {
    for (const obs::MetricValue& m : poll_gaps_.snapshot().metrics)
      if (m.name == "poll_gap_ns") return static_cast<double>(m.histogram.p99) * 1e-3;
    return 0.0;
  }
  std::vector<PacedOut> paced;
  std::map<std::uint64_t, std::vector<Executed>> sampled_steps;
  std::vector<double> burst_bins;  ///< OK completions per kBurstBinS
  std::uint64_t burst_ok = 0;
  std::uint64_t timed_ok = 0;
  std::uint64_t timed_tier0 = 0;
  std::uint64_t untimed_failures = 0;

 private:
  struct Pending {
    std::future<svc::StepResult> future;
    std::uint64_t vehicle = 0;
    Phase phase = Phase::kPaced;
    Clock::time_point due;
    std::uint64_t order = 0;
    std::size_t paced_index = 0;
    double deadline_s = 0.0;  ///< 0 = none (set-up traffic)
  };

  void complete(Pending& p, Clock::time_point now) {
    svc::StepResult r;
    bool errored = false;
    try {
      r = p.future.get();
    } catch (...) {
      errored = true;
    }
    const double latency_s = seconds_between(p.due, now);
    Outcome outcome = Outcome::kErrored;
    if (!errored) {
      switch (r.status) {
        case svc::StepStatus::kOk:
          outcome = r.deadline_missed ||
                            (p.deadline_s > 0.0 && latency_s > p.deadline_s)
                        ? Outcome::kLate
                        : Outcome::kOk;
          break;
        case svc::StepStatus::kRejected: outcome = Outcome::kRejected; break;
        case svc::StepStatus::kShed: outcome = Outcome::kShed; break;
        case svc::StepStatus::kFinished: outcome = Outcome::kFinished; break;
      }
    }
    const bool executed = !errored && r.status == svc::StepStatus::kOk;
    if (p.phase == Phase::kPaced || p.phase == Phase::kBurst) {
      ledger.record(outcome);
      if (executed) {
        ++timed_ok;
        if (r.applied_tier == 0) ++timed_tier0;
      }
    } else if (outcome != Outcome::kOk) {
      ++untimed_failures;
    }
    if (p.phase == Phase::kPaced) {
      PacedOut& out = paced[p.paced_index];
      // A failed request counts as missing the deadline.
      out.latency_ms = 1e3 * (outcome == Outcome::kOk
                                  ? latency_s
                                  : std::max(latency_s, kDeadlineS));
      if (executed) {
        out.ok = true;
        out.cabin_c = r.cabin_temp_c;
        out.soc = r.soc_percent;
        out.hvac_w = r.hvac_power_w;
      }
    }
    if (p.phase == Phase::kBurst && outcome == Outcome::kOk) {
      ++burst_ok;
      const double bin = seconds_between(burst_start_, now) / kBurstBinS;
      if (bin >= 0.0 && bin < static_cast<double>(burst_bins.size()))
        burst_bins[static_cast<std::size_t>(bin)] += 1.0;
    }
    if (executed && p.vehicle < sampled_.size() && sampled_[p.vehicle])
      sampled_steps[p.vehicle].push_back({p.order, r.tier_floor, r.applied_tier,
                                      r.step_index, r.created, r.cabin_temp_c,
                                      r.soc_percent, r.hvac_power_w});
  }

  svc::SessionService& service_;
  std::vector<char> sampled_;
  /// One gap per poll over the whole run: a bucketed histogram keeps it
  /// bounded.
  obs::MetricsRegistry poll_gaps_;
  obs::MetricsRegistry::Id poll_gap_id_ = poll_gaps_.histogram("poll_gap_ns");
  std::vector<Pending> pending_;
  std::uint64_t next_order_ = 0;
  bool timing_polls_ = false;
  Clock::time_point last_poll_{};
  Clock::time_point burst_start_{};
};

std::uint64_t counter(const obs::MetricsSnapshot& snap, const char* name) {
  for (const obs::MetricValue& m : snap.metrics)
    if (m.name == name) return m.counter;
  return 0;
}

obs::HistogramSummary histogram(const obs::MetricsSnapshot& snap,
                                const char* name) {
  for (const obs::MetricValue& m : snap.metrics)
    if (m.name == name) return m.histogram;
  return {};
}

/// Single-threaded replay of the sampled vehicles' executed steps through
/// the calls SessionService::execute makes, with one span per call and a
/// request span as their parent. Checks each replayed step against the
/// service's result and the final checkpoints against the service's store.
void replay(const core::EvParams& params, const drive::DriveProfile& profile,
            const svc::ServiceOptions& options,
            std::map<std::uint64_t, std::vector<Executed>>& executed,
            svc::SessionService& service, RunResult& result) {
  io::MemVfs vfs;
  svc::SessionStoreOptions store_options;
  store_options.dir = "perfbench_replay";
  store_options.sync = svc::SyncPolicy::kNever;
  store_options.vfs = &vfs;
  svc::SessionStore store(store_options);
  auto controller = core::make_supervised_mpc_controller(
      params, options.mpc, options.supervisor);
  const auto* mpc =
      dynamic_cast<const core::MpcClimateController*>(&controller->tier(0));
  SpanLog spans;
  TimedController timed(*controller, mpc, &spans);
  const std::vector<double> motor = core::precompute_motor_power(params, profile);

  Sample blob_bytes;
  std::uint64_t steps = 0, mismatches = 0;
  std::map<std::uint64_t, std::string> last_blob;
  std::map<std::uint64_t, bool> ran_solver;
  for (auto& [vehicle, steps_of_vehicle] : executed) {
    std::sort(steps_of_vehicle.begin(), steps_of_vehicle.end(),
              [](const Executed& a, const Executed& b) { return a.order < b.order; });
    for (const Executed& rec : steps_of_vehicle) {
      ScopedSpan request(&spans, "replay.request", SpanLog::kNoParent);
      std::optional<std::string> loaded;
      {
        ScopedSpan s(&spans, "store.load");
        loaded = store.load(vehicle);
      }
      std::optional<core::SimulationSession> session;
      {
        ScopedSpan s(&spans, "hydrate");
        session.emplace(params, timed, profile,
                        vehicle_sim_options(options, vehicle, &motor));
        if (loaded) session->restore(*loaded);
        controller->set_tier_floor(rec.floor);
      }
      const std::uint64_t step_index = session->step_index();
      {
        ScopedSpan s(&spans, "control.advance");
        session->advance();
      }
      if (loaded.has_value() == rec.created || step_index != rec.step ||
          controller->last_applied_tier() != rec.tier ||
          session->cabin_temp_c() != rec.cabin_c ||
          session->soc_percent() != rec.soc ||
          session->last_hvac_power_w() != rec.hvac_w)
        ++mismatches;
      if (rec.tier <= 1) ran_solver[vehicle] = true;
      std::string blob;
      {
        ScopedSpan s(&spans, "checkpoint.encode");
        blob = session->checkpoint();
      }
      blob_bytes.add(static_cast<double>(blob.size()));
      {
        ScopedSpan s(&spans, "store.persist");
        store.persist(vehicle, session->step_index(), blob);
      }
      last_blob[vehicle] = std::move(blob);
      ++steps;
    }
  }
  if (mismatches != 0)
    result.fail("replay: " + std::to_string(mismatches) + " of " +
                std::to_string(steps) + " steps differ from the service");

  // The service's checkpoints of the sampled vehicles must equal the
  // replay's byte for byte. A vehicle that ever planned with an MPC tier
  // carries wall-clock solve times in its checkpoint (MpcPlanStats and the
  // flight ring), which no two executions share; for those the check is an
  // equal size plus a lossless restore -> checkpoint round trip.
  service.persist_all();
  std::size_t byte_equal = 0, round_trips = 0;
  for (const auto& [vehicle, blob] : last_blob) {
    const std::optional<std::string> stored = service.store().load(vehicle);
    if (!stored) {
      result.fail("replay: service store has no checkpoint of vehicle " +
                  std::to_string(vehicle));
      continue;
    }
    if (!ran_solver[vehicle]) {
      if (*stored != blob)
        result.fail("replay: checkpoint of vehicle " + std::to_string(vehicle) +
                    " differs from the service's");
      ++byte_equal;
      continue;
    }
    core::SimulationSession session(
        params, timed, profile, vehicle_sim_options(options, vehicle, &motor));
    session.restore(*stored);
    if (stored->size() != blob.size() || session.checkpoint() != *stored)
      result.fail("replay: checkpoint of vehicle " + std::to_string(vehicle) +
                  " does not round-trip or differs in size");
    ++round_trips;
  }
  result.fact("replay_vehicles", std::to_string(last_blob.size()));
  result.fact("replay_steps", std::to_string(steps));
  result.fact("replay_blobs_byte_equal", std::to_string(byte_equal));
  result.fact("replay_blobs_round_trip", std::to_string(round_trips));

  add_mpc_layer_metrics(result, timed.work());
  const double step_count = static_cast<double>(std::max<std::uint64_t>(steps, 1));
  result.add("sim.plant_us_per_step",
             spans.self_sum_us("control.advance") / step_count, "us");
  result.add("hydrate.us_p50", spans.durations_us("hydrate").percentile(0.5), "us");
  result.add("checkpoint.encode_us_p50",
             spans.durations_us("checkpoint.encode").percentile(0.5), "us");
  result.add("checkpoint.blob_bytes", blob_bytes.percentile(0.5), "bytes");
  Sample persist = spans.durations_us("store.persist");
  if (!persist.supports(0.99))
    result.fail("replay: too few persists for a p99 (" +
                std::to_string(persist.size()) + ")");
  result.add("store.persist_us_p50", persist.percentile(0.5), "us");
  result.add("store.persist_us_p99", persist.percentile(0.99), "us");
  result.add("store.load_us_p50", spans.durations_us("store.load").percentile(0.5),
             "us");
  const double request_us = spans.total_us("replay.request");
  result.add("bench.unattributed_frac",
             spans.self_sum_us("replay.request") / request_us, "fraction");
  result.add("bench.trace_overhead_frac",
             static_cast<double>(spans.size()) * SpanLog::calibrate_pair_ns() *
                 1e-3 / request_us,
             "fraction");
}

}  // namespace

RunResult run_fleet(const Args& args) {
  FleetSpec spec;
  if (args.workload == "fleet_mpc") {
    spec = {512, 128.0, false};
  } else {
    spec = {16384, 8192.0, true};
  }
  RunResult result;
  // Short sleeps of the bench thread must wake on time (see kIdleSleep).
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  // The bench thread (generator + collector) counts against the CPUs too.
  // Threads are not pinned: a pinned worker cannot leave a vCPU the host
  // has stalled, and the latency tail got far worse when they were.
  const std::size_t workers =
      std::max<std::size_t>(1, allowed_cpus().size() - 1);

  const core::EvParams params;
  const drive::DriveProfile profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, kAmbientC);

  // Set-up: thread pool, storage and service construction, several times,
  // each normalised by probe units on the bench thread around it.
  SpeedProbe bench_probe;
  std::vector<double> setup_s;
  std::unique_ptr<rt::ThreadPool> pool;
  std::unique_ptr<io::MemVfs> vfs;
  std::unique_ptr<svc::SessionService> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    pool.reset();
    vfs.reset();
    const double before_ms = bench_probe.run();
    const Clock::time_point t0 = Clock::now();
    pool = std::make_unique<rt::ThreadPool>(workers);
    vfs = std::make_unique<io::MemVfs>();
    service = std::make_unique<svc::SessionService>(
        params, profile, make_options(spec, vfs.get()), *pool);
    const double took_s = seconds_between(t0, Clock::now());
    setup_s.push_back(took_s / slowdown({before_ms, bench_probe.run()}));
  }
  const svc::ServiceOptions& options = service->options();

  // Hash the seed first: SplitMix64 states one increment apart would give
  // the same stream shifted by one draw.
  SplitMix64 rng(SplitMix64(args.seed).next_u64());
  std::vector<char> sampled;
  if (args.trace) {
    sampled.assign(spec.vehicles, 0);
    std::size_t picked = 0;
    while (picked < std::min(kReplayVehicles, spec.vehicles)) {
      const std::uint64_t v = rng.next_u64() % spec.vehicles;
      if (!sampled[v]) {
        sampled[v] = 1;
        ++picked;
      }
    }
  }
  Client client(*service, sampled);

  // Warm-up (fleet_churn): vehicles outside the population step until the
  // governor has walked the floor down to On/Off, so the population itself
  // never runs a solver tier.
  if (spec.churn) {
    std::uint64_t next = std::uint64_t{1} << 40;
    const std::uint64_t limit = next + 20000;
    while (service->governor_stats().demotions < options.governor.max_floor &&
           next < limit) {
      while (client.in_flight() < 8) client.submit(next++, Phase::kWarmup, Clock::now());
      if (client.poll() == 0) idle_until(Clock::now() + kIdleSleep);
    }
    client.drain();
    if (service->governor_stats().demotions < options.governor.max_floor)
      result.fail("fleet: governor did not reach the On/Off floor");
  }

  // Fill: creates every session. Vehicle v takes 1 + v % kPlanEvery
  // steps, which staggers the replanning instants (every kPlanEvery steps
  // under the default MPC options): the paced phase steps every vehicle
  // once per round, and without the stagger whole rounds would plan at
  // once.
  const Clock::time_point fill_t0 = Clock::now();
  for (std::uint64_t v = 0, k = 0; v < spec.vehicles;) {
    while (v < spec.vehicles && client.in_flight() < kFillInFlight) {
      client.submit(v, Phase::kFill, Clock::now());
      if (++k > v % kPlanEvery) {
        ++v;
        k = 0;
      }
    }
    if (client.poll() == 0) idle_until(Clock::now() + kIdleSleep);
  }
  client.drain();
  service->drain();
  const double fill_s = seconds_between(fill_t0, Clock::now());
  if (client.untimed_failures != 0)
    result.fail("fleet: " + std::to_string(client.untimed_failures) +
                " warm-up/fill requests failed");

  // Paced phase schedule: Poisson arrivals. Vehicles are drawn uniformly
  // without replacement in rounds (a fresh shuffle of the population per
  // round), so replanning instants spread out in time while every
  // complete round steps each vehicle exactly once. The quality metrics
  // use complete rounds only, which makes them the same for every seed.
  const double paced_s = kPacedShare * args.seconds;
  const std::size_t burst_bins = std::max<std::size_t>(
      1, static_cast<std::size_t>((args.seconds - paced_s) / kBurstBinS));
  const double burst_s = static_cast<double>(burst_bins) * kBurstBinS;
  std::vector<double> due_s;
  std::vector<std::uint64_t> due_vehicle;
  std::vector<std::uint64_t> round(spec.vehicles);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / spec.rate_rps;
    if (t >= paced_s) break;
    const std::size_t slot = due_s.size() % spec.vehicles;
    if (slot == 0) {
      for (std::size_t i = 0; i < round.size(); ++i) round[i] = i;
      for (std::size_t i = round.size() - 1; i > 0; --i)
        std::swap(round[i], round[rng.next_u64() % (i + 1)]);
    }
    due_s.push_back(t);
    due_vehicle.push_back(round[slot]);
  }
  // A fixed number of rounds (those that fit in 90 % of the expected
  // requests, which the Poisson draw of any seed covers) keeps the
  // quality set the same.
  const std::size_t quality_requests =
      static_cast<std::size_t>(0.9 * spec.rate_rps * paced_s /
                               static_cast<double>(spec.vehicles)) *
      spec.vehicles;
  if (quality_requests == 0 || quality_requests > due_s.size())
    result.fail("fleet: the paced phase does not cover the quality rounds");
  client.resize_paced(due_s.size());

  obs::MetricsRegistry::global().reset();
  const svc::ServiceStats s0 = service->stats();
  const CpuTimes cpu0 = cpu_times();
  client.set_timing_polls(true);

  Sample gen_lag_us;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  WorkerProber paced_probes(*pool, t0);
  auto due_at = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[i]));
  };
  for (std::size_t next = 0; next < due_s.size() || client.in_flight() > 0;) {
    Clock::time_point now = Clock::now();
    while (next < due_s.size() && due_at(next) <= now) {
      gen_lag_us.add(seconds_between(due_at(next), now) * 1e6);
      client.submit(due_vehicle[next], Phase::kPaced, due_at(next), next);
      ++next;
      now = Clock::now();
    }
    paced_probes.poll(now);
    if (client.poll() == 0)
      idle_until(next < due_s.size() ? due_at(next) : Clock::now() + kIdleSleep);
  }
  paced_probes.finish();

  service->drain();
  // The svc.* histograms below describe the paced phase only.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();

  // Burst: a closed loop of kBurstInFlight outstanding requests.
  const double workers_cpu0 = pool_cpu_s(*pool);
  const Clock::time_point burst_t0 = Clock::now();
  WorkerProber burst_probes(*pool, burst_t0);
  const Clock::time_point burst_end =
      burst_t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(burst_s));
  client.set_burst_window(burst_t0, burst_bins);
  for (Clock::time_point now = burst_t0; now < burst_end; now = Clock::now()) {
    while (client.in_flight() < kBurstInFlight)
      client.submit(rng.next_u64() % spec.vehicles, Phase::kBurst, Clock::now());
    burst_probes.poll(now);
    if (client.poll() == 0) idle_until(burst_end);
  }
  client.drain();
  burst_probes.finish();
  client.set_timing_polls(false);
  service->drain();
  const double burst_cpu_s = pool_cpu_s(*pool) - workers_cpu0;
  const CpuTimes cpu1 = cpu_times();
  const svc::ServiceStats s1 = service->stats();

  std::vector<double> latency_ms;
  latency_ms.reserve(client.paced.size());
  for (const PacedOut& o : client.paced) latency_ms.push_back(o.latency_ms);
  const std::size_t windows = std::clamp<std::size_t>(
      latency_ms.size() / kWindowRequests, 1, kMaxWindows);
  // Each latency window is normalised by the worker probe units taken
  // while its requests were due (by the whole phase's if it had none), in
  // the same slices windowed_percentile() makes.
  std::vector<double> norm_latency_ms(latency_ms.size());
  const std::size_t per_window = latency_ms.size() / windows;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t first = w * per_window;
    const std::size_t last =
        w + 1 == windows ? latency_ms.size() : first + per_window;
    std::vector<double> units;
    for (std::size_t r = 0; r < paced_probes.sent_s.size(); ++r)
      if (paced_probes.sent_s[r] >= due_s[first] &&
          paced_probes.sent_s[r] <= due_s[last - 1])
        units.push_back(paced_probes.unit_ms[r]);
    const double window_slow =
        slowdown(units.empty() ? paced_probes.unit_ms : units);
    for (std::size_t i = first; i < last; ++i)
      norm_latency_ms[i] = latency_ms[i] / window_slow;
  }
  const double burst_slow = slowdown(burst_probes.unit_ms);

  // Output checks.
  const OutcomeLedger& ledger = client.ledger;
  if (!ledger.balanced())
    result.fail("fleet: " + std::to_string(ledger.attempted()) +
                " requests attempted, " + std::to_string(ledger.resolved()) +
                " resolved");
  if (ledger.count(Outcome::kFinished) != 0)
    result.fail("fleet: vehicles reached kFinished during a timed phase");
  if (s1.submitted - s0.submitted != ledger.attempted())
    result.fail("fleet: service counted " +
                std::to_string(s1.submitted - s0.submitted) +
                " submissions, the generator " +
                std::to_string(ledger.attempted()));
  if (!percentile_supported(latency_ms.size() / windows, 0.95))
    result.fail("fleet: too few paced requests for a p95 per window");
  const double gen_lag_p50 = gen_lag_us.percentile(0.50);
  const double gen_lag_p99 = gen_lag_us.percentile(0.99);
  if (gen_lag_p50 > kMaxMedianGenLagUs)
    result.fail("fleet: run invalid, the generator fell behind its schedule "
                "(median lag " + std::to_string(gen_lag_p50) + " us)");

  result.attempted = ledger.attempted();
  result.failed = ledger.failed();
  result.fact("store_fs", "memvfs");
  result.fact("workers", std::to_string(workers));
  result.fact("paced_requests", std::to_string(due_s.size()));
  result.fact("latency_windows", std::to_string(windows));
  result.fact("sat_rps", std::to_string(median(client.burst_bins) / kBurstBinS));
  result.fact("lat_p99_ms",
              percentile_supported(latency_ms.size(), 0.99)
                  ? std::to_string(windowed_percentile(latency_ms, 0.99, 1))
                  : "too few samples");
  result.fact("fill_s", std::to_string(fill_s));
  result.fact("raw_lat_p50_ms",
              std::to_string(windowed_percentile(latency_ms, 0.50, windows)));
  result.fact("raw_lat_tail_ms",
              std::to_string(windowed_percentile(latency_ms, 0.95, windows)));
  result.fact("raw_steps_per_cpu_s",
              std::to_string(static_cast<double>(client.burst_ok) /
                             (burst_cpu_s - burst_probes.cpu_s)));
  result.fact("probe_units", std::to_string(paced_probes.unit_ms.size()));
  result.fact("probe_slowdown",
              std::to_string(slowdown(paced_probes.unit_ms)));
  result.fact("burst_probe_units",
              std::to_string(burst_probes.unit_ms.size()));
  result.fact("burst_probe_slowdown", std::to_string(burst_slow));
  result.fact("probe_sink",
              std::to_string(paced_probes.sink() + burst_probes.sink() +
                             bench_probe.sink()));
  result.fact("completion",
              "future polled by the generator thread, resolution p99 " +
                  std::to_string(client.poll_us_p99()) + " us");

  if (!args.trace) {
    // Quality over the paced phase, in schedule order so it is exact.
    const bat::SohModel soh_model(params.battery);
    std::vector<std::vector<double>> soc(spec.vehicles);
    double hvac_j = 0.0, sq_err = 0.0;
    std::size_t ok = 0;
    for (std::size_t i = 0; i < quality_requests; ++i) {
      const PacedOut& o = client.paced[i];
      if (!o.ok) continue;
      soc[due_vehicle[i]].push_back(o.soc);
      hvac_j += o.hvac_w * profile.dt();
      const double err = o.cabin_c - params.hvac.target_temp_c;
      sq_err += err * err;
      ++ok;
    }
    double soh = 0.0;
    std::size_t soh_n = 0;
    for (const std::vector<double>& trace : soc) {
      if (trace.size() < 2) continue;
      soh += soh_model.delta_soh_of_trace(trace);
      ++soh_n;
    }
    result.add("setup_s", median(setup_s), "s");
    result.add("rss_mb", peak_rss_mb(), "MB");
    result.add("lat_p50_ms",
               windowed_percentile(norm_latency_ms, 0.50, windows), "ms");
    result.add("lat_tail_ms",
               windowed_percentile(norm_latency_ms, 0.95, windows), "ms");
    result.add("steps_per_cpu_s",
               static_cast<double>(client.burst_ok) * burst_slow /
                   (burst_cpu_s - burst_probes.cpu_s),
               "1/s");
    result.add("ok_frac", ledger.ok_frac(), "fraction");
    result.add("soh_loss_pct", soh_n ? soh / static_cast<double>(soh_n) : 0.0, "%");
    result.add("hvac_kwh", hvac_j / 3.6e6 / static_cast<double>(spec.vehicles),
               "kWh");
    result.add("comfort_rms_c", ok ? std::sqrt(sq_err / static_cast<double>(ok)) : 0.0,
               "C");
    return result;
  }

  const double steps = static_cast<double>(std::max<std::uint64_t>(s1.steps - s0.steps, 1));
  result.add("control.tier0_frac",
             client.timed_ok ? static_cast<double>(client.timed_tier0) /
                                    static_cast<double>(client.timed_ok)
                              : 0.0,
             "fraction");
  result.add("svc.submit_us_p50", client.submit_us.percentile(0.5), "us");
  result.add("svc.queue_wait_us_p99",
             static_cast<double>(histogram(snap, "svc.queue_wait_ns").p99) * 1e-3,
             "us");
  const obs::HistogramSummary step_ns = histogram(snap, "svc.step_ns");
  result.add("svc.step_us_p50", static_cast<double>(step_ns.p50) * 1e-3, "us");
  result.add("svc.step_us_p99", static_cast<double>(step_ns.p99) * 1e-3, "us");
  result.add("svc.resident_hit_frac",
             static_cast<double>((s1.steps - s0.steps) - (s1.restores - s0.restores) -
                                 (s1.creates - s0.creates)) /
                 steps,
             "fraction");
  result.add("svc.evictions_per_req",
             static_cast<double>(s1.evictions - s0.evictions) /
                 static_cast<double>(ledger.attempted()),
             "count");
  result.add("svc.rejected", static_cast<double>(s1.rejected - s0.rejected), "count");
  result.add("svc.shed", static_cast<double>(s1.shed - s0.shed), "count");
  result.add("svc.deadline_misses",
             static_cast<double>(s1.deadline_misses - s0.deadline_misses), "count");
  if (counter(obs::MetricsRegistry::global().snapshot(), "svc.step") !=
      s1.steps - s0.steps)
    result.fail("fleet: registry svc.step disagrees with ServiceStats");
  result.add("proc.sys_cpu_frac", sys_cpu_frac(cpu0, cpu1), "fraction");
  result.add("bench.gen_lag_us_p99", gen_lag_p99, "us");
  result.add("bench.poll_us_p99", client.poll_us_p99(), "us");

  replay(params, profile, options, client.sampled_steps, *service, result);
  return result;
}

}  // namespace perfbench
