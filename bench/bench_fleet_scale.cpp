// Fleet-scale throughput envelope — machine-readable.
//
// Steps growing fleets of vehicles through the production session service
// (svc::SessionService) over a shared UDDS drive cycle and emits, per
// size, the vehicles/s throughput and the per-step latency quantiles as
// JSON (BENCH_fleet.json in CI):
//   { "schema": "evclimate-fleet-bench-v1", "threads": T,
//     "benches": [ {"name","vehicles","steps_per_vehicle","total_steps",
//                   "wall_ns","vehicles_per_sec",
//                   "step_p50_ns","step_p99_ns","step_max_ns"}, ... ] }
//
// The service runs with the governor off (every step runs the MPC tier),
// no deadlines, every session resident (no eviction) and its store on an
// in-memory filesystem, so the numbers cover hydrate → control step →
// checkpoint encode and scheduling, not disk traffic. Requests go out in
// waves, one step per vehicle per wave; every result must be kOk.
//
// step_p50_ns/step_p99_ns come from the svc.step_ns histogram (reset
// before each size), so they are bucket lower bounds — up to 12.5 % below
// the true sample — not exact order statistics. step_max_ns is exact.
//
// Steps per vehicle shrink as the fleet grows (the bench axis is batching
// overhead and scheduling, not trip length), and a short MPC horizon keeps
// a full sweep in CI budget. Same controller and plant stack as the paper
// benches — only the window is smaller.
//
// Flags: --out PATH        JSON artifact (default BENCH_fleet.json)
//        --max-vehicles N  caps the sweep (default 8192)
//        --steps S         overrides the per-size step schedule with a
//                          fixed count (capped at the profile length)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "drivecycle/standard_cycles.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "service_sweep.hpp"
#include "svc/session_service.hpp"
#include "util/args.hpp"
#include "util/io/mem_vfs.hpp"
#include "util/json.hpp"

using namespace evc;
using Clock = std::chrono::steady_clock;

int main(int argc, char** argv) {
  // EVC_TRACE=trace.json dumps a Chrome/Perfetto trace of this run.
  evc::obs::TraceEnvGuard trace_guard;
  const ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_fleet.json");
  const std::size_t max_vehicles =
      static_cast<std::size_t>(args.get_int("max-vehicles", 8192));
  const std::size_t steps_override =
      static_cast<std::size_t>(args.get_int("steps", 0));
  args.reject_unknown({"out", "max-vehicles", "steps"});

  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kUdds, 35.0);
  const core::EvParams params;
  // Pumps run on the helpers while this thread only submits and waits, so
  // give every core a helper.
  rt::ThreadPool pool(rt::ThreadPool::default_concurrency());

  svc::ServiceOptions options;
  options.shards = std::max<std::size_t>(pool.size() + 1, 4);
  options.queue_capacity = bench::kWave;  // a wave fits in any one shard
  options.mpc.accessory_power_w = params.vehicle.accessory_power_w;
  options.mpc.horizon = 6;  // small window: the axis is batching, not depth
  options.store.sync = svc::SyncPolicy::kNever;
  options.store.dir = "fleet";

  JsonWriter json;
  json.begin_object();
  json.key("schema").value("evclimate-fleet-bench-v1");
  json.key("threads").value(pool.size());
  json.key("benches");
  json.begin_array();

  std::uint64_t failed = 0;
  for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                              std::size_t{1024}, std::size_t{8192}}) {
    if (n > max_vehicles) continue;
    // Measurement-stable step counts: long trips for tiny fleets, short
    // ones once the vehicle count itself provides the sample mass.
    const std::size_t steps = std::min(
        profile.size(),
        steps_override != 0
            ? steps_override
            : std::max<std::size_t>(8, std::min<std::size_t>(256, 4096 / n)));

    io::MemVfs vfs;
    options.store.vfs = &vfs;
    options.resident_per_shard = n;  // every session stays hydrated
    obs::MetricsRegistry::global().reset();
    svc::SessionService service(params, profile, options, pool);

    const Clock::time_point start = Clock::now();
    std::uint64_t ok = 0;
    for (std::size_t s = 0; s < steps; ++s) ok += bench::sweep(service, n);
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    const double vehicles_per_sec =
        wall_ns > 0
            ? static_cast<double>(n) * 1e9 / static_cast<double>(wall_ns)
            : 0.0;
    const obs::HistogramSummary hist = bench::step_histogram();
    const std::uint64_t size_failed = n * steps - ok;
    failed += size_failed;

    json.begin_object();
    json.key("name").value("fleet_n" + std::to_string(n));
    json.key("vehicles").value(n);
    json.key("steps_per_vehicle").value(steps);
    json.key("total_steps").value(n * steps);
    json.key("wall_ns").value(wall_ns);
    json.key("vehicles_per_sec").value(vehicles_per_sec);
    json.key("step_p50_ns").value(hist.p50);
    json.key("step_p99_ns").value(hist.p99);
    json.key("step_max_ns").value(hist.max);
    json.end_object();
    std::cerr << "  fleet_n" << n << ": " << vehicles_per_sec
              << " vehicles/s, p99 step " << hist.p99 / 1000 << " us";
    if (size_failed > 0) std::cerr << ", " << size_failed << " not ok";
    std::cerr << "\n";
  }

  json.end_array();
  json.end_object();

  std::ofstream out(out_path);
  out << json.str() << "\n";
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << "\n";
  return failed == 0 ? 0 : 1;
}
