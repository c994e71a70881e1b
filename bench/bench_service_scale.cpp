// Service scale — request throughput with a large resident session
// population (BENCH_service.json, gated by tools/check_bench.py).
//
// Three measured phases, emitted in the evclimate-solver-bench-v1 schema
// so the host-normalized perf gate can watch them:
//
//   svc_fill_step           first step of every vehicle: session creation,
//                           checkpoint, LRU insertion — the cold path;
//   svc_steady_step         steady-state steps over the full resident
//                           population (warm blobs, no storage traffic);
//   svc_evict_restore_step  steps through a deliberately tiny residency
//                           cap so every request pays a store round trip
//                           (persist + load) on top of the step.
//
// The artifact also records the service counters (admit/reject/shed/
// evict/restore, svc.step_ns p50/p99).
//
// Flags: --vehicles N  resident sessions (default 100000)
//        --waves N     steady-state full-population sweeps (default 2)
//        --config PATH service-config JSON overlay (svc::apply_service_config_json)
//        --out PATH    JSON artifact (default BENCH_service.json)
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "service_sweep.hpp"
#include "core/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/config.hpp"
#include "svc/session_service.hpp"
#include "util/args.hpp"
#include "util/expect.hpp"
#include "util/json.hpp"

namespace {

using namespace evc;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

void write_bench(JsonWriter& json, const std::string& name, std::uint64_t reps,
                 std::uint64_t wall_ns) {
  json.begin_object();
  json.key("name").value(name);
  json.key("reps").value(reps);
  json.key("wall_ns").value(wall_ns);
  json.key("ns_per_rep").value(wall_ns / (reps > 0 ? reps : 1));
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  // EVC_TRACE=trace.json dumps a Chrome/Perfetto trace of this run.
  evc::obs::TraceEnvGuard trace_guard;
  std::size_t vehicles = 0;
  std::size_t waves = 0;
  std::string out_path;
  std::string config_path;
  bench::parse_flags(
      argc, argv, {"vehicles", "waves", "config", "out"},
      [&](const ArgParser& args) {
        vehicles = static_cast<std::size_t>(args.get_int("vehicles", 100000));
        waves = static_cast<std::size_t>(args.get_int("waves", 2));
        out_path = args.get_string("out", "BENCH_service.json");
        config_path = args.get_string("config", "");
      });

  const core::EvParams params;
  const drive::DriveProfile profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc,
                                bench::kDefaultAmbientC)
          .window(0, 32);
  // Real workers even on single-core hosts (the global pool would execute
  // inline there and serialize the whole bench through the client thread).
  rt::ThreadPool pool(
      std::max<std::size_t>(3, rt::ThreadPool::default_concurrency() - 1));

  svc::ServiceOptions options;
  options.shards = std::max<std::size_t>(pool.size() + 1, 4);
  options.queue_capacity = 2048;
  // Whole population stays hydrated regardless of how unevenly the ids
  // hash across shards.
  options.resident_per_shard = vehicles + 1;
  options.store.dir = "service_scale_store";
  options.store.sync = svc::SyncPolicy::kNever;
  options.mpc.accessory_power_w = params.vehicle.accessory_power_w;
  options.mpc.horizon = 6;  // throughput bench, not solve-depth bench
  // This bench measures the *service layer* — hydration, the checkpoint
  // round trip, LRU bookkeeping, store traffic, scheduling — not MPC
  // solve depth (bench_solver_perf owns that). An unreachable SLO makes
  // the governor demote to the cheap control tiers right after its
  // sampling warm-up, which is what makes a 100k-session population
  // fillable in CI time.
  options.governor.slo_p99_s = 1e-6;
  options.governor.window = 64;
  options.governor.min_samples = 16;
  options.governor.evaluate_every = 8;
  options.governor.max_floor = 3;
  options.governor.promote_hold = 1u << 30;  // never promote back
  // Operator overlay last, so a --config file wins over the bench defaults.
  if (!config_path.empty()) {
    std::ifstream in(config_path);
    EVC_EXPECT(static_cast<bool>(in), "cannot read --config " + config_path);
    const std::string config_json{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
    svc::apply_service_config_json(options, config_json);
  }
  std::filesystem::remove_all(options.store.dir);

  svc::SessionService service(params, profile, options, pool);
  std::cerr << "  filling " << vehicles << " sessions across "
            << options.shards << " shards on " << (pool.size() + 1)
            << " thread(s)...\n";

  const Clock::time_point fill_start = Clock::now();
  const std::uint64_t fill_ok = bench::sweep(service, vehicles);
  const std::uint64_t fill_ns = ns_since(fill_start);
  const bool fill_complete =
      fill_ok == vehicles && service.stats().in_memory == vehicles;
  if (!fill_complete)
    std::cerr << "  fill incomplete: " << fill_ok << " ok, "
              << service.stats().in_memory << " resident\n";

  std::cerr << "  steady-state: " << waves << " sweep(s) over the resident "
            << "population...\n";
  const Clock::time_point steady_start = Clock::now();
  std::uint64_t steady_ok = 0;
  for (std::size_t w = 0; w < waves; ++w)
    steady_ok += bench::sweep(service, vehicles);
  const std::uint64_t steady_ns = ns_since(steady_start);
  const std::uint64_t steady_reps =
      static_cast<std::uint64_t>(waves) * vehicles;
  const double steady_rps =
      steady_reps > 0 && steady_ns > 0
          ? 1e9 * static_cast<double>(steady_ok) /
                static_cast<double>(steady_ns)
          : 0.0;

  // Churn phase: a second service whose residency cap is tiny relative to
  // its population, so every step round-trips through the store.
  svc::ServiceOptions churn_options = options;
  churn_options.store.dir = "service_scale_churn";
  churn_options.resident_per_shard = 8;
  std::filesystem::remove_all(churn_options.store.dir);
  const std::size_t churn_vehicles = 2048;
  const std::size_t churn_sweeps = 3;
  std::uint64_t churn_ns = 0;
  svc::ServiceStats churn_stats;
  {
    svc::SessionService churn(params, profile, churn_options, pool);
    std::cerr << "  eviction churn: " << churn_vehicles << " vehicles through "
              << churn_options.resident_per_shard << "-deep shards...\n";
    const Clock::time_point churn_start = Clock::now();
    for (std::size_t s = 0; s < churn_sweeps; ++s)
      bench::sweep(churn, churn_vehicles);
    churn_ns = ns_since(churn_start);
    churn_stats = churn.stats();
  }

  const svc::ServiceStats stats = service.stats();
  const obs::HistogramSummary hist = bench::step_histogram();

  JsonWriter json;
  json.begin_object();
  json.key("schema").value("evclimate-solver-bench-v1");
  json.key("bench").value("service_scale");
  json.key("vehicles").value(vehicles);
  json.key("resident_sessions").value(stats.in_memory);
  json.key("steady_requests_per_s").value(steady_rps);
  json.key("benches");
  json.begin_array();
  write_bench(json, "svc_fill_step", vehicles, fill_ns);
  write_bench(json, "svc_steady_step", steady_reps, steady_ns);
  write_bench(json, "svc_evict_restore_step",
              static_cast<std::uint64_t>(churn_sweeps) * churn_vehicles,
              churn_ns);
  json.end_array();
  json.key("service");
  json.begin_object();
  json.key("submitted").value(stats.submitted);
  json.key("admitted").value(stats.admitted);
  json.key("rejected").value(stats.rejected);
  json.key("shed").value(stats.shed);
  json.key("steps").value(stats.steps);
  json.key("deadline_misses").value(stats.deadline_misses);
  json.key("creates").value(stats.creates);
  json.key("evictions").value(churn_stats.evictions);
  json.key("restores").value(churn_stats.restores);
  json.key("step_ns_p50").value(hist.p50);
  json.key("step_ns_p99").value(hist.p99);
  json.end_object();
  json.end_object();

  std::ofstream file(out_path);
  file << json.str() << "\n";
  std::cerr << "  wrote " << out_path << "\n";

  TextTable table({"phase", "reps", "ns/req", "notes"});
  table.add_row({"fill (create+checkpoint)", std::to_string(vehicles),
                 std::to_string(fill_ns / std::max<std::uint64_t>(vehicles, 1)),
                 std::to_string(stats.in_memory) + " resident"});
  table.add_row({"steady (warm blobs)", std::to_string(steady_reps),
                 std::to_string(steady_ns /
                                std::max<std::uint64_t>(steady_reps, 1)),
                 TextTable::num(steady_rps, 0) + " req/s"});
  table.add_row(
      {"evict+restore churn",
       std::to_string(churn_sweeps * churn_vehicles),
       std::to_string(churn_ns / std::max<std::uint64_t>(
                                     churn_sweeps * churn_vehicles, 1)),
       std::to_string(churn_stats.evictions) + " evictions, " +
           std::to_string(churn_stats.restores) + " restores"});
  std::cout << table.render("Service scale — multi-tenant step throughput");
  std::cout << "\nExpected shape: steady-state throughput scales with the "
               "worker pool while the\nchurn phase pays one store round trip "
               "per step; deadline misses stay zero\nbecause no deadlines are "
               "set.\n";

  std::filesystem::remove_all(options.store.dir);
  std::filesystem::remove_all(churn_options.store.dir);
  const bool churn_ok =
      churn_stats.evictions > 0 && churn_stats.restores > 0;
  return fill_complete && churn_ok && stats.deadline_misses == 0 ? 0 : 1;
}
