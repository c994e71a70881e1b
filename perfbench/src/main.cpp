// Repository benchmark: one run of one workload.
//
//   perfbench --workload drive|fleet_mpc|fleet_churn --seed N --seconds S
//             --trace 0|1
//
// Prints the run environment as one JSON line, then the result line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Every run prints
// every metric of its kind; a layer a workload never reaches reads 0.
// perfbench/README.md lists the workloads and metrics.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "numerics/simd.hpp"
#include "optim/condensed_qp.hpp"
#include "util/json.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

using Catalog = std::vector<std::pair<const char*, const char*>>;

/// End-to-end metrics, in BENCHMARK.json order.
const Catalog kEndToEnd = {
    {"setup_s", "s"},         {"rss_mb", "MB"},
    {"lat_p50_ms", "ms"},     {"lat_tail_ms", "ms"},
    {"steps_per_cpu_s", "1/s"}, {"ok_frac", "fraction"},
    {"soh_loss_pct", "%"},    {"hvac_kwh", "kWh"},
    {"comfort_rms_c", "C"},
};

/// Per-layer metrics, in BENCHMARK.json order.
const Catalog kPerLayer = {
    {"mpc.plans", "count"},
    {"mpc.converged_frac", "fraction"},
    {"mpc.sqp_iters_per_plan", "count"},
    {"optim.solve_ms_per_plan", "ms"},
    {"optim.qp_iters_per_sqp_iter", "count"},
    {"optim.warm_start_frac", "fraction"},
    {"optim.condense_hit_frac", "fraction"},
    {"numerics.factorizations_per_plan", "count"},
    {"numerics.factorize_ms_per_plan", "ms"},
    {"numerics.dense_fallbacks", "count"},
    {"sim.plant_us_per_step", "us"},
    {"control.tier0_frac", "fraction"},
    {"svc.submit_us_p50", "us"},
    {"svc.queue_wait_us_p99", "us"},
    {"svc.step_us_p50", "us"},
    {"svc.step_us_p99", "us"},
    {"svc.resident_hit_frac", "fraction"},
    {"svc.evictions_per_req", "count"},
    {"svc.rejected", "count"},
    {"svc.shed", "count"},
    {"svc.deadline_misses", "count"},
    {"hydrate.us_p50", "us"},
    {"checkpoint.encode_us_p50", "us"},
    {"checkpoint.blob_bytes", "bytes"},
    {"store.persist_us_p50", "us"},
    {"store.persist_us_p99", "us"},
    {"store.load_us_p50", "us"},
    {"proc.sys_cpu_frac", "fraction"},
    {"bench.gen_lag_us_p99", "us"},
    {"bench.poll_us_p99", "us"},
    {"bench.trace_overhead_frac", "fraction"},
    {"bench.unattributed_frac", "fraction"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload drive|fleet_mpc|fleet_churn "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.workload != "drive" && args.workload != "fleet_mpc" &&
      args.workload != "fleet_churn")
    usage("unknown workload " + args.workload);
  if (!(args.seconds > 0.0 && args.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  return args;
}

/// Put the metrics in catalog order; a metric the workload does not reach
/// reads 0 (per-layer only — every end-to-end metric must be measured).
void canonicalize(RunResult& result, const Catalog& catalog, bool end_to_end) {
  std::vector<Metric> ordered;
  std::set<std::string> known;
  for (const auto& [name, unit] : catalog) {
    known.insert(name);
    const Metric* found = nullptr;
    for (const Metric& m : result.metrics)
      if (m.name == name) found = &m;
    if (found == nullptr) {
      if (end_to_end) result.fail(std::string("metric not measured: ") + name);
      ordered.push_back({name, 0.0, unit});
    } else {
      if (found->unit != unit)
        result.fail(std::string("unit mismatch for ") + name);
      if (!std::isfinite(found->value))
        result.fail(std::string("non-finite value for ") + name);
      ordered.push_back(*found);
    }
  }
  for (const Metric& m : result.metrics)
    if (known.count(m.name) == 0) result.fail("uncatalogued metric " + m.name);
  result.metrics = std::move(ordered);
}

void print(const perfbench::Args& args, std::size_t nproc,
           const RunResult& result) {
  evc::JsonWriter env;
  env.begin_object().key("perfbench_env").begin_object();
  env.key("workload").value(args.workload);
  env.key("seed").value(static_cast<unsigned long long>(args.seed));
  env.key("seconds").value(args.seconds);
  env.key("trace").value(args.trace);
  env.key("nproc").value(nproc);
  env.key("simd_isa").value(evc::num::simd::to_string(evc::num::simd::active_isa()));
  env.key("qp_backend")
      .value(evc::opt::to_string(evc::opt::qp_backend_from_env(evc::opt::QpBackend::kSparse)));
  env.key("build_type").value(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : result.facts) env.key(key).value(value);
  env.end_object().end_object();
  std::cout << env.str() << "\n";

  evc::JsonWriter out;
  out.begin_object();
  out.key("correct").value(result.correct);
  out.key("attempted").value(static_cast<unsigned long long>(result.attempted));
  out.key("failed").value(static_cast<unsigned long long>(result.failed));
  out.key("metrics").begin_object();
  for (const Metric& m : result.metrics) {
    out.key(m.name).begin_object();
    out.key("value").value(m.value);
    out.key("unit").value(m.unit);
    out.end_object();
  }
  out.end_object().end_object();
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  // Read before a workload pins its thread.
  const std::size_t nproc = perfbench::allowed_cpus().size();
  try {
    RunResult result = args.workload == "drive" ? perfbench::run_drive(args)
                                                : perfbench::run_fleet(args);
    canonicalize(result, args.trace ? kPerLayer : kEndToEnd, !args.trace);
    if (result.attempted == 0) result.fail("no operation attempted");
    print(args, nproc, result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }
}
