// Robustness study — sensor/actuator faults against the fault-tolerant
// supervisor (docs/ROBUSTNESS.md).
//
// Sweeps a deterministic fault schedule (sensor dropout, spikes, stuck SoC,
// stale forecasts) over increasing rates, plus a tier with a deliberately
// starved MPC solve budget (periodic solver timeouts), and runs the
// supervised chain full MPC → relaxed MPC → PID → On/Off on the fig. 5
// scenario (ECE_EUDC @ 35 °C). For each scenario it reports:
//   * comfort-violation time (fraction of the trip outside the band),
//   * ΔSoH of the cycle and HVAC energy,
//   * fallback occupancy: fraction of steps actuated by each tier,
//   * a finiteness audit of every recorded plant state (must be 100 %).
//
// Flags: --steps N   truncate the cycle to N control steps (CI smoke)
//        --out PATH  write the machine-readable JSON artifact
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics_json.hpp"
#include "core/simulation.hpp"
#include "sim/fault_injection.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "obs/trace.hpp"

namespace {

using namespace evc;

struct Scenario {
  std::string label;
  double dropout_rate = 0.0;  ///< cabin + SoC sensor dropout rate
  double spike_rate = 0.0;    ///< ambient sensor spike rate
  double stuck_rate = 0.0;    ///< SoC stuck-at rate
  double stale_rate = 0.0;    ///< motor forecast stale-sample rate
  bool starve_solver = false; ///< tight MPC budget → periodic timeouts
};

std::vector<sim::FaultSpec> make_schedule(const Scenario& s) {
  std::vector<sim::FaultSpec> specs;
  if (s.dropout_rate > 0.0) {
    specs.push_back({sim::FaultSignal::kCabinTemp, sim::FaultKind::kDropout,
                     s.dropout_rate, 0.0, 3});
    specs.push_back({sim::FaultSignal::kSoc, sim::FaultKind::kDropout,
                     s.dropout_rate, 0.0, 3});
  }
  if (s.spike_rate > 0.0)
    specs.push_back({sim::FaultSignal::kOutsideTemp, sim::FaultKind::kSpike,
                     s.spike_rate, 40.0, 1});
  if (s.stuck_rate > 0.0)
    specs.push_back({sim::FaultSignal::kSoc, sim::FaultKind::kStuckAt,
                     s.stuck_rate, 150.0, 5});
  if (s.stale_rate > 0.0)
    specs.push_back({sim::FaultSignal::kMotorForecast,
                     sim::FaultKind::kStaleSample, s.stale_rate, 0.0, 10});
  return specs;
}

struct ScenarioResult {
  core::TripMetrics metrics;
  ctl::SupervisorStats supervisor;
  sim::FaultInjectionStats faults;
  core::MpcPlanStats mpc;
  std::vector<std::string> tier_names;
  std::size_t nonfinite_samples = 0;
  std::size_t audited_samples = 0;
};

ScenarioResult run_scenario(const core::EvParams& params,
                            const drive::DriveProfile& profile,
                            const Scenario& s) {
  core::MpcOptions mpc_options;
  mpc_options.accessory_power_w = params.vehicle.accessory_power_w;
  if (s.starve_solver) {
    // A budget far below the typical plan solve time: the full-MPC tier
    // periodically times out and the supervisor must ride the chain.
    mpc_options.sqp.time_budget_s = 200e-6;
  }
  ctl::SupervisorOptions sup_options;
  auto supervised =
      core::make_supervised_mpc_controller(params, mpc_options, sup_options);

  sim::FaultInjector injector(make_schedule(s), /*seed=*/2024);
  core::SimulationOptions sim_options;
  sim_options.record_traces = true;
  sim_options.fault_injector = &injector;

  core::ClimateSimulation simulation(params);
  const core::SimulationResult result =
      simulation.run(*supervised, profile, sim_options);

  ScenarioResult out;
  out.metrics = result.metrics;
  out.supervisor = supervised->stats();
  out.faults = injector.stats();
  for (std::size_t i = 0; i < supervised->num_tiers(); ++i)
    out.tier_names.push_back(supervised->tier_name(i));
  // Plan stats of the preferred tier (the full MPC): the solver-outcome
  // counters are the interesting signal in the timeout scenarios.
  if (const auto* mpc = dynamic_cast<const core::MpcClimateController*>(
          &supervised->tier(0)))
    out.mpc = mpc->stats();

  // Finiteness audit over every recorded plant channel.
  for (const std::string& channel : result.recorder.channels()) {
    for (double v : result.recorder.values(channel)) {
      ++out.audited_samples;
      if (!std::isfinite(v)) ++out.nonfinite_samples;
    }
  }
  return out;
}

void write_json(const std::string& path, const drive::DriveProfile& profile,
                const std::vector<Scenario>& scenarios,
                const std::vector<ScenarioResult>& results) {
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("robustness_faults");
  json.key("cycle").value(profile.name());
  json.key("ambient_c").value(bench::kDefaultAmbientC);
  json.key("steps").value(profile.size());
  json.key("scenarios");
  json.begin_array();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    const ScenarioResult& r = results[i];
    json.begin_object();
    json.key("label").value(s.label);
    json.key("dropout_rate").value(s.dropout_rate);
    json.key("spike_rate").value(s.spike_rate);
    json.key("stuck_rate").value(s.stuck_rate);
    json.key("stale_rate").value(s.stale_rate);
    json.key("starve_solver").value(s.starve_solver);
    json.key("comfort_violation_fraction")
        .value(r.metrics.comfort.fraction_outside);
    json.key("delta_soh_percent").value(r.metrics.delta_soh_percent);
    json.key("hvac_energy_j").value(r.metrics.hvac_energy_j);
    json.key("nonfinite_samples").value(r.nonfinite_samples);
    json.key("audited_samples").value(r.audited_samples);
    json.key("tier_names");
    json.begin_array();
    for (const std::string& name : r.tier_names) json.value(name);
    json.end_array();
    json.key("metrics").raw_value(core::to_json(r.metrics));
    json.key("supervisor").raw_value(core::to_json(r.supervisor));
    json.key("faults").raw_value(core::to_json(r.faults));
    json.key("mpc").raw_value(core::to_json(r.mpc));
    json.end_object();
  }
  json.end_array();
  json.end_object();

  std::ofstream file(path);
  file << json.str() << "\n";
  std::cerr << "  wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // EVC_TRACE=trace.json dumps a Chrome/Perfetto trace of this run.
  evc::obs::TraceEnvGuard trace_guard;
  long steps = 0;
  std::string out_path;
  bench::parse_flags(argc, argv, {"steps", "out"}, [&](const ArgParser& args) {
    steps = args.get_int("steps", 0);
    out_path = args.get_string("out", "");
  });

  const core::EvParams params;
  drive::DriveProfile profile = drive::make_cycle_profile(
      drive::StandardCycle::kEceEudc, bench::kDefaultAmbientC);
  if (steps > 0)
    profile = profile.window(0, static_cast<std::size_t>(steps));

  const std::vector<Scenario> scenarios = {
      {"clean (no faults)", 0.0, 0.0, 0.0, 0.0, false},
      {"dropout 1%", 0.01, 0.0, 0.0, 0.0, false},
      {"dropout 5% + spikes", 0.05, 0.02, 0.0, 0.0, false},
      {"dropout 5% + solver timeouts", 0.05, 0.0, 0.0, 0.02, true},
      {"dropout 10% + stuck SoC", 0.10, 0.02, 0.01, 0.02, false},
  };

  std::cerr << "  running " << scenarios.size() << " fault scenarios on "
            << (rt::ThreadPool::global().size() + 1) << " thread(s)...\n";
  const auto results = rt::parallel_map<ScenarioResult>(
      scenarios.size(),
      [&](std::size_t i) { return run_scenario(params, profile, scenarios[i]); });

  TextTable table({"scenario", "comfort viol [%]", "dSoH [%/cycle]",
                   "HVAC [kWh]", "sanitized", "fallback occupancy",
                   "non-finite"});
  bool all_finite = true;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::string occupancy;
    const double total = static_cast<double>(std::max<std::size_t>(
        r.supervisor.steps, 1));
    for (std::size_t tier = 0; tier < r.supervisor.tier_steps.size(); ++tier) {
      if (r.supervisor.tier_steps[tier] == 0) continue;
      if (!occupancy.empty()) occupancy += " ";
      occupancy += r.tier_names[tier] + ":" +
                   TextTable::num(100.0 *
                                      static_cast<double>(
                                          r.supervisor.tier_steps[tier]) /
                                      total,
                                  1) +
                   "%";
    }
    if (r.nonfinite_samples > 0) all_finite = false;
    table.add_row(
        {scenarios[i].label,
         TextTable::num(100.0 * r.metrics.comfort.fraction_outside, 2),
         TextTable::num(r.metrics.delta_soh_percent, 6),
         TextTable::num(r.metrics.hvac_energy_j / 3.6e6, 3),
         std::to_string(r.supervisor.sanitized_values), occupancy,
         std::to_string(r.nonfinite_samples) + "/" +
             std::to_string(r.audited_samples)});
  }

  std::cout << table.render(
      "Robustness — supervised MPC under sensor faults, ECE_EUDC @ 35 C");
  std::cout << "\nExpected shape: the clean run matches the unsupervised MPC "
               "bit-exactly; rising\nfault rates shift occupancy toward the "
               "fallback tiers while every recorded\nstate stays finite and "
               "comfort degrades gracefully rather than diverging.\n";

  if (!out_path.empty())
    write_json(out_path, profile, scenarios, results);

  return all_finite ? 0 : 1;
}
