// Workload "drive": the paper's MPC (default options, horizon 12) in closed
// loop on one thread over the five standard cycles at 35 C (Fig. 7/8). It
// carries the optim/numerics/core.mpc work and none of the service or
// storage work.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "probe.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "drivecycle/standard_cycles.hpp"

namespace perfbench {
namespace {

using namespace evc;

constexpr double kAmbientC = 35.0;
constexpr int kSetupRepeats = 31;
/// Nominal length of one pass over the five cycles; --seconds buys passes.
constexpr double kNominalPassS = 20.0;

struct DriveSetup {
  core::EvParams params;
  std::vector<std::string> names;
  std::vector<drive::DriveProfile> profiles;
  std::vector<std::vector<double>> motor_power;
  std::unique_ptr<core::MpcClimateController> mpc;
};

/// Everything a drive needs before its first step: cycles, the motor-power
/// forecasts, and the controller. The seed only rotates the cycle order.
DriveSetup make_setup(std::uint64_t seed) {
  DriveSetup s;
  std::vector<drive::StandardCycle> cycles = drive::all_standard_cycles();
  std::rotate(cycles.begin(),
              cycles.begin() + static_cast<std::ptrdiff_t>(seed % cycles.size()),
              cycles.end());
  for (drive::StandardCycle c : cycles) {
    s.names.push_back(drive::cycle_name(c));
    s.profiles.push_back(drive::make_cycle_profile(c, kAmbientC));
    s.motor_power.push_back(
        core::precompute_motor_power(s.params, s.profiles.back()));
  }
  s.mpc = core::make_mpc_controller(s.params);
  return s;
}

core::SimulationOptions sim_options(const DriveSetup& s, std::size_t cycle) {
  core::SimulationOptions opts;
  opts.record_traces = false;
  opts.motor_power_cache = &s.motor_power[cycle];
  return opts;
}

bool same_metrics(const core::TripMetrics& a, const core::TripMetrics& b) {
  return a.delta_soh_percent == b.delta_soh_percent &&
         a.hvac_energy_j == b.hvac_energy_j &&
         a.comfort.rms_error_c == b.comfort.rms_error_c &&
         a.final_soc_percent == b.final_soc_percent;
}

}  // namespace

RunResult run_drive(const Args& args) {
  RunResult result;
  // On a shared host a single thread that migrates between vCPUs varied by
  // about 20 % between back-to-back runs; pinned, by about 1 %.
  pin_this_thread(allowed_cpus().back());

  // Set-up is timed between two probe units, and normalised by them.
  SpeedProbe probe;
  std::vector<double> setup_s;
  DriveSetup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double before_ms = probe.run();
    const Clock::time_point t0 = Clock::now();
    DriveSetup next = make_setup(args.seed);
    const double took_s = seconds_between(t0, Clock::now());
    setup_s.push_back(took_s / slowdown({before_ms, probe.run()}));
    setup = std::move(next);  // the previous set-up is torn down untimed
  }
  const std::size_t n_cycles = setup.profiles.size();
  const core::ClimateSimulation sim(setup.params);

  // Untimed On/Off reference for the output check.
  std::vector<core::TripMetrics> onoff;
  for (std::size_t c = 0; c < n_cycles; ++c) {
    auto controller = core::make_onoff_controller(setup.params);
    onoff.push_back(
        sim.run(*controller, setup.profiles[c], sim_options(setup, c)).metrics);
  }

  SpanLog spans;
  SpanLog* log = args.trace ? &spans : nullptr;
  TimedController timed(*setup.mpc, setup.mpc.get(), log);
  // A probe unit right after every plan. Plan i is normalised by the mean
  // of the units on either side of it: the one after the previous plan (or
  // the one that opens its cycle) and its own.
  std::vector<double> probe_ms;    // every unit of the current cycle
  std::vector<double> plan_slow;   // per plan, in plan order
  timed.set_after_plan([&] {
    const double before_ms = probe_ms.back();
    ScopedSpan span(log, "bench.probe");
    probe_ms.push_back(probe.run());
    plan_slow.push_back(slowdown({before_ms, probe_ms.back()}));
  });

  // A fixed number of whole passes over all five cycles (one per
  // kNominalPassS of --seconds), so every run does the same work. Every
  // pass does identical work (checked bit for bit below), so each plan is
  // reported as the median over the passes of its normalised time.
  const std::size_t passes = static_cast<std::size_t>(
      std::max(1L, std::lround(args.seconds / kNominalPassS)));
  struct CycleRun {
    std::size_t first_plan = 0;
    std::size_t end_plan = 0;
    double norm_cpu_s = 0.0;  ///< the cycle's CPU time, normalised
  };
  std::vector<std::vector<CycleRun>> runs(n_cycles);
  std::vector<core::TripMetrics> first_pass;
  std::uint64_t steps_per_pass = 0;
  std::uint64_t plans = 0, plan_failures = 0;
  double drive_s = 0.0;
  const CpuTimes cpu0 = cpu_times();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const Clock::time_point pass_t0 = Clock::now();
    ScopedSpan pass_span(log, "drive.pass", SpanLog::kNoParent);
    for (std::size_t c = 0; c < n_cycles; ++c) {
      {
        ScopedSpan span(log, "bench.probe", pass_span.id());
        probe_ms.assign(1, probe.run());
      }
      ScopedSpan cycle_span(log, "sim.cycle", pass_span.id());
      const std::size_t first_plan = timed.plan_cpu_ms().size();
      const double cpu0_s = thread_cpu_s();
      const core::TripMetrics m =
          sim.run(timed, setup.profiles[c], sim_options(setup, c)).metrics;
      const double cycle_cpu_s = thread_cpu_s() - cpu0_s;
      // The plans, each normalised by its own units; the rest of the cycle
      // (plant, forecasts, decide() calls that did not plan) by all of
      // the cycle's units. The probe's own time is taken out.
      CycleRun run{first_plan, timed.plan_cpu_ms().size(), 0.0};
      double rest_s = cycle_cpu_s;
      for (double ms : probe_ms) rest_s -= ms * 1e-3;
      for (std::size_t i = run.first_plan; i < run.end_plan; ++i) {
        rest_s -= timed.plan_cpu_ms()[i] * 1e-3;
        run.norm_cpu_s += timed.plan_cpu_ms()[i] * 1e-3 / plan_slow[i];
      }
      run.norm_cpu_s += std::max(rest_s, 0.0) / slowdown(probe_ms);
      runs[c].push_back(run);
      // Each run starts from a reset controller, so its stats are per cycle.
      plans += setup.mpc->stats().plans;
      if (pass == 0) {
        steps_per_pass += setup.profiles[c].size();
        plan_failures += setup.mpc->stats().failures;
        first_pass.push_back(m);
      } else if (!same_metrics(m, first_pass[c]) ||
                 run.end_plan - run.first_plan !=
                     runs[c][0].end_plan - runs[c][0].first_plan) {
        result.fail("drive: pass " + std::to_string(pass + 1) + " of " +
                    setup.names[c] + " differs from the first pass");
      }
    }
    drive_s += seconds_between(pass_t0, Clock::now());
  }
  const CpuTimes cpu1 = cpu_times();
  const std::uint64_t steps = steps_per_pass * passes;

  // Output checks: MPC beats On/Off on dSoH and HVAC energy on every cycle
  // and keeps the cabin inside the comfort band.
  double soh = 0.0, hvac_kwh = 0.0, comfort = 0.0;
  for (std::size_t c = 0; c < n_cycles; ++c) {
    const core::TripMetrics& m = first_pass[c];
    if (!(m.delta_soh_percent < onoff[c].delta_soh_percent))
      result.fail("drive: MPC dSoH not below On/Off on " + setup.names[c]);
    if (!(m.hvac_energy_j < onoff[c].hvac_energy_j))
      result.fail("drive: MPC HVAC energy not below On/Off on " + setup.names[c]);
    if (m.comfort.fraction_outside != 0.0)
      result.fail("drive: comfort violations on " + setup.names[c]);
    soh += m.delta_soh_percent;
    hvac_kwh += m.hvac_energy_j / 3.6e6;
    comfort += m.comfort.rms_error_c;
  }
  const double cycles = static_cast<double>(n_cycles);

  // Timed in thread CPU time, normalised by the probe: the drive is one
  // compute-bound thread, and on a virtual machine its wall time also
  // counts whatever the host stole from the vCPU (up to half of it on a
  // busy host). Raw CPU and wall-clock figures are on the env line.
  Sample plan_cpu_ms, raw_cpu_ms, wall_ms;
  std::vector<double> pass_cpu_s(passes, 0.0);
  for (const std::vector<CycleRun>& cycle_runs : runs) {
    const std::size_t n = cycle_runs[0].end_plan - cycle_runs[0].first_plan;
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<double> norm, raw, wall;
      for (const CycleRun& run : cycle_runs) {
        const std::size_t i = run.first_plan + j;
        norm.push_back(timed.plan_cpu_ms()[i] / plan_slow[i]);
        raw.push_back(timed.plan_cpu_ms()[i]);
        wall.push_back(timed.plan_ms()[i]);
      }
      plan_cpu_ms.add(median(norm));
      raw_cpu_ms.add(median(raw));
      wall_ms.add(median(wall));
    }
    for (std::size_t pass = 0; pass < cycle_runs.size(); ++pass)
      pass_cpu_s[pass] += cycle_runs[pass].norm_cpu_s;
  }
  if (!plan_cpu_ms.supports(0.95))
    result.fail("drive: too few plans for a p95 (" +
                std::to_string(plan_cpu_ms.size()) + ")");
  result.attempted = timed.decides();
  result.failed = 0;
  result.fact("passes", std::to_string(passes));
  result.fact("plans", std::to_string(plan_cpu_ms.size()));
  result.fact("store_fs", "none");
  result.fact("drive_s", std::to_string(drive_s / static_cast<double>(passes)));
  result.fact("wall_lat_p50_ms", std::to_string(wall_ms.percentile(0.50)));
  result.fact("wall_lat_tail_ms", std::to_string(wall_ms.percentile(0.95)));
  result.fact("cpu_lat_p50_ms", std::to_string(raw_cpu_ms.percentile(0.50)));
  result.fact("cpu_lat_tail_ms", std::to_string(raw_cpu_ms.percentile(0.95)));
  result.fact("probe_slowdown", std::to_string(median(plan_slow)));
  result.fact("probe_sink", std::to_string(probe.sink()));

  if (!args.trace) {
    result.add("setup_s", median(setup_s), "s");
    result.add("rss_mb", peak_rss_mb(), "MB");
    result.add("lat_p50_ms", plan_cpu_ms.percentile(0.50), "ms");
    result.add("lat_tail_ms", plan_cpu_ms.percentile(0.95), "ms");
    result.add("steps_per_cpu_s",
               static_cast<double>(steps_per_pass) / median(pass_cpu_s), "1/s");
    // A plan that fell back to the safe input is the drive's failed op.
    result.add("ok_frac",
               1.0 - static_cast<double>(plan_failures) /
                         static_cast<double>(plan_cpu_ms.size()),
               "fraction");
    result.add("soh_loss_pct", soh / cycles, "%");
    result.add("hvac_kwh", hvac_kwh / cycles, "kWh");
    result.add("comfort_rms_c", comfort / cycles, "C");
    return result;
  }

  const MpcWork& work = timed.work();
  if (work.plans != plans)
    result.fail("drive: decide() deltas count " + std::to_string(work.plans) +
                " plans, the controller " + std::to_string(plans));
  add_mpc_layer_metrics(result, work);
  // core.sim: what a cycle costs beyond its decide() calls, per step.
  const double plant_us = spans.self_sum_us("sim.cycle");
  result.add("sim.plant_us_per_step", plant_us / static_cast<double>(steps),
             "us");
  result.add("control.tier0_frac", 1.0, "fraction");
  const double pass_us = spans.total_us("drive.pass");
  const double overhead_us =
      static_cast<double>(spans.size()) * SpanLog::calibrate_pair_ns() * 1e-3;
  result.add("bench.trace_overhead_frac", overhead_us / pass_us, "fraction");
  result.add("bench.unattributed_frac", spans.self_sum_us("drive.pass") / pass_us,
             "fraction");
  result.add("proc.sys_cpu_frac", sys_cpu_frac(cpu0, cpu1), "fraction");
  return result;
}

}  // namespace perfbench
