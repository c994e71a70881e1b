// Shared helpers for the figure/table regeneration harness.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (§IV): it runs the same closed-loop co-simulation the paper
// ran (On/Off [8,9] vs fuzzy [10] vs our battery lifetime-aware MPC on
// standard driving cycles) and prints the rows/series of that exhibit.
// Absolute numbers come from our simulator rather than the authors'
// MATLAB/AMESim testbed; the reproduction target is the *shape* (ordering,
// rough factors, crossovers). EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "runtime/thread_pool.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace evc::bench {

/// Ambient temperature used for the cross-cycle comparisons (Fig. 5–8).
/// The paper fixes "the same ambient temperature, comfort zone, and target
/// temperature for all methodologies"; we use a hot summer day.
inline constexpr double kDefaultAmbientC = 35.0;

/// Controller-name constants in the paper's column order.
inline const char* kOnOff = "On/Off [8,9]";
inline const char* kFuzzy = "Fuzzy-based [10]";
inline const char* kOurs = "Our Battery Lifetime-aware";

struct CycleComparison {
  drive::StandardCycle cycle;
  std::string cycle_name;
  core::TripMetrics onoff;
  core::TripMetrics fuzzy;
  core::TripMetrics mpc;
};

/// Run the three methodologies over one cycle at `ambient_c`.
inline CycleComparison run_cycle_comparison(drive::StandardCycle cycle,
                                            double ambient_c) {
  const core::EvParams params;
  const auto profile = drive::make_cycle_profile(cycle, ambient_c);
  core::SimulationOptions opts;
  opts.record_traces = false;
  const auto runs = core::compare_controllers(params, profile, opts);
  return CycleComparison{cycle, drive::cycle_name(cycle), runs[0].metrics,
                         runs[1].metrics, runs[2].metrics};
}

/// Run all five cycles of Fig. 7/8, one scenario per pool worker. Each
/// scenario owns its controllers, so results are identical to the serial
/// loop (set EVC_THREADS=1 to force serial execution).
inline std::vector<CycleComparison> run_all_cycles(double ambient_c) {
  const auto cycles = drive::all_standard_cycles();
  std::cerr << "  running " << cycles.size() << " cycles on "
            << (rt::ThreadPool::global().size() + 1) << " thread(s)...\n";
  return rt::parallel_map<CycleComparison>(
      cycles.size(),
      [&](std::size_t i) { return run_cycle_comparison(cycles[i], ambient_c); });
}

/// Parse a bench binary's command line: `read` pulls every flag it uses out
/// of the parser, then any flag not in `known` is rejected. A malformed
/// value or an unknown flag prints the message and a usage line to stderr
/// and exits 2, rather than letting std::invalid_argument escape main.
template <typename Read>
void parse_flags(int argc, char** argv, const std::vector<std::string>& known,
                 Read&& read) {
  try {
    const ArgParser args(argc, argv);
    read(args);
    args.reject_unknown(known);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\nusage: "
              << (argc > 0 ? argv[0] : "bench");
    for (const std::string& flag : known) std::cerr << " [--" << flag << " V]";
    std::cerr << "\n";
    std::exit(2);
  }
}

}  // namespace evc::bench
