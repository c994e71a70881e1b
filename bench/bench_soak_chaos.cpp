// Chaos-soak harness — randomized multi-fault campaigns with kill-and-resume
// (docs/ROBUSTNESS.md).
//
// Each campaign draws a random fault schedule (3–6 specs across sensors,
// kinds, rates, and hold lengths from a campaign-seeded splitmix64 stream)
// and runs the supervised FDIR chain twice over the same profile:
//
//   reference  an uninterrupted SimulationSession, start to finish;
//   chaos      the same configuration, but at 2–4 random steps the whole
//              process state is "killed": the session, controller, and
//              fault injector are destroyed, rebuilt from scratch, and
//              resumed from a checkpoint file written the step before.
//
// The two runs must agree bit-for-bit — every recorder sample, every trip
// metric — or the checkpoint misses state. Campaign 0 is the clean
// differential: no faults, FDI enabled vs disabled, also bit-identical
// (the FDIR layer must be a byte-exact pass-through for healthy sensors).
// Every recorded plant channel is additionally audited for finiteness.
//
// Flags: --steps N      truncate the cycle to N control steps (CI smoke)
//        --campaigns N  number of randomized fault campaigns (default 3)
//        --seed S       campaign master seed
//        --out PATH     write the machine-readable JSON artifact
//        --flight-dump PREFIX  write each chaos run's flight-recorder ring
//                              to PREFIX_c<i>.json after the campaign
//
// EVC_TRACE=trace.json additionally captures a Chrome/Perfetto span trace
// of the whole soak (qp/sqp/mpc/supervisor/fdi spans from every worker).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics_json.hpp"
#include "core/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault_injection.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace {

using namespace evc;

struct Campaign {
  std::string label;
  std::vector<sim::FaultSpec> specs;
  std::uint64_t injector_seed = 0;
  bool fdi_enabled = true;
  std::size_t max_hold_steps = 0;
  std::vector<std::size_t> kill_steps;  ///< chaos run: checkpoint+rebuild here
};

const char* signal_name(sim::FaultSignal s) {
  switch (s) {
    case sim::FaultSignal::kCabinTemp: return "cabin_temp";
    case sim::FaultSignal::kOutsideTemp: return "outside_temp";
    case sim::FaultSignal::kSoc: return "soc";
    case sim::FaultSignal::kMotorForecast: return "motor_forecast";
  }
  return "?";
}

const char* kind_name(sim::FaultKind k) {
  switch (k) {
    case sim::FaultKind::kBias: return "bias";
    case sim::FaultKind::kStuckAt: return "stuck_at";
    case sim::FaultKind::kDropout: return "dropout";
    case sim::FaultKind::kStaleSample: return "stale_sample";
    case sim::FaultKind::kSpike: return "spike";
    case sim::FaultKind::kQuantization: return "quantization";
  }
  return "?";
}

std::vector<sim::FaultSpec> random_schedule(SplitMix64& rng) {
  const std::size_t count = 3 + rng.next_u64() % 4;  // 3..6 concurrent specs
  std::vector<sim::FaultSpec> specs;
  for (std::size_t i = 0; i < count; ++i) {
    sim::FaultSpec s;
    s.signal = static_cast<sim::FaultSignal>(rng.next_u64() % 4);
    s.kind = static_cast<sim::FaultKind>(rng.next_u64() % 6);
    s.rate = rng.uniform(0.002, 0.05);
    s.hold_steps = 1 + static_cast<std::size_t>(rng.next_u64() % 30);
    switch (s.kind) {
      case sim::FaultKind::kBias:
        s.magnitude = rng.uniform(-10.0, 10.0);
        break;
      case sim::FaultKind::kStuckAt:
        // Deliberately allows implausible stuck values (e.g. SoC 150) —
        // the sanitation + FDI layers must absorb them.
        s.magnitude = rng.uniform(-20.0, 150.0);
        break;
      case sim::FaultKind::kSpike:
        s.magnitude = rng.uniform(5.0, 50.0);
        break;
      case sim::FaultKind::kQuantization:
        s.magnitude = rng.uniform(0.5, 5.0);
        break;
      case sim::FaultKind::kDropout:
      case sim::FaultKind::kStaleSample:
        break;
    }
    specs.push_back(s);
  }
  return specs;
}

std::vector<std::size_t> random_kill_steps(SplitMix64& rng, std::size_t n) {
  const std::size_t kills = 2 + rng.next_u64() % 3;  // 2..4 kill-and-resumes
  std::vector<std::size_t> steps;
  const std::size_t lo = std::max<std::size_t>(1, n / 10);
  const std::size_t hi = std::max<std::size_t>(lo + 1, n - n / 10);
  for (std::size_t i = 0; i < kills; ++i)
    steps.push_back(lo + rng.next_u64() % (hi - lo));
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  return steps;
}

struct RunArtifacts {
  core::SimulationResult result;
  ctl::SupervisorStats supervisor;
  fdi::FdiStats fdi;
  sim::FaultInjectionStats faults;
};

/// One full closed-loop run of a campaign. With `chaos` set, every kill
/// step tears the session, controller, and injector down completely and
/// resumes a fresh stack from a checkpoint file — the process-crash
/// analogue the checkpoint format exists for.
RunArtifacts run_campaign(const core::EvParams& params,
                          const drive::DriveProfile& profile,
                          const Campaign& c, bool chaos, bool fdi_enabled,
                          const std::string& ckpt_path,
                          const std::string& flight_dump_path = "") {
  std::unique_ptr<ctl::SupervisedController> controller;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<core::SimulationSession> session;

  const auto rebuild = [&] {
    core::MpcOptions mpc_options;
    mpc_options.accessory_power_w = params.vehicle.accessory_power_w;
    ctl::SupervisorOptions sup_options;
    sup_options.fdi.enabled = fdi_enabled;
    sup_options.max_hold_steps = c.max_hold_steps;
    controller =
        core::make_supervised_mpc_controller(params, mpc_options, sup_options);
    injector.reset();
    if (!c.specs.empty())
      injector = std::make_unique<sim::FaultInjector>(c.specs, c.injector_seed);
    core::SimulationOptions sim_options;
    sim_options.record_traces = true;
    sim_options.fault_injector = injector.get();
    sim_options.flight_dump_path = flight_dump_path;
    session = std::make_unique<core::SimulationSession>(params, *controller,
                                                        profile, sim_options);
  };
  rebuild();

  std::size_t next_kill = 0;
  while (!session->done()) {
    if (chaos && next_kill < c.kill_steps.size() &&
        session->step_index() == c.kill_steps[next_kill]) {
      session->checkpoint_to_file(ckpt_path);
      session.reset();   // "kill": nothing survives but the file
      rebuild();
      session->restore_from_file(ckpt_path);
      ++next_kill;
    }
    session->advance();
  }

  RunArtifacts out;
  // The black box of the run, dumped unconditionally at the end (on top of
  // the automatic dump-on-demotion inside the session).
  if (!flight_dump_path.empty())
    session->flight_recorder().dump_json(flight_dump_path);
  out.result = session->finish();
  out.supervisor = controller->stats();
  if (const fdi::SensorFdi* f = controller->fdi()) out.fdi = f->stats();
  if (injector) out.faults = injector->stats();
  std::remove(ckpt_path.c_str());
  return out;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

struct Differential {
  std::size_t compared = 0;
  std::size_t mismatched = 0;
  std::vector<std::string> notes;

  void check(const std::string& what, double a, double b) {
    ++compared;
    if (bits(a) != bits(b)) {
      ++mismatched;
      if (notes.size() < 8)
        notes.push_back(what + ": " + std::to_string(a) +
                        " != " + std::to_string(b));
    }
  }
};

/// Bitwise comparison of two runs: every recorder sample and the trip
/// metrics. Any mismatch means the checkpoint (or the FDI pass-through)
/// dropped state.
Differential diff_runs(const RunArtifacts& a, const RunArtifacts& b) {
  Differential d;
  const auto channels_a = a.result.recorder.channels();
  const auto channels_b = b.result.recorder.channels();
  if (channels_a != channels_b) {
    ++d.mismatched;
    d.notes.push_back("recorder channel sets differ");
    return d;
  }
  for (const std::string& ch : channels_a) {
    const auto& va = a.result.recorder.values(ch);
    const auto& vb = b.result.recorder.values(ch);
    const auto& ta = a.result.recorder.times(ch);
    const auto& tb = b.result.recorder.times(ch);
    if (va.size() != vb.size() || ta.size() != tb.size()) {
      ++d.mismatched;
      d.notes.push_back("channel " + ch + " length differs");
      continue;
    }
    for (std::size_t i = 0; i < va.size(); ++i) {
      ++d.compared;
      if (bits(va[i]) != bits(vb[i]) || bits(ta[i]) != bits(tb[i])) {
        ++d.mismatched;
        if (d.notes.size() < 8)
          d.notes.push_back("channel " + ch + " sample " + std::to_string(i));
      }
    }
  }
  const core::TripMetrics& ma = a.result.metrics;
  const core::TripMetrics& mb = b.result.metrics;
  d.check("final_soc_percent", ma.final_soc_percent, mb.final_soc_percent);
  d.check("hvac_energy_j", ma.hvac_energy_j, mb.hvac_energy_j);
  d.check("total_energy_j", ma.total_energy_j, mb.total_energy_j);
  d.check("delta_soh_percent", ma.delta_soh_percent, mb.delta_soh_percent);
  d.check("soc_deviation", ma.stress.soc_deviation, mb.stress.soc_deviation);
  d.check("rms_error_c", ma.comfort.rms_error_c, mb.comfort.rms_error_c);
  d.check("fraction_outside", ma.comfort.fraction_outside,
          mb.comfort.fraction_outside);
  return d;
}

struct Audit {
  std::size_t samples = 0;
  std::size_t nonfinite = 0;
};

Audit audit_finiteness(const core::SimulationResult& result) {
  Audit a;
  for (const std::string& ch : result.recorder.channels())
    for (double v : result.recorder.values(ch)) {
      ++a.samples;
      if (!std::isfinite(v)) ++a.nonfinite;
    }
  return a;
}

struct CampaignOutcome {
  RunArtifacts reference;
  RunArtifacts chaos;
  Differential diff;
  Audit audit;
};

void write_json(const std::string& path, const drive::DriveProfile& profile,
                std::uint64_t seed, const std::vector<Campaign>& campaigns,
                const std::vector<CampaignOutcome>& outcomes) {
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("soak_chaos");
  json.key("cycle").value(profile.name());
  json.key("ambient_c").value(bench::kDefaultAmbientC);
  json.key("steps").value(profile.size());
  json.key("seed").value(seed);
  json.key("campaigns");
  json.begin_array();
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const Campaign& c = campaigns[i];
    const CampaignOutcome& o = outcomes[i];
    json.begin_object();
    json.key("label").value(c.label);
    json.key("fdi_enabled").value(c.fdi_enabled);
    json.key("kill_steps");
    json.begin_array();
    for (std::size_t s : c.kill_steps) json.value(s);
    json.end_array();
    json.key("fault_specs");
    json.begin_array();
    for (const sim::FaultSpec& s : c.specs) {
      json.begin_object();
      json.key("signal").value(signal_name(s.signal));
      json.key("kind").value(kind_name(s.kind));
      json.key("rate").value(s.rate);
      json.key("magnitude").value(s.magnitude);
      json.key("hold_steps").value(s.hold_steps);
      json.end_object();
    }
    json.end_array();
    json.key("samples_compared").value(o.diff.compared);
    json.key("samples_mismatched").value(o.diff.mismatched);
    json.key("mismatch_notes");
    json.begin_array();
    for (const std::string& note : o.diff.notes) json.value(note);
    json.end_array();
    json.key("audited_samples").value(o.audit.samples);
    json.key("nonfinite_samples").value(o.audit.nonfinite);
    json.key("metrics").raw_value(core::to_json(o.chaos.result.metrics));
    json.key("supervisor").raw_value(core::to_json(o.chaos.supervisor));
    json.key("fdi").raw_value(core::to_json(o.chaos.fdi));
    json.key("faults").raw_value(core::to_json(o.chaos.faults));
    json.end_object();
  }
  json.end_array();
  // Unified-export path: publish the last campaign's stats as gauges, then
  // embed the whole registry (live mpc.*/supervisor.* counters included).
  if (!outcomes.empty()) {
    const CampaignOutcome& last = outcomes.back();
    core::publish_metrics(last.chaos.result.metrics);
    core::publish_metrics(last.chaos.supervisor);
    core::publish_metrics(last.chaos.fdi);
    core::publish_metrics(last.chaos.faults);
  }
  json.key("metrics_registry").raw_value(obs::snapshot().to_json());
  json.end_object();

  std::ofstream file(path);
  file << json.str() << "\n";
  std::cerr << "  wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // EVC_TRACE=trace.json → Chrome/Perfetto trace of the whole soak run.
  evc::obs::TraceEnvGuard trace_guard;
  long steps = 0;
  long n_campaigns = 0;
  long seed = 0;
  std::string out_path;
  std::string flight_prefix;
  bench::parse_flags(argc, argv,
                     {"steps", "campaigns", "seed", "out", "flight-dump"},
                     [&](const ArgParser& args) {
                       steps = args.get_int("steps", 0);
                       n_campaigns = args.get_int("campaigns", 3);
                       seed = args.get_int("seed", 20260807);
                       out_path = args.get_string("out", "");
                       flight_prefix = args.get_string("flight-dump", "");
                     });

  const core::EvParams params;
  drive::DriveProfile profile = drive::make_cycle_profile(
      drive::StandardCycle::kEceEudc, bench::kDefaultAmbientC);
  if (steps > 0)
    profile = profile.window(0, static_cast<std::size_t>(steps));

  SplitMix64 master(static_cast<std::uint64_t>(seed));

  std::vector<Campaign> campaigns;
  {
    // Campaign 0: clean byte-identity differential. Reference runs with the
    // FDIR layer disabled, chaos runs with it enabled (and kill-and-resume):
    // with healthy sensors the FDI must be a bit-exact pass-through AND the
    // checkpoint must lose nothing.
    Campaign clean;
    clean.label = "clean (FDI on+resume vs FDI off)";
    clean.fdi_enabled = true;
    clean.kill_steps = random_kill_steps(master, profile.size());
    campaigns.push_back(clean);
  }
  for (long i = 1; i < n_campaigns; ++i) {
    Campaign c;
    c.label = "chaos campaign " + std::to_string(i);
    c.injector_seed = master.next_u64();
    c.specs = random_schedule(master);
    c.kill_steps = random_kill_steps(master, profile.size());
    c.fdi_enabled = true;
    c.max_hold_steps = 120;  // permanent dropouts escalate to safe-hold
    campaigns.push_back(c);
  }

  std::cerr << "  running " << campaigns.size() << " soak campaigns ("
            << profile.size() << " steps each) on "
            << (rt::ThreadPool::global().size() + 1) << " thread(s)...\n";
  const auto outcomes = rt::parallel_map<CampaignOutcome>(
      campaigns.size(), [&](std::size_t i) {
        const Campaign& c = campaigns[i];
        const std::string ckpt_ref =
            "soak_ckpt_" + std::to_string(i) + "_ref.bin";
        const std::string ckpt_chaos =
            "soak_ckpt_" + std::to_string(i) + "_chaos.bin";
        CampaignOutcome o;
        // Campaign 0's reference disables FDI to prove pass-through
        // byte-identity; every other campaign compares like-for-like.
        const bool ref_fdi = (i == 0) ? false : c.fdi_enabled;
        o.reference =
            run_campaign(params, profile, c, /*chaos=*/false, ref_fdi, ckpt_ref);
        const std::string flight_path =
            flight_prefix.empty()
                ? std::string()
                : flight_prefix + "_c" + std::to_string(i) + ".json";
        o.chaos = run_campaign(params, profile, c, /*chaos=*/true,
                               c.fdi_enabled, ckpt_chaos, flight_path);
        o.diff = diff_runs(o.reference, o.chaos);
        o.audit = audit_finiteness(o.chaos.result);
        return o;
      });

  TextTable table({"campaign", "specs", "kills", "compared", "mismatched",
                   "non-finite", "FDI subst", "comfort viol [%]"});
  bool ok = true;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const Campaign& c = campaigns[i];
    const CampaignOutcome& o = outcomes[i];
    if (o.diff.mismatched > 0 || o.audit.nonfinite > 0) ok = false;
    table.add_row(
        {c.label, std::to_string(c.specs.size()),
         std::to_string(c.kill_steps.size()), std::to_string(o.diff.compared),
         std::to_string(o.diff.mismatched), std::to_string(o.audit.nonfinite),
         std::to_string(o.chaos.supervisor.fdi_substituted_steps),
         TextTable::num(100.0 * o.chaos.result.metrics.comfort.fraction_outside,
                        2)});
  }

  std::cout << table.render(
      "Chaos soak — kill-and-resume differential, ECE_EUDC @ 35 C");
  std::cout << "\nExpected shape: zero mismatches (checkpoint/restore and the "
               "FDI pass-through\nare bit-exact) and zero non-finite samples "
               "in every campaign.\n";
  for (const CampaignOutcome& o : outcomes)
    for (const std::string& note : o.diff.notes)
      std::cerr << "  MISMATCH " << note << "\n";

  if (!out_path.empty())
    write_json(out_path, profile, static_cast<std::uint64_t>(seed), campaigns,
               outcomes);

  return ok ? 0 : 1;
}
