// Shared helpers for the benches that step a svc::SessionService fleet
// (bench_service_scale, bench_fleet_scale).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <future>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/session_service.hpp"

namespace evc::bench {

/// Requests in flight per wave; a service's per-shard queue_capacity must
/// be at least this for a wave never to be rejected.
inline constexpr std::size_t kWave = 1024;

/// Submit one step for vehicles [0, count) in bounded waves and block until
/// all complete. Returns the number of kOk steps.
inline std::uint64_t sweep(svc::SessionService& service, std::size_t count) {
  std::uint64_t ok = 0;
  std::vector<std::future<svc::StepResult>> wave;
  wave.reserve(kWave);
  for (std::size_t begin = 0; begin < count; begin += kWave) {
    const std::size_t end = std::min(count, begin + kWave);
    wave.clear();
    for (std::size_t v = begin; v < end; ++v)
      wave.push_back(service.submit_step(static_cast<std::uint64_t>(v)));
    for (auto& future : wave)
      if (future.get().status == svc::StepStatus::kOk) ++ok;
  }
  return ok;
}

/// The process-wide svc.step_ns histogram (empty before any step).
inline obs::HistogramSummary step_histogram() {
  for (const obs::MetricValue& metric :
       obs::MetricsRegistry::global().snapshot().metrics)
    if (metric.name == "svc.step_ns") return metric.histogram;
  return {};
}

}  // namespace evc::bench
