#include "drivecycle/standard_cycles.hpp"

#include <cmath>

#include "util/expect.hpp"
#include "util/interp.hpp"
#include "util/units.hpp"

namespace evc::drive {

namespace {

/// (time s, speed km/h) knot; cycles are linear between knots.
struct Knot {
  double t;
  double v_kmh;
};

/// ECE-15 elementary urban cycle, 195 s (UN ECE R83 piecewise definition).
std::vector<Knot> ece15_knots(double t0) {
  const std::vector<Knot> base{
      {0, 0},    {11, 0},   {15, 15},  {23, 15},  {28, 0},   {49, 0},
      {61, 32},  {85, 32},  {96, 0},   {117, 0},  {143, 50}, {155, 50},
      {163, 35}, {176, 35}, {188, 0},  {195, 0},
  };
  std::vector<Knot> out;
  out.reserve(base.size());
  for (const Knot& k : base) out.push_back({k.t + t0, k.v_kmh});
  return out;
}

/// Extra-urban cycle, 400 s. `low_power` caps the top speed at 90 km/h
/// (the Annex "low-powered vehicle" variant — the paper's ECE_EUDC).
std::vector<Knot> eudc_knots(double t0, bool low_power) {
  std::vector<Knot> base;
  if (!low_power) {
    base = {{0, 0},     {20, 0},    {61, 70},   {111, 70}, {119, 50},
            {188, 50},  {201, 70},  {251, 70},  {286, 100}, {316, 100},
            {336, 120}, {346, 120}, {362, 80},  {370, 50}, {380, 0},
            {400, 0}};
  } else {
    base = {{0, 0},    {20, 0},   {61, 70},  {111, 70}, {119, 50},
            {188, 50}, {201, 70}, {251, 70}, {286, 90}, {346, 90},
            {362, 80}, {370, 50}, {380, 0},  {400, 0}};
  }
  for (Knot& k : base) k.t += t0;
  return base;
}

std::vector<Knot> nedc_knots(bool low_power) {
  std::vector<Knot> out;
  for (int rep = 0; rep < 4; ++rep) {
    auto part = ece15_knots(195.0 * rep);
    // Skip the duplicate joint knot between repetitions.
    const std::size_t skip = rep == 0 ? 0 : 1;
    out.insert(out.end(), part.begin() + skip, part.end());
  }
  auto ex = eudc_knots(780.0, low_power);
  out.insert(out.end(), ex.begin() + 1, ex.end());
  return out;
}

/// US06 supplemental FTP cycle — synthesized to the published statistics
/// (596 s, 12.89 km, 129.2 km/h max, aggressive accelerations).
std::vector<Knot> us06_knots() {
  return {{0, 0},     {5, 0},     {25, 80},   {35, 60},   {50, 95},
          {70, 40},   {80, 45},   {95, 0},    {105, 0},   {125, 100},
          {160, 129}, {210, 124}, {240, 95},  {275, 128}, {350, 129},
          {385, 105}, {415, 120}, {450, 0},   {470, 0},   {500, 50},
          {520, 30},  {545, 0},   {596, 0}};
}

/// SC03 air-conditioning SFTP cycle — synthesized to the published
/// statistics (596 s, 5.76 km, 88.2 km/h max, urban stop-and-go).
std::vector<Knot> sc03_knots() {
  return {{0, 0},    {20, 0},   {40, 50},  {60, 40},  {80, 55},  {100, 0},
          {115, 0},  {135, 88}, {190, 78}, {215, 0},  {230, 0},  {250, 45},
          {270, 50}, {290, 0},  {305, 0},  {325, 60}, {355, 55}, {375, 30},
          {395, 65}, {425, 0},  {445, 0},  {465, 40}, {485, 35}, {505, 45},
          {525, 0},  {545, 0},  {565, 35}, {585, 20}, {596, 0}};
}

/// One urban speed hump: idle, linear accel to `peak`, cruise, decel to 0.
struct Hump {
  double peak_kmh;
  double accel_s;
  double cruise_s;
  double decel_s;
  double idle_s;  ///< idle *before* the hump
};

std::vector<Knot> knots_from_humps(const std::vector<Hump>& humps,
                                   double tail_idle_s) {
  std::vector<Knot> out{{0, 0}};
  double t = 0.0;
  for (const Hump& h : humps) {
    t += h.idle_s;
    out.push_back({t, 0});
    t += h.accel_s;
    out.push_back({t, h.peak_kmh});
    t += h.cruise_s;
    out.push_back({t, h.peak_kmh});
    t += h.decel_s;
    out.push_back({t, 0});
  }
  t += tail_idle_s;
  out.push_back({t, 0});
  return out;
}

/// UDDS (FTP-72 urban cycle) — synthesized as 17 stop-separated humps to the
/// published statistics (1369 s, 12.07 km, 91.2 km/h max, ~17 stops).
std::vector<Knot> udds_knots() {
  const std::vector<Hump> humps{
      {50.0, 25, 40, 20, 20},   {91.2, 45, 60, 35, 15},
      {35.0, 12, 25, 10, 15},   {50.0, 18, 30, 14, 20},
      {40.0, 14, 25, 12, 18},   {56.0, 20, 35, 16, 15},
      {45.0, 15, 30, 13, 20},   {32.0, 10, 20, 9, 14},
      {55.0, 18, 32, 15, 18},   {42.0, 14, 26, 12, 16},
      {60.0, 22, 36, 17, 15},   {38.0, 12, 24, 11, 17},
      {48.0, 16, 30, 14, 19},   {35.0, 11, 22, 10, 15},
      {52.0, 17, 32, 15, 18},   {44.0, 14, 26, 12, 16},
      {40.0, 13, 24, 11, 14},
  };
  return knots_from_humps(humps, 25.0);
}

/// WLTC class 3b — synthesized to the published statistics (1800 s,
/// 23.27 km, 131.3 km/h max) with its four phases: low (589 s, urban
/// stop-and-go), medium (433 s), high (455 s), extra-high (323 s).
std::vector<Knot> wltp_knots() {
  // Low phase ≈ 585 s / 3.1 km of urban stop-and-go.
  std::vector<Hump> low{
      {40.0, 15, 25, 12, 29},   {50.0, 18, 20, 14, 32},
      {56.5, 20, 22, 16, 35},   {35.0, 12, 22, 10, 31},
      {48.0, 16, 28, 14, 37},   {42.0, 14, 22, 12, 33},
      {30.0, 10, 18, 9, 29},
  };
  auto knots = knots_from_humps(low, 10.0);
  const double t_low = knots.back().t;
  // Medium phase 433 s / ≈ 4.76 km, peak 76.6 km/h, one mid-phase stop.
  std::vector<Knot> medium{{0, 0},     {30, 50},  {80, 45},  {120, 0},
                           {140, 0},   {190, 76.6}, {260, 60}, {330, 45},
                           {400, 25},  {423, 0},  {433, 0}};
  for (Knot& k : medium) k.t += t_low;
  knots.insert(knots.end(), medium.begin() + 1, medium.end());
  const double t_med = knots.back().t;
  // High phase 455 s / ≈ 6.6 km, peak 97.4 km/h.
  std::vector<Knot> high{{0, 0},      {40, 60},  {100, 70}, {160, 0},
                         {180, 0},    {240, 97.4}, {330, 85}, {380, 60},
                         {440, 0},    {455, 0}};
  for (Knot& k : high) k.t += t_med;
  knots.insert(knots.end(), high.begin() + 1, high.end());
  const double t_high = knots.back().t;
  // Extra-high phase 323 s / ≈ 8.7 km, peak 131.3 km/h, ends at rest.
  std::vector<Knot> xhigh{{0, 0},     {45, 95},   {110, 118}, {175, 131.3},
                          {230, 118}, {280, 90},  {310, 40},  {318, 0},
                          {323, 0}};
  for (Knot& k : xhigh) k.t += t_high;
  knots.insert(knots.end(), xhigh.begin() + 1, xhigh.end());
  return knots;
}

/// HWFET (EPA highway fuel economy test) — synthesized to the published
/// statistics (765 s, 16.45 km, 96.4 km/h max, no intermediate stops).
std::vector<Knot> hwfet_knots() {
  return {{0, 0},     {35, 80},   {100, 90},  {180, 78}, {260, 88},
          {340, 96.4}, {420, 88},  {500, 92},  {580, 85}, {660, 90},
          {730, 48},  {765, 0}};
}

/// JC08 (Japan urban/expressway) — synthesized to the published statistics
/// (1204 s, 8.17 km, 81.6 km/h max, ~30 % idle).
std::vector<Knot> jc08_knots() {
  const std::vector<Hump> humps{
      {30.0, 12, 18, 10, 35},  {40.0, 15, 25, 12, 38},
      {55.0, 20, 30, 15, 40},  {35.0, 12, 20, 10, 36},
      {60.0, 22, 35, 16, 38},  {45.0, 15, 25, 13, 40},
      {70.0, 25, 40, 18, 35},  {40.0, 14, 22, 11, 42},
      {81.6, 30, 45, 20, 38},  {50.0, 16, 28, 13, 40},
      {35.0, 12, 20, 10, 38},  {55.0, 18, 30, 14, 40},
  };
  return knots_from_humps(humps, 33.0);
}

std::vector<Knot> knots_for(StandardCycle cycle) {
  switch (cycle) {
    case StandardCycle::kNedc:
      return nedc_knots(/*low_power=*/false);
    case StandardCycle::kEceEudc:
      return nedc_knots(/*low_power=*/true);
    case StandardCycle::kUs06:
      return us06_knots();
    case StandardCycle::kSc03:
      return sc03_knots();
    case StandardCycle::kUdds:
      return udds_knots();
    case StandardCycle::kWltp:
      return wltp_knots();
    case StandardCycle::kHwfet:
      return hwfet_knots();
    case StandardCycle::kJc08:
      return jc08_knots();
  }
  EVC_UNREACHABLE("cycle enum out of range");
}

}  // namespace

std::vector<StandardCycle> all_standard_cycles() {
  return {StandardCycle::kNedc, StandardCycle::kUs06, StandardCycle::kEceEudc,
          StandardCycle::kSc03, StandardCycle::kUdds};
}

std::vector<StandardCycle> extended_cycles() {
  return {StandardCycle::kWltp, StandardCycle::kHwfet, StandardCycle::kJc08};
}

std::string cycle_name(StandardCycle cycle) {
  switch (cycle) {
    case StandardCycle::kNedc:
      return "NEDC";
    case StandardCycle::kUs06:
      return "US06";
    case StandardCycle::kEceEudc:
      return "ECE_EUDC";
    case StandardCycle::kSc03:
      return "SC03";
    case StandardCycle::kUdds:
      return "UDDS";
    case StandardCycle::kWltp:
      return "WLTP";
    case StandardCycle::kHwfet:
      return "HWFET";
    case StandardCycle::kJc08:
      return "JC08";
  }
  return "unknown";
}

CycleReference cycle_reference(StandardCycle cycle) {
  switch (cycle) {
    case StandardCycle::kNedc:
      return {1180.0, 11.02, 120.0};
    case StandardCycle::kUs06:
      return {596.0, 12.89, 129.2};  // published EPA statistics
    case StandardCycle::kEceEudc:
      return {1180.0, 10.5, 90.0};  // low-powered-vehicle NEDC variant
    case StandardCycle::kSc03:
      return {596.0, 5.76, 88.2};  // published EPA statistics
    case StandardCycle::kUdds:
      return {1369.0, 12.07, 91.2};  // published EPA statistics
    case StandardCycle::kWltp:
      return {1800.0, 23.27, 131.3};  // published WLTC class 3b statistics
    case StandardCycle::kHwfet:
      return {765.0, 16.45, 96.4};  // published EPA statistics
    case StandardCycle::kJc08:
      return {1204.0, 8.17, 81.6};  // published JC08 statistics
  }
  EVC_UNREACHABLE("cycle enum out of range");
}

DriveProfile make_cycle_profile(StandardCycle cycle, double ambient_c,
                                double dt) {
  EVC_EXPECT(dt > 0.0, "cycle sample period must be positive");
  const auto knots = knots_for(cycle);
  std::vector<double> ts, vs;
  ts.reserve(knots.size());
  vs.reserve(knots.size());
  for (const Knot& k : knots) {
    ts.push_back(k.t);
    vs.push_back(units::kmh_to_mps(k.v_kmh));
  }
  const LookupTable1D speed(ts, vs);
  const double duration = ts.back();

  const std::size_t n = static_cast<std::size_t>(std::round(duration / dt));
  std::vector<DriveSample> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * dt;
    DriveSample& s = samples[i];
    s.speed_mps = speed(t);
    // Forward-difference acceleration over the sample period; zero at the
    // final sample (cycle ends at rest).
    s.accel_mps2 = (speed(std::min(t + dt, duration)) - s.speed_mps) / dt;
    s.slope_percent = 0.0;  // standard cycles are defined on flat road
    s.ambient_c = ambient_c;
  }
  return DriveProfile(cycle_name(cycle), dt, std::move(samples));
}

}  // namespace evc::drive
