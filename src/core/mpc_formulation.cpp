#include "core/mpc_formulation.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/expect.hpp"
#include "util/units.hpp"

namespace evc::core {

MpcFormulation::MpcFormulation(hvac::HvacParams hvac_params,
                               bat::BatteryParams battery_params,
                               MpcWeights weights, MpcWindowData window)
    : hvac_(hvac_params), battery_(battery_params), weights_(weights),
      window_(std::move(window)), idx_(window_.fixed_power_kw.size()) {
  hvac_.validate();
  battery_.validate();
  EVC_EXPECT(window_.dt_s > 0.0, "MPC step must be positive");
  EVC_EXPECT(window_.outside_temp_c.size() == idx_.horizon(),
             "forecast arrays must have equal length");
  EVC_EXPECT(weights_.power >= 0.0 && weights_.soc_deviation >= 0.0 &&
                 weights_.comfort >= 0.0,
             "MPC weights must be non-negative");

  // κ: SoC percent consumed per kW per second at the nominal voltage.
  kappa_ = 100.0 * 1000.0 /
           (battery_.nominal_voltage_v *
            units::ah_to_coulomb(battery_.nominal_capacity_ah));
  // Peukert normalization power (kW): the draw at the nominal current.
  peukert_pnom_kw_ =
      battery_.nominal_voltage_v * battery_.nominal_current_a / 1000.0;

  build_cost();
  build_inequalities();
}

void MpcFormulation::build_cost() {
  const std::size_t n = idx_.num_vars();
  const std::size_t horizon = idx_.horizon();
  gradient_const_ = num::Vector(n);
  // Every diagonal entry is stored, zero or not: the SQP adds its
  // regularization to each one.
  std::vector<num::CsrMatrix::Entry> h;
  for (std::size_t i = 0; i < n; ++i) h.push_back({i, i, 0.0});

  // w3·(Tz_k − Ttarget)² over k = 0..N (0.5 zᵀHz + gᵀz form → H gets 2w3).
  for (std::size_t k = 0; k <= horizon; ++k) {
    const std::size_t ix = idx_.x(k);
    h.push_back({ix, ix, 2.0 * weights_.comfort});
    gradient_const_[ix] += -2.0 * weights_.comfort * hvac_.target_temp_c;
  }

  // w1·(Ph+Pc+Pf) — linear; comfort-zone slack penalty — linear.
  for (std::size_t k = 0; k < horizon; ++k) {
    gradient_const_[idx_.ph(k)] += weights_.power;
    gradient_const_[idx_.pc(k)] += weights_.power;
    gradient_const_[idx_.pf(k)] += weights_.power;
    gradient_const_[idx_.slack(k)] += weights_.comfort_slack;
  }

  // Actuator-rate penalty Σ‖i_{k+1} − i_k‖²_W: tridiagonal blocks per
  // input channel. Per-channel scales put temperatures (K), damper
  // fraction, and flow (kg/s) on comparable footing.
  if (weights_.input_rate > 0.0 && horizon >= 2) {
    const double channel_scale[4] = {1.0, 1.0, 100.0, 1600.0};
    for (std::size_t k = 0; k + 1 < horizon; ++k) {
      const std::size_t a[4] = {idx_.ts(k), idx_.tc(k), idx_.dr(k),
                                idx_.mz(k)};
      const std::size_t b[4] = {idx_.ts(k + 1), idx_.tc(k + 1),
                                idx_.dr(k + 1), idx_.mz(k + 1)};
      for (int ch = 0; ch < 4; ++ch) {
        const double w = 2.0 * weights_.input_rate * channel_scale[ch];
        h.push_back({a[ch], a[ch], w});
        h.push_back({b[ch], b[ch], w});
        h.push_back({a[ch], b[ch], -w});
        h.push_back({b[ch], a[ch], -w});
      }
    }
  }

  const std::size_t m = horizon + 1;
  if (window_.soc_reference.has_value()) {
    // Paper's literal Eq. 21 form: w2·Σ(SoC_k − SoCavg)² against the
    // cycle-average reference supplied by the trip planner.
    const double ref = *window_.soc_reference;
    for (std::size_t a = 0; a < m; ++a) {
      const std::size_t i = idx_.soc(a);
      h.push_back({i, i, 2.0 * weights_.soc_deviation});
      gradient_const_[i] += -2.0 * weights_.soc_deviation * ref;
    }
  } else {
    // Window-variance form: w2·Σ(SoC_k − mean(SoC))², the centering
    // quadratic 2w2·(I − 11ᵀ/M).
    const double inv_m = 1.0 / static_cast<double>(m);
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = 0; b < m; ++b) {
        const double cij = (a == b ? 1.0 : 0.0) - inv_m;
        h.push_back(
            {idx_.soc(a), idx_.soc(b), 2.0 * weights_.soc_deviation * cij});
      }
    }
  }
  hessian_ = num::CsrMatrix::from_entries(n, n, std::move(h));
}

double MpcFormulation::peukert_g(double p_kw) const {
  if (!window_.nonlinear_battery) return p_kw;
  constexpr double kDelta = 0.5;  // kW smoothing near zero power
  const double mag = std::sqrt(p_kw * p_kw + kDelta * kDelta);
  return p_kw * std::pow(mag / peukert_pnom_kw_,
                         battery_.peukert_constant - 1.0);
}

double MpcFormulation::peukert_dg(double p_kw) const {
  if (!window_.nonlinear_battery) return 1.0;
  constexpr double kDelta = 0.5;
  const double pc1 = battery_.peukert_constant - 1.0;
  const double mag = std::sqrt(p_kw * p_kw + kDelta * kDelta);
  const double base = std::pow(mag / peukert_pnom_kw_, pc1);
  // d/dP [P·(mag/Pnom)^(pc−1)] = base + P·pc1·(mag/Pnom)^(pc−2)·(P/mag)/Pnom
  return base + p_kw * pc1 *
                    std::pow(mag / peukert_pnom_kw_, pc1 - 1.0) *
                    (p_kw / mag) / peukert_pnom_kw_;
}

double MpcFormulation::cost(const num::Vector& z) const {
  return 0.5 * z.dot(hessian_.multiply(z)) + gradient_const_.dot(z);
}

num::Vector MpcFormulation::cost_gradient(const num::Vector& z) const {
  return hessian_.multiply(z) + gradient_const_;
}

num::Vector MpcFormulation::eq_constraints(const num::Vector& z) const {
  const std::size_t horizon = idx_.horizon();
  const double dt = window_.dt_s;
  const double gamma = dt / hvac_.cabin_capacitance_j_per_k;
  const double cp = hvac_.air_cp;
  num::Vector c(idx_.num_eq());

  std::size_t row = 0;
  for (std::size_t k = 0; k < horizon; ++k) {
    const double to = window_.outside_temp_c[k];
    const double xk = z[idx_.x(k)];
    const double xk1 = z[idx_.x(k + 1)];
    const double xbar = 0.5 * (xk + xk1);
    const double ts = z[idx_.ts(k)];
    const double tc = z[idx_.tc(k)];
    const double dr = z[idx_.dr(k)];
    const double mz = z[idx_.mz(k)];
    const double tm = z[idx_.tm(k)];

    // Cabin dynamics (Eq. 18–19), scaled by Δt/Mc for conditioning.
    c[row++] = (xk1 - xk) -
               gamma * (hvac_.solar_load_w +
                        hvac_.wall_ua_w_per_k * (to - xbar) +
                        mz * cp * (ts - xbar));
    // Mixer (Eq. 9).
    c[row++] = tm - (1.0 - dr) * to - dr * xk;
    // Heater power in kW (Eq. 10).
    c[row++] = z[idx_.ph(k)] -
               cp / (1000.0 * hvac_.heater_efficiency) * mz * (ts - tc);
    // Cooler power in kW (Eq. 11).
    c[row++] = z[idx_.pc(k)] -
               cp / (1000.0 * hvac_.cooler_efficiency) * mz * (tm - tc);
    // Fan law in kW (Eq. 12).
    c[row++] = z[idx_.pf(k)] - hvac_.fan_coefficient / 1000.0 * mz * mz;
    // Battery charge balance: Eq. 13 linearized, or with the smoothed
    // Peukert correction when the window models the rate-capacity effect.
    c[row++] = z[idx_.soc(k + 1)] - z[idx_.soc(k)] +
               kappa_ * dt *
                   peukert_g(z[idx_.ph(k)] + z[idx_.pc(k)] + z[idx_.pf(k)] +
                             window_.fixed_power_kw[k]);
  }
  // Initial conditions (x0|t, Algorithm 1 lines 11, 21–22).
  c[row++] = z[idx_.x(0)] - window_.initial_cabin_temp_c;
  c[row++] = z[idx_.soc(0)] - window_.initial_soc_percent;
  EVC_ENSURE(row == idx_.num_eq(), "equality row count mismatch");
  return c;
}

void MpcFormulation::eq_jacobian(const num::Vector& z,
                                 num::CsrMatrix& j) const {
  const std::size_t horizon = idx_.horizon();
  const double dt = window_.dt_s;
  const double gamma = dt / hvac_.cabin_capacitance_j_per_k;
  const double cp = hvac_.air_cp;
  // Each row's entries are pushed in ascending column order; the packing
  // is x < Ts < Tc < dr < mz < Tm < Ph < Pc < Pf < SoC (MpcIndex).
  j.reset(idx_.num_vars());

  for (std::size_t k = 0; k < horizon; ++k) {
    const double to = window_.outside_temp_c[k];
    const double xk = z[idx_.x(k)];
    const double xk1 = z[idx_.x(k + 1)];
    const double xbar = 0.5 * (xk + xk1);
    const double ts = z[idx_.ts(k)];
    const double tc = z[idx_.tc(k)];
    const double dr = z[idx_.dr(k)];
    const double mz = z[idx_.mz(k)];
    const double tm = z[idx_.tm(k)];

    // Cabin dynamics row.
    const double half_coupling =
        0.5 * gamma * (hvac_.wall_ua_w_per_k + mz * cp);
    j.push(idx_.x(k), -1.0 + half_coupling);
    j.push(idx_.x(k + 1), 1.0 + half_coupling);
    j.push(idx_.ts(k), -gamma * mz * cp);
    j.push(idx_.mz(k), -gamma * cp * (ts - xbar));
    j.end_row();
    // Mixer row.
    j.push(idx_.x(k), -dr);
    j.push(idx_.dr(k), to - xk);
    j.push(idx_.tm(k), 1.0);
    j.end_row();
    // Heater row.
    {
      const double scale = cp / (1000.0 * hvac_.heater_efficiency);
      j.push(idx_.ts(k), -scale * mz);
      j.push(idx_.tc(k), scale * mz);
      j.push(idx_.mz(k), -scale * (ts - tc));
      j.push(idx_.ph(k), 1.0);
      j.end_row();
    }
    // Cooler row.
    {
      const double scale = cp / (1000.0 * hvac_.cooler_efficiency);
      j.push(idx_.tc(k), scale * mz);
      j.push(idx_.mz(k), -scale * (tm - tc));
      j.push(idx_.tm(k), -scale * mz);
      j.push(idx_.pc(k), 1.0);
      j.end_row();
    }
    // Fan row.
    j.push(idx_.mz(k), -2.0 * hvac_.fan_coefficient / 1000.0 * mz);
    j.push(idx_.pf(k), 1.0);
    j.end_row();
    // Battery row (linear, or chain rule through the Peukert throughput).
    {
      const double total_kw = z[idx_.ph(k)] + z[idx_.pc(k)] +
                              z[idx_.pf(k)] + window_.fixed_power_kw[k];
      const double sensitivity = kappa_ * dt * peukert_dg(total_kw);
      j.push(idx_.ph(k), sensitivity);
      j.push(idx_.pc(k), sensitivity);
      j.push(idx_.pf(k), sensitivity);
      j.push(idx_.soc(k), -1.0);
      j.push(idx_.soc(k + 1), 1.0);
      j.end_row();
    }
  }
  j.push(idx_.x(0), 1.0);
  j.end_row();
  j.push(idx_.soc(0), 1.0);
  j.end_row();
  EVC_ENSURE(j.rows() == idx_.num_eq(), "Jacobian row count mismatch");
}

void MpcFormulation::build_inequalities() {
  const std::size_t horizon = idx_.horizon();
  std::vector<num::CsrMatrix::Entry> a;
  b_vec_ = num::Vector(idx_.num_ineq());

  std::size_t row = 0;
  const auto coef = [&](std::size_t var, double value) {
    a.push_back({row, var, value});
  };
  auto upper = [&](std::size_t var, double bound) {
    coef(var, 1.0);
    b_vec_[row] = bound;
    ++row;
  };
  auto lower = [&](std::size_t var, double bound) {
    coef(var, -1.0);
    b_vec_[row] = -bound;
    ++row;
  };

  for (std::size_t k = 0; k < horizon; ++k) {
    // C1: flow bounds.
    upper(idx_.mz(k), hvac_.max_air_flow_kg_s);
    lower(idx_.mz(k), hvac_.min_air_flow_kg_s);
    // C2 (soft): comfort zone on the predicted states x_1..x_N with a
    // non-negative slack, so an infeasible start degrades instead of
    // aborting the plan.
    coef(idx_.x(k + 1), 1.0);
    coef(idx_.slack(k), -1.0);
    b_vec_[row] = hvac_.comfort_max_c;
    ++row;
    coef(idx_.x(k + 1), -1.0);
    coef(idx_.slack(k), -1.0);
    b_vec_[row] = -hvac_.comfort_min_c;
    ++row;
    lower(idx_.slack(k), 0.0);
    // C3: Tc ≤ Ts.
    coef(idx_.tc(k), 1.0);
    coef(idx_.ts(k), -1.0);
    b_vec_[row] = 0.0;
    ++row;
    // C4: Tc ≤ Tm.
    coef(idx_.tc(k), 1.0);
    coef(idx_.tm(k), -1.0);
    b_vec_[row] = 0.0;
    ++row;
    // C5: coil frost limit.
    lower(idx_.tc(k), hvac_.min_coil_temp_c);
    // C6: heater outlet limit.
    upper(idx_.ts(k), hvac_.max_supply_temp_c);
    // C7: damper range.
    upper(idx_.dr(k), hvac_.max_recirculation);
    lower(idx_.dr(k), 0.0);
    // C8/C9: coil power caps (kW) and non-negativity.
    upper(idx_.ph(k), hvac_.max_heater_power_w / 1000.0);
    lower(idx_.ph(k), 0.0);
    upper(idx_.pc(k), hvac_.max_cooler_power_w / 1000.0);
    lower(idx_.pc(k), 0.0);
    // C10: fan power cap (kW).
    upper(idx_.pf(k), hvac_.max_fan_power_w / 1000.0);
  }
  EVC_ENSURE(row == idx_.num_ineq(), "inequality row count mismatch");
  a_mat_ = num::CsrMatrix::from_entries(row, idx_.num_vars(), std::move(a));
}

num::Vector MpcFormulation::cold_start() const {
  const std::size_t horizon = idx_.horizon();
  num::Vector z(idx_.num_vars());
  const double tz0 = window_.initial_cabin_temp_c;
  double soc = window_.initial_soc_percent;
  for (std::size_t k = 0; k <= horizon; ++k) z[idx_.x(k)] = tz0;
  for (std::size_t k = 0; k < horizon; ++k) {
    const double to = window_.outside_temp_c[k];
    const double dr = 0.5 * hvac_.max_recirculation;
    const double tm = (1.0 - dr) * to + dr * tz0;
    const double mz = hvac_.min_air_flow_kg_s;
    z[idx_.ts(k)] = tm;
    z[idx_.tc(k)] = tm;
    z[idx_.dr(k)] = dr;
    z[idx_.mz(k)] = mz;
    z[idx_.tm(k)] = tm;
    z[idx_.ph(k)] = 0.0;
    z[idx_.pc(k)] = 0.0;
    const double pf_kw = hvac_.fan_coefficient / 1000.0 * mz * mz;
    z[idx_.pf(k)] = pf_kw;
    z[idx_.soc(k)] = soc;
    soc -= kappa_ * window_.dt_s * (pf_kw + window_.fixed_power_kw[k]);
    // Slack covers any initial comfort violation so the cold start is
    // feasible even for a heat-soaked or frozen cabin.
    z[idx_.slack(k)] = std::max({0.0, tz0 - hvac_.comfort_max_c,
                                 hvac_.comfort_min_c - tz0});
  }
  z[idx_.soc(horizon)] = soc;
  return z;
}

}  // namespace evc::core
