// Tests for the MPC formulation (variable packing, constraint functions,
// Jacobian correctness via finite differences) and the MPC controller.
#include <gtest/gtest.h>

#include <cmath>

#include "core/mpc_controller.hpp"
#include "core/mpc_formulation.hpp"
#include "util/random.hpp"

namespace evc::core {
namespace {

MpcWindowData make_window(std::size_t horizon, double power_kw = 8.0,
                          double to = 35.0) {
  MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = 25.0;
  w.initial_soc_percent = 88.0;
  w.fixed_power_kw.assign(horizon, power_kw);
  w.outside_temp_c.assign(horizon, to);
  return w;
}

MpcFormulation make_formulation(std::size_t horizon = 6) {
  return MpcFormulation(hvac::default_hvac_params(), bat::leaf_24kwh_params(),
                        MpcWeights{}, make_window(horizon));
}

TEST(MpcIndex, PackingIsDenseAndDisjoint) {
  const MpcIndex idx(5);
  EXPECT_EQ(idx.num_vars(), 57u);
  EXPECT_EQ(idx.num_eq(), 32u);
  EXPECT_EQ(idx.num_ineq(), 80u);
  std::vector<bool> seen(idx.num_vars(), false);
  auto mark = [&](std::size_t i) {
    ASSERT_LT(i, seen.size());
    EXPECT_FALSE(seen[i]) << "index " << i << " assigned twice";
    seen[i] = true;
  };
  for (std::size_t k = 0; k <= 5; ++k) mark(idx.x(k));
  for (std::size_t k = 0; k < 5; ++k) {
    mark(idx.ts(k));
    mark(idx.tc(k));
    mark(idx.dr(k));
    mark(idx.mz(k));
    mark(idx.tm(k));
    mark(idx.ph(k));
    mark(idx.pc(k));
    mark(idx.pf(k));
  }
  for (std::size_t k = 0; k <= 5; ++k) mark(idx.soc(k));
  for (std::size_t k = 0; k < 5; ++k) mark(idx.slack(k));
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(MpcIndex, RejectsOutOfHorizonAccess) {
  const MpcIndex idx(4);
  EXPECT_THROW(idx.x(5), std::invalid_argument);
  EXPECT_THROW(idx.ts(4), std::invalid_argument);
  EXPECT_THROW(idx.soc(6), std::invalid_argument);
}

TEST(MpcFormulation, ColdStartSatisfiesMostConstraints) {
  const MpcFormulation f = make_formulation();
  const num::Vector z = f.cold_start();
  // All equalities except (possibly) the cabin drift rows are satisfied.
  const num::Vector c = f.eq_constraints(z);
  // Mixer, coil, fan, SoC, and initial-condition rows are exactly zero.
  const std::size_t horizon = f.index().horizon();
  for (std::size_t k = 0; k < horizon; ++k) {
    EXPECT_NEAR(c[6 * k + 1], 0.0, 1e-12) << "mixer " << k;
    EXPECT_NEAR(c[6 * k + 2], 0.0, 1e-12) << "heater " << k;
    EXPECT_NEAR(c[6 * k + 3], 0.0, 1e-12) << "cooler " << k;
    EXPECT_NEAR(c[6 * k + 4], 0.0, 1e-12) << "fan " << k;
    EXPECT_NEAR(c[6 * k + 5], 0.0, 1e-12) << "soc " << k;
  }
  EXPECT_NEAR(c[6 * horizon], 0.0, 1e-12);
  EXPECT_NEAR(c[6 * horizon + 1], 0.0, 1e-12);
  // Inequalities hold at the cold start.
  const num::Vector slack = f.ineq_vector() - f.ineq_matrix().multiply(z);
  for (std::size_t i = 0; i < slack.size(); ++i)
    EXPECT_GT(slack[i], -1e-9) << "ineq row " << i;
}

TEST(MpcFormulation, JacobianMatchesFiniteDifferences) {
  const MpcFormulation f = make_formulation(4);
  SplitMix64 rng(17);
  num::Vector z = f.cold_start();
  // Perturb to a generic (infeasible) point so all bilinear terms are live.
  for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.uniform(-0.3, 0.3);

  num::CsrMatrix sparse_jac;
  f.eq_jacobian(z, sparse_jac);
  const num::Matrix jac = sparse_jac.to_dense();
  const num::Vector c0 = f.eq_constraints(z);
  const double h = 1e-6;
  for (std::size_t j = 0; j < z.size(); ++j) {
    num::Vector zp = z;
    zp[j] += h;
    const num::Vector cp = f.eq_constraints(zp);
    for (std::size_t i = 0; i < c0.size(); ++i) {
      const double fd = (cp[i] - c0[i]) / h;
      EXPECT_NEAR(jac(i, j), fd, 1e-5)
          << "d c[" << i << "] / d z[" << j << "]";
    }
  }
}

TEST(MpcFormulation, CostGradientMatchesFiniteDifferences) {
  const MpcFormulation f = make_formulation(4);
  SplitMix64 rng(23);
  num::Vector z = f.cold_start();
  for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.uniform(-0.2, 0.2);
  const num::Vector g = f.cost_gradient(z);
  const double c0 = f.cost(z);
  const double h = 1e-6;
  for (std::size_t j = 0; j < z.size(); ++j) {
    num::Vector zp = z;
    zp[j] += h;
    EXPECT_NEAR(g[j], (f.cost(zp) - c0) / h, 1e-4) << "grad[" << j << "]";
  }
}

TEST(MpcFormulation, CostHessianIsPsd) {
  const MpcFormulation f = make_formulation(5);
  const num::Matrix h = f.cost_hessian().to_dense();
  SplitMix64 rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    num::Vector v(h.rows());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.uniform(-1, 1);
    EXPECT_GE(v.dot(h * v), -1e-9);
  }
}

TEST(MpcFormulation, SocDeviationTermIsTranslationInvariant) {
  // Adding a constant to all SoC variables must not change the deviation
  // cost (it penalizes variance, not level).
  const MpcFormulation f = make_formulation(5);
  const MpcIndex& idx = f.index();
  num::Vector z = f.cold_start();
  const double c0 = f.cost(z);
  for (std::size_t k = 0; k <= idx.horizon(); ++k) z[idx.soc(k)] += 7.0;
  EXPECT_NEAR(f.cost(z), c0, 1e-8);
}

// The QP reuses the Jacobian's storage and its KKT analysis across SQP
// iterations: the stored pattern must not depend on the iterate, even
// where a coefficient vanishes (Ts = Tc at the cold start zeroes the coil
// rows' flow coefficients).
TEST(MpcFormulation, JacobianPatternIsFixed) {
  const MpcFormulation f = make_formulation(5);
  num::CsrMatrix cold;
  f.eq_jacobian(f.cold_start(), cold);
  SplitMix64 rng(29);
  num::Vector z = f.cold_start();
  for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.uniform(-0.5, 0.5);
  num::CsrMatrix moved = cold;  // refilled in place
  f.eq_jacobian(z, moved);

  ASSERT_EQ(cold.rows(), f.num_eq());
  ASSERT_EQ(cold.cols(), f.num_vars());
  ASSERT_EQ(moved.rows(), cold.rows());
  ASSERT_EQ(moved.nnz(), cold.nnz());
  for (std::size_t r = 0; r <= cold.rows(); ++r)
    EXPECT_EQ(moved.row_ptr()[r], cold.row_ptr()[r]) << "row " << r;
  for (std::size_t k = 0; k < cold.nnz(); ++k)
    EXPECT_EQ(moved.col_idx()[k], cold.col_idx()[k]) << "entry " << k;
  std::size_t stored_zeros = 0;
  for (std::size_t k = 0; k < cold.nnz(); ++k)
    if (cold.values()[k] == 0.0) ++stored_zeros;
  EXPECT_GT(stored_zeros, 0u);
}

TEST(MpcFormulation, HessianStoresEveryDiagonalEntry) {
  const MpcFormulation f = make_formulation(5);
  const num::CsrMatrix& h = f.cost_hessian();
  ASSERT_EQ(h.rows(), f.num_vars());
  for (std::size_t i = 0; i < h.rows(); ++i) {
    bool stored = false;
    for (std::size_t k = h.row_ptr()[i]; k < h.row_ptr()[i + 1]; ++k)
      stored = stored || h.col_idx()[k] == i;
    EXPECT_TRUE(stored) << "diagonal " << i;
  }
  // The SQP regularizes each diagonal entry in place.
  num::CsrMatrix reg = h;
  reg.add_to_diagonal(1e-8);
  for (std::size_t i = 0; i < h.rows(); ++i)
    EXPECT_EQ(reg.coeff(i, i), h.coeff(i, i) + 1e-8);
}

// Dense reference of the cost Hessian (Eq. 21 plus the optional actuator-
// rate term) and of the inequality system C1–C10 with the soft comfort
// zone, written straight from the formulation's definition.
num::Matrix reference_hessian(const MpcIndex& idx, const MpcWeights& w,
                              bool soc_reference) {
  const std::size_t horizon = idx.horizon();
  num::Matrix h(idx.num_vars(), idx.num_vars());
  for (std::size_t k = 0; k <= horizon; ++k)
    h(idx.x(k), idx.x(k)) += 2.0 * w.comfort;
  if (w.input_rate > 0.0) {
    const double scale[4] = {1.0, 1.0, 100.0, 1600.0};
    for (std::size_t k = 0; k + 1 < horizon; ++k) {
      const std::size_t a[4] = {idx.ts(k), idx.tc(k), idx.dr(k), idx.mz(k)};
      const std::size_t b[4] = {idx.ts(k + 1), idx.tc(k + 1), idx.dr(k + 1),
                                idx.mz(k + 1)};
      for (int ch = 0; ch < 4; ++ch) {
        const double wr = 2.0 * w.input_rate * scale[ch];
        h(a[ch], a[ch]) += wr;
        h(b[ch], b[ch]) += wr;
        h(a[ch], b[ch]) -= wr;
        h(b[ch], a[ch]) -= wr;
      }
    }
  }
  const std::size_t m = horizon + 1;
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b) {
      if (soc_reference && a != b) continue;
      const double centering =
          soc_reference ? 1.0
                        : (a == b ? 1.0 : 0.0) - 1.0 / static_cast<double>(m);
      h(idx.soc(a), idx.soc(b)) += 2.0 * w.soc_deviation * centering;
    }
  return h;
}

num::Matrix reference_inequalities(const MpcIndex& idx) {
  num::Matrix a(idx.num_ineq(), idx.num_vars());
  std::size_t row = 0;
  for (std::size_t k = 0; k < idx.horizon(); ++k) {
    a(row++, idx.mz(k)) = 1.0;   // C1
    a(row++, idx.mz(k)) = -1.0;
    a(row, idx.x(k + 1)) = 1.0;  // C2, soft
    a(row++, idx.slack(k)) = -1.0;
    a(row, idx.x(k + 1)) = -1.0;
    a(row++, idx.slack(k)) = -1.0;
    a(row++, idx.slack(k)) = -1.0;
    a(row, idx.tc(k)) = 1.0;  // C3: Tc ≤ Ts
    a(row++, idx.ts(k)) = -1.0;
    a(row, idx.tc(k)) = 1.0;  // C4: Tc ≤ Tm
    a(row++, idx.tm(k)) = -1.0;
    a(row++, idx.tc(k)) = -1.0;  // C5
    a(row++, idx.ts(k)) = 1.0;   // C6
    a(row++, idx.dr(k)) = 1.0;   // C7
    a(row++, idx.dr(k)) = -1.0;
    a(row++, idx.ph(k)) = 1.0;  // C8/C9
    a(row++, idx.ph(k)) = -1.0;
    a(row++, idx.pc(k)) = 1.0;
    a(row++, idx.pc(k)) = -1.0;
    a(row++, idx.pf(k)) = 1.0;  // C10
  }
  EXPECT_EQ(row, idx.num_ineq());
  return a;
}

void expect_same(const num::Matrix& got, const num::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < want.rows(); ++r)
    for (std::size_t c = 0; c < want.cols(); ++c)
      EXPECT_EQ(got(r, c), want(r, c)) << "(" << r << ", " << c << ")";
}

TEST(MpcFormulation, SparseMatricesMatchDenseReference) {
  for (const bool with_reference : {false, true}) {
    MpcWeights weights;
    weights.input_rate = with_reference ? 0.5 : 0.0;
    MpcWindowData w = make_window(5);
    if (with_reference) w.soc_reference = 80.0;
    const MpcFormulation f(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params(), weights, w);
    expect_same(f.cost_hessian().to_dense(),
                reference_hessian(f.index(), weights, with_reference));
    expect_same(f.ineq_matrix().to_dense(), reference_inequalities(f.index()));
  }
}

TEST(MpcFormulation, RejectsInconsistentWindow) {
  MpcWindowData w = make_window(6);
  w.outside_temp_c.resize(3);  // mismatched forecast lengths
  EXPECT_THROW(MpcFormulation(hvac::default_hvac_params(),
                              bat::leaf_24kwh_params(), MpcWeights{}, w),
               std::invalid_argument);
}

// --- Controller-level behaviour ---

ctl::ControlContext steady_context(double tz, double to, double power_w,
                                   std::size_t samples = 120) {
  ctl::ControlContext c;
  c.dt_s = 1.0;
  c.cabin_temp_c = tz;
  c.outside_temp_c = to;
  c.soc_percent = 88.0;
  c.motor_power_forecast_w.assign(samples, power_w);
  c.outside_temp_forecast_c.assign(samples, to);
  return c;
}

TEST(MpcController, ProducesPhysicalInputsAndPlans) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  const auto in = ctl.decide(steady_context(27.0, 38.0, 10e3));
  EXPECT_EQ(ctl.stats().plans, 1u);
  EXPECT_EQ(ctl.stats().failures, 0u);
  const hvac::HvacParams p = hvac::default_hvac_params();
  EXPECT_GE(in.air_flow_kg_s, p.min_air_flow_kg_s - 1e-6);
  EXPECT_LE(in.air_flow_kg_s, p.max_air_flow_kg_s + 1e-6);
  EXPECT_GE(in.recirculation, -1e-6);
  EXPECT_LE(in.recirculation, p.max_recirculation + 1e-6);
  // Hot cabin in hot ambient → the plan must cool (supply below cabin).
  EXPECT_LT(in.supply_temp_c, 27.0);
  // Planned SoC trajectory is populated and decreasing.
  ASSERT_FALSE(ctl.planned_soc().empty());
  EXPECT_LT(ctl.planned_soc().back(), ctl.planned_soc().front());
}

TEST(MpcController, HoldsInputBetweenPlanningInstants) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  auto c = steady_context(25.0, 35.0, 8e3);
  c.time_s = 0.0;
  const auto first = ctl.decide(c);
  c.time_s = 1.0;
  c.cabin_temp_c = 24.8;  // measurement changed, but no replan yet
  const auto held = ctl.decide(c);
  EXPECT_EQ(ctl.stats().plans, 1u);
  EXPECT_DOUBLE_EQ(held.supply_temp_c, first.supply_temp_c);
  c.time_s = 5.0;  // replanning instant
  ctl.decide(c);
  EXPECT_EQ(ctl.stats().plans, 2u);
}

TEST(MpcController, HeatsInColdAmbient) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  const auto in = ctl.decide(steady_context(22.5, -5.0, 8e3));
  EXPECT_EQ(ctl.stats().failures, 0u);
  EXPECT_GT(in.supply_temp_c, 23.0);  // supply warmer than the cabin
}

TEST(MpcController, PrefersRecirculationInExtremeHeat) {
  // Recirculating cabin air at 43 °C outside cuts the ventilation load; the
  // optimizer should discover a high damper setting.
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  const auto in = ctl.decide(steady_context(25.0, 43.0, 8e3));
  EXPECT_GT(in.recirculation, 0.5);
}

TEST(MpcController, ResetClearsPlanState) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  ctl.decide(steady_context(25.0, 35.0, 8e3));
  ctl.reset();
  EXPECT_EQ(ctl.stats().plans, 0u);
  EXPECT_TRUE(ctl.planned_soc().empty());
}

TEST(MpcController, EmptyForecastFallsBackGracefully) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  ctl::ControlContext c;
  c.cabin_temp_c = 26.0;
  c.outside_temp_c = 35.0;
  c.soc_percent = 80.0;
  // No forecast at all: the controller must still produce a usable input.
  const auto in = ctl.decide(c);
  EXPECT_GT(in.air_flow_kg_s, 0.0);
}

TEST(MpcController, RejectsDegenerateOptions) {
  MpcOptions opts;
  opts.horizon = 1;
  EXPECT_THROW(MpcClimateController(hvac::default_hvac_params(),
                                    bat::leaf_24kwh_params(), opts),
               std::invalid_argument);
  opts = MpcOptions{};
  opts.step_s = 0.0;
  EXPECT_THROW(MpcClimateController(hvac::default_hvac_params(),
                                    bat::leaf_24kwh_params(), opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace evc::core

namespace evc::core {
namespace {

TEST(MpcFormulationNonlinearBattery, JacobianMatchesFiniteDifferences) {
  MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = 25.0;
  w.initial_soc_percent = 88.0;
  w.fixed_power_kw.assign(4, 8.0);
  w.outside_temp_c.assign(4, 35.0);
  w.nonlinear_battery = true;
  MpcFormulation f(hvac::default_hvac_params(), bat::leaf_24kwh_params(),
                   MpcWeights{}, w);
  SplitMix64 rng(41);
  num::Vector z = f.cold_start();
  for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.uniform(-0.3, 0.3);

  num::CsrMatrix sparse_jac;
  f.eq_jacobian(z, sparse_jac);
  const num::Matrix jac = sparse_jac.to_dense();
  const num::Vector c0 = f.eq_constraints(z);
  const double h = 1e-6;
  for (std::size_t j = 0; j < z.size(); ++j) {
    num::Vector zp = z;
    zp[j] += h;
    const num::Vector cp = f.eq_constraints(zp);
    for (std::size_t i = 0; i < c0.size(); ++i)
      EXPECT_NEAR(jac(i, j), (cp[i] - c0[i]) / h, 1e-4)
          << "d c[" << i << "] / d z[" << j << "]";
  }
}

TEST(MpcFormulationNonlinearBattery, HighPowerDrainsSuperlinearly) {
  const auto soc_drop_for = [](double fixed_kw) {
    MpcWindowData w;
    w.dt_s = 5.0;
    w.initial_cabin_temp_c = 24.0;
    w.initial_soc_percent = 90.0;
    w.fixed_power_kw.assign(2, fixed_kw);
    w.outside_temp_c.assign(2, 24.0);
    w.nonlinear_battery = true;
    MpcFormulation f(hvac::default_hvac_params(), bat::leaf_24kwh_params(),
                     MpcWeights{}, w);
    // Read the drain straight off the battery equality at the cold start
    // (coils idle): residual c = soc' − soc + κΔt·g(P) with soc' = soc.
    const num::Vector z = f.cold_start();
    const num::Vector c = f.eq_constraints(z);
    return c[5];  // battery row of step 0 (6 rows per step, index 5)
  };
  // Doubling the power more than doubles the drain residual.
  const double low = soc_drop_for(10.0);
  const double high = soc_drop_for(20.0);
  EXPECT_GT(high, 2.0 * low * 1.01);
}

}  // namespace
}  // namespace evc::core
