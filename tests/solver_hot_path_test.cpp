// Solver hot-path properties: allocation-free steady state of the QP
// workspace, and warm-started solves agreeing with cold-started ones.
#include <gtest/gtest.h>

#include <cstddef>

#include "battery/battery_params.hpp"
#include "core/mpc_controller.hpp"
#include "core/mpc_formulation.hpp"
#include "dense_qp.hpp"
#include "hvac/hvac_params.hpp"
#include "optim/qp.hpp"
#include "optim/sqp.hpp"
#include "util/random.hpp"

namespace {

using namespace evc;

opt::QpProblem random_qp(std::size_t n, std::size_t mi, std::size_t me,
                         std::uint64_t seed) {
  SplitMix64 rng(seed);
  opt::DenseQp p;
  num::Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1, 1);
  p.h = g.transposed() * g;
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 1.0;
  p.g = num::Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-2, 2);
  p.e_mat = num::Matrix(me, n);
  p.e_vec = num::Vector(me);
  for (std::size_t r = 0; r < me; ++r) {
    for (std::size_t c = 0; c < n; ++c) p.e_mat(r, c) = rng.uniform(-1, 1);
    p.e_vec[r] = rng.uniform(-0.5, 0.5);
  }
  p.a_mat = num::Matrix(mi, n);
  p.b_vec = num::Vector(mi);
  for (std::size_t r = 0; r < mi; ++r) {
    for (std::size_t c = 0; c < n; ++c) p.a_mat(r, c) = rng.uniform(-1, 1);
    p.b_vec[r] = rng.uniform(0.5, 2.0);
  }
  return p.sparse();
}

core::MpcFormulation make_window_formulation(std::size_t horizon) {
  core::MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = 25.5;
  w.initial_soc_percent = 88.0;
  w.fixed_power_kw.assign(horizon, 9.0);
  w.outside_temp_c.assign(horizon, 35.0);
  return core::MpcFormulation(hvac::default_hvac_params(),
                              bat::leaf_24kwh_params(), core::MpcWeights{},
                              w);
}

// Steady-state solving through a persistent workspace must not allocate:
// the growth counter moves on the first solve only.
TEST(QpWorkspace, SteadyStateIsAllocationFree) {
  const auto problem = random_qp(30, 60, 6, 11);
  opt::QpWorkspace ws;

  ASSERT_TRUE(opt::solve_qp(problem, {}, ws).usable());
  const std::size_t growths_after_first = ws.counters().workspace_growths;
  const std::size_t bytes_after_first = ws.bytes();
  EXPECT_GE(growths_after_first, 1u);
  EXPECT_EQ(ws.counters().peak_workspace_bytes, bytes_after_first);

  for (int round = 0; round < 5; ++round)
    ASSERT_TRUE(opt::solve_qp(problem, {}, ws).usable());
  EXPECT_EQ(ws.counters().workspace_growths, growths_after_first);
  EXPECT_EQ(ws.bytes(), bytes_after_first);
  EXPECT_EQ(ws.counters().solves, 6u);
}

TEST(QpWorkspace, SmallerProblemReusesStorage) {
  opt::QpWorkspace ws;
  ASSERT_TRUE(opt::solve_qp(random_qp(30, 60, 6, 12), {}, ws).usable());
  const std::size_t growths = ws.counters().workspace_growths;
  ASSERT_TRUE(opt::solve_qp(random_qp(12, 24, 3, 13), {}, ws).usable());
  EXPECT_EQ(ws.counters().workspace_growths, growths);
  ASSERT_TRUE(opt::solve_qp(random_qp(48, 96, 8, 14), {}, ws).usable());
  EXPECT_GT(ws.counters().workspace_growths, growths);
}

// Warm starting is a performance device, not a different algorithm: the
// solution must match the cold solve to solver tolerance.
TEST(QpWarmStart, MatchesColdSolution) {
  const auto problem = random_qp(30, 60, 6, 21);
  opt::QpWorkspace cold_ws;
  const auto cold = opt::solve_qp(problem, {}, cold_ws);
  ASSERT_EQ(cold.status, opt::QpStatus::kSolved);

  opt::QpWorkspace warm_ws;
  opt::QpWarmStart seed;
  seed.x = cold.x;
  seed.y_eq = cold.y_eq;
  seed.z_ineq = cold.z_ineq;
  const auto warm = opt::solve_qp(problem, {}, warm_ws, &seed);
  ASSERT_EQ(warm.status, opt::QpStatus::kSolved);
  EXPECT_EQ(warm_ws.counters().warm_starts, 1u);
  EXPECT_LE(warm.iterations, cold.iterations);
  for (std::size_t i = 0; i < problem.num_vars(); ++i)
    EXPECT_NEAR(warm.x[i], cold.x[i], 1e-6);
}

TEST(SqpWarmStart, MatchesColdSolutionOnMpcWindow) {
  const auto f = make_window_formulation(6);
  core::MpcOptions opts;  // the tuned receding-horizon SQP settings
  const num::Vector z0 = f.cold_start();

  const opt::SqpSolver cold_solver(opts.sqp);
  const auto cold = cold_solver.solve(f, z0);
  ASSERT_TRUE(cold.usable());
  ASSERT_FALSE(cold.y_eq.empty());

  opt::SqpWarmStart seed;
  seed.y_eq = cold.y_eq;
  seed.z_ineq = cold.z_ineq;
  const opt::SqpSolver warm_solver(opts.sqp);
  const auto warm = warm_solver.solve(f, z0, &seed);
  ASSERT_TRUE(warm.usable());

  // Same NLP, same primal start; the dual seed only accelerates the first
  // QP subproblem, so the iterates agree to the SQP step tolerance (1e-3).
  for (std::size_t i = 0; i < z0.size(); ++i)
    EXPECT_NEAR(warm.x[i], cold.x[i], 2.0 * opts.sqp.step_tolerance);
}

// Receding-horizon controller: a warm-started replan must produce the same
// control as a cold-started plan of the same window.
TEST(MpcWarmStart, WarmReplanMatchesColdPlan) {
  const auto hvac_params = hvac::default_hvac_params();
  const auto battery_params = bat::leaf_24kwh_params();
  // The production settings cap SQP at 8 iterations (the receding horizon
  // forgives non-convergence); this equivalence check needs both plans to
  // actually reach the optimum, so raise the cap.
  core::MpcOptions opts;
  opts.sqp.max_iterations = 50;
  core::MpcClimateController warm_mpc(hvac_params, battery_params, opts);
  core::MpcClimateController cold_mpc(hvac_params, battery_params, opts);

  ctl::ControlContext c;
  c.dt_s = 1.0;
  c.cabin_temp_c = 25.0;
  c.outside_temp_c = 35.0;
  c.soc_percent = 88.0;
  c.motor_power_forecast_w.assign(120, 9e3);
  c.outside_temp_forecast_c.assign(120, 35.0);

  warm_mpc.decide(c);  // first plan (cold) seeds the warm state
  c.time_s += warm_mpc.options().step_s;
  const hvac::HvacInputs warm_input = warm_mpc.decide(c);
  EXPECT_EQ(warm_mpc.stats().dual_warm_starts, 1u);

  const hvac::HvacInputs cold_input = cold_mpc.decide(c);
  ASSERT_EQ(cold_mpc.stats().failures, 0u);
  ASSERT_EQ(warm_mpc.stats().failures, 0u);

  EXPECT_NEAR(warm_input.supply_temp_c, cold_input.supply_temp_c, 2e-2);
  EXPECT_NEAR(warm_input.coil_temp_c, cold_input.coil_temp_c, 2e-2);
  EXPECT_NEAR(warm_input.recirculation, cold_input.recirculation, 1e-2);
  EXPECT_NEAR(warm_input.air_flow_kg_s, cold_input.air_flow_kg_s, 1e-2);
}

}  // namespace
