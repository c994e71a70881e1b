// Condensed QP backend: agreement with the sparse interior-point path on
// real MPC subproblems across randomized horizons and constraint patterns,
// prediction-matrix cache/counter accounting, checkpoint round-trips, and
// backend selection plumbing.
#include "optim/condensed_qp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "battery/battery_params.hpp"
#include "core/mpc_controller.hpp"
#include "core/mpc_formulation.hpp"
#include "hvac/hvac_params.hpp"
#include "numerics/kernels.hpp"
#include "optim/qp.hpp"
#include "optim/sqp.hpp"
#include "util/random.hpp"
#include "util/serialize.hpp"

namespace {

using namespace evc;

core::MpcFormulation make_formulation(std::size_t horizon,
                                      std::uint64_t seed) {
  SplitMix64 rng(seed);
  core::MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = rng.uniform(18.0, 32.0);
  w.initial_soc_percent = rng.uniform(40.0, 95.0);
  w.fixed_power_kw.assign(horizon, 0.0);
  w.outside_temp_c.assign(horizon, 0.0);
  for (std::size_t k = 0; k < horizon; ++k) {
    w.fixed_power_kw[k] = rng.uniform(2.0, 18.0);
    w.outside_temp_c[k] = rng.uniform(-5.0, 40.0);
  }
  return core::MpcFormulation(hvac::default_hvac_params(),
                              bat::leaf_24kwh_params(), core::MpcWeights{},
                              w);
}

/// The QP subproblem the SQP layer would pose at iterate z — the exact
/// construction from SqpSolver::solve, so the condensed backend is tested
/// against the problems it actually sees.
opt::QpProblem subproblem_at(const core::MpcFormulation& f,
                             const num::Vector& z) {
  opt::QpProblem qp;
  qp.h = f.cost_hessian();
  qp.h.add_to_diagonal(1e-6);
  qp.g = f.cost_gradient(z);
  f.eq_jacobian(z, qp.e_mat);
  const num::Vector c = f.eq_constraints(z);
  qp.e_vec.resize(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) qp.e_vec[i] = -c[i];
  qp.a_mat = f.ineq_matrix();
  const num::Vector ax = qp.a_mat.multiply(z);
  qp.b_vec.resize(ax.size());
  for (std::size_t i = 0; i < ax.size(); ++i)
    qp.b_vec[i] = f.ineq_vector()[i] - ax[i];
  return qp;
}

/// Small random perturbation of the cold start — a plausible SQP iterate, so
/// the linearization (and with it the binding pattern) varies per seed. Kept
/// small: a large kick puts dependent variables (powers, SoC) outside their
/// bounds in a way no step can repair, and the linearized QP is genuinely
/// infeasible — a problem the SQP line search never poses.
num::Vector perturbed_iterate(const core::MpcFormulation& f,
                              std::uint64_t seed, double magnitude) {
  SplitMix64 rng(seed);
  num::Vector z = f.cold_start();
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] += magnitude * rng.uniform(-1.0, 1.0);
  return z;
}

struct KktReport {
  double objective = 0.0;
  double stationarity = 0.0;   ///< ‖Hx + g + Eᵀy + Aᵀz‖∞
  double eq_violation = 0.0;   ///< ‖Ex − e‖∞
  double ineq_violation = 0.0; ///< max(0, Ax − b)
  double complementarity = 0.0;
};

/// Full-space KKT residuals of a claimed solution — the solver-independent
/// optimality certificate both backends are measured against. (The QP has
/// near-flat valleys — slack directions carry only the 1e-6 SQP
/// regularization — so primal *coordinates* are only determined to about
/// residual/curvature; two correct solvers can sit ~1e-5 apart in x while
/// both are within 1e-8 of the optimum in objective and KKT terms.)
KktReport kkt_report(const opt::QpProblem& qp, const opt::QpResult& r) {
  const std::size_t n = qp.num_vars();
  const num::Matrix h = qp.h.to_dense();
  const num::Matrix e_mat = qp.e_mat.to_dense();
  const num::Matrix a_mat = qp.a_mat.to_dense();
  KktReport out;
  num::Vector stat(n);
  num::gemv(1.0, h, r.x, 0.0, stat);
  for (std::size_t j = 0; j < n; ++j)
    out.objective += (0.5 * stat[j] + qp.g[j]) * r.x[j];
  for (std::size_t j = 0; j < n; ++j) stat[j] += qp.g[j];
  num::gemv_t(1.0, e_mat, r.y_eq, 1.0, stat);
  num::gemv_t(1.0, a_mat, r.z_ineq, 1.0, stat);
  for (std::size_t j = 0; j < n; ++j)
    out.stationarity = std::max(out.stationarity, std::abs(stat[j]));
  num::Vector ex(qp.num_eq());
  num::gemv(1.0, e_mat, r.x, 0.0, ex);
  for (std::size_t i = 0; i < qp.num_eq(); ++i)
    out.eq_violation = std::max(out.eq_violation, std::abs(ex[i] - qp.e_vec[i]));
  num::Vector ax(qp.num_ineq());
  num::gemv(1.0, a_mat, r.x, 0.0, ax);
  for (std::size_t i = 0; i < qp.num_ineq(); ++i) {
    out.ineq_violation = std::max(out.ineq_violation, ax[i] - qp.b_vec[i]);
    out.complementarity = std::max(
        out.complementarity, std::abs(r.z_ineq[i] * (qp.b_vec[i] - ax[i])));
  }
  return out;
}

TEST(CondensedQpTest, MatchesSparseBackendAcrossHorizonsAndPatterns) {
  for (const std::size_t horizon : {4u, 7u, 12u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto f = make_formulation(horizon, 100 * horizon + seed);
      const num::Vector z = perturbed_iterate(f, seed, 0.01);
      const opt::QpProblem qp = subproblem_at(f, z);

      opt::QpOptions sparse_opts;
      sparse_opts.tolerance = 1e-10;
      sparse_opts.max_iterations = 200;
      const opt::QpResult sparse = opt::solve_qp(qp, sparse_opts);
      ASSERT_EQ(sparse.status, opt::QpStatus::kSolved)
          << "h=" << horizon << " seed=" << seed;

      opt::CondensedQpSolver solver;
      opt::QpPerfCounters counters;
      const opt::QpResult condensed = solver.solve(
          qp, *f.condensing_plan(), opt::CondensedQpOptions{}, counters,
          nullptr);
      ASSERT_TRUE(condensed.usable()) << "h=" << horizon << " seed=" << seed;

      // 1e-8 agreement in the quantities double precision actually pins
      // down: the condensed solution's full-space KKT certificate (absolute
      // optimality — stationarity, feasibility, complementarity all ≤ 1e-8)
      // and its objective never worse than the interior-point reference
      // beyond 1e-8 relative. The reference itself stops with ~1e-6
      // objective error in the flat valleys (it has no such certificate),
      // so the bound is one-sided and coordinates are only compared at the
      // flat-valley limit — see kkt_report's comment.
      const KktReport cert = kkt_report(qp, condensed);
      const KktReport ref = kkt_report(qp, sparse);
      EXPECT_LE(cert.objective,
                ref.objective + 1e-8 * (1.0 + std::abs(ref.objective)))
          << "h=" << horizon << " seed=" << seed;
      EXPECT_LE(cert.stationarity, 1e-8)
          << "h=" << horizon << " seed=" << seed;
      EXPECT_LE(cert.eq_violation, 1e-8)
          << "h=" << horizon << " seed=" << seed;
      EXPECT_LE(cert.ineq_violation, 1e-8)
          << "h=" << horizon << " seed=" << seed;
      EXPECT_LE(cert.complementarity, 1e-8)
          << "h=" << horizon << " seed=" << seed;
      double scale = 1.0;
      for (std::size_t i = 0; i < qp.num_vars(); ++i)
        scale = std::max(scale, std::abs(sparse.x[i]));
      for (std::size_t i = 0; i < qp.num_vars(); ++i)
        EXPECT_NEAR(condensed.x[i], sparse.x[i], 1e-3 * scale)
            << "h=" << horizon << " seed=" << seed << " var " << i;
    }
  }
}

TEST(CondensedQpTest, ActiveSetChangesMidHorizonStillAgree) {
  // Nudge the iterate progressively further from the cold start so the
  // binding pattern (slack rows, input bounds) shifts between solves, and
  // warm-start each solve from the previous one's multipliers — the
  // receding-horizon usage, including active-set changes mid-horizon.
  const auto f = make_formulation(10, 77);
  opt::CondensedQpSolver solver;
  opt::QpPerfCounters counters;
  opt::QpWarmStart warm;
  const opt::QpWarmStart* seed = nullptr;
  for (int step = 0; step < 6; ++step) {
    const num::Vector z = perturbed_iterate(f, 900 + step, 0.004 * step);
    const opt::QpProblem qp = subproblem_at(f, z);

    opt::QpOptions sparse_opts;
    sparse_opts.tolerance = 1e-10;
    sparse_opts.max_iterations = 200;
    const opt::QpResult sparse = opt::solve_qp(qp, sparse_opts);
    ASSERT_EQ(sparse.status, opt::QpStatus::kSolved) << "step " << step;

    const opt::QpResult condensed = solver.solve(
        qp, *f.condensing_plan(), opt::CondensedQpOptions{}, counters, seed);
    ASSERT_TRUE(condensed.usable()) << "step " << step;
    const KktReport cert = kkt_report(qp, condensed);
    const KktReport ref = kkt_report(qp, sparse);
    EXPECT_LE(cert.objective,
              ref.objective + 1e-8 * (1.0 + std::abs(ref.objective)))
        << "step " << step;
    EXPECT_LE(cert.stationarity, 1e-8) << "step " << step;
    EXPECT_LE(cert.eq_violation, 1e-8) << "step " << step;
    EXPECT_LE(cert.ineq_violation, 1e-8) << "step " << step;
    double scale = 1.0;
    for (std::size_t i = 0; i < qp.num_vars(); ++i)
      scale = std::max(scale, std::abs(sparse.x[i]));
    for (std::size_t i = 0; i < qp.num_vars(); ++i)
      EXPECT_NEAR(condensed.x[i], sparse.x[i], 1e-3 * scale)
          << "step " << step << " var " << i;

    warm.x = condensed.x;
    warm.y_eq = condensed.y_eq;
    warm.z_ineq = condensed.z_ineq;
    seed = &warm;
  }
  EXPECT_EQ(counters.solves, 6u);
  EXPECT_EQ(counters.condensed_solves, 6u);
}

TEST(CondensedQpTest, CacheHitBooksWarmStartNotRebuild) {
  const auto f = make_formulation(8, 5);
  const num::Vector z = perturbed_iterate(f, 5, 0.01);
  const opt::QpProblem qp = subproblem_at(f, z);

  opt::CondensedQpSolver solver;
  opt::QpPerfCounters counters;
  const opt::CondensedQpOptions options;

  // Cold solve: a rebuild, which also counts as the factorization it
  // performs — and not a warm start.
  const auto first =
      solver.solve(qp, *f.condensing_plan(), options, counters, nullptr);
  ASSERT_TRUE(first.usable());
  EXPECT_EQ(counters.condense_rebuilds, 1u);
  EXPECT_EQ(counters.factorizations, 1u);
  EXPECT_EQ(counters.warm_starts, 0u);

  // Identical problem, seeded from the first solve: a cache hit — books a
  // warm start, no rebuild, no factorization (the no-double-count rule).
  opt::QpWarmStart warm;
  warm.x = first.x;
  warm.y_eq = first.y_eq;
  warm.z_ineq = first.z_ineq;
  const auto second =
      solver.solve(qp, *f.condensing_plan(), options, counters, &warm);
  ASSERT_TRUE(second.usable());
  EXPECT_EQ(counters.condense_rebuilds, 1u);
  EXPECT_EQ(counters.factorizations, 1u);
  EXPECT_EQ(counters.warm_starts, 1u);
  EXPECT_EQ(counters.condensed_solves, 2u);
  for (std::size_t i = 0; i < qp.num_vars(); ++i)
    EXPECT_NEAR(second.x[i], first.x[i], 1e-9);

  // Drifted linearization: rebuild again.
  const num::Vector z2 = perturbed_iterate(f, 6, 0.01);
  const opt::QpProblem qp2 = subproblem_at(f, z2);
  const auto third =
      solver.solve(qp2, *f.condensing_plan(), options, counters, &warm);
  ASSERT_TRUE(third.usable());
  EXPECT_EQ(counters.condense_rebuilds, 2u);
  EXPECT_EQ(counters.factorizations, 2u);
}

TEST(CondensedQpTest, CacheCheckpointRoundTripReplaysWithoutRebuild) {
  const auto f = make_formulation(8, 21);
  const num::Vector z = perturbed_iterate(f, 21, 0.01);
  const opt::QpProblem qp = subproblem_at(f, z);
  const opt::CondensedQpOptions options;

  opt::CondensedQpSolver original;
  opt::QpPerfCounters counters;
  const auto before =
      original.solve(qp, *f.condensing_plan(), options, counters, nullptr);
  ASSERT_TRUE(before.usable());

  BinaryWriter writer;
  original.save_cache(writer);
  const std::string bytes = writer.take();
  opt::CondensedQpSolver restored;
  BinaryReader reader(bytes);
  restored.load_cache(reader);
  EXPECT_TRUE(restored.has_cache());

  // The restored solver re-derives silently: same solution, and the rebuild
  // counter does not move — a restored run's telemetry matches an
  // uninterrupted one.
  opt::QpPerfCounters restored_counters;
  const auto after = restored.solve(qp, *f.condensing_plan(), options,
                                    restored_counters, nullptr);
  ASSERT_TRUE(after.usable());
  EXPECT_EQ(restored_counters.condense_rebuilds, 0u);
  for (std::size_t i = 0; i < qp.num_vars(); ++i)
    EXPECT_NEAR(after.x[i], before.x[i], 1e-12);
}

TEST(CondensedQpTest, SqpEndToEndMatchesSparseBackend) {
  const auto f = make_formulation(8, 42);
  opt::SqpOptions sparse_opts;
  sparse_opts.max_iterations = 12;
  opt::SqpOptions condensed_opts = sparse_opts;
  condensed_opts.backend = opt::QpBackend::kCondensed;

  const opt::SqpSolver sparse_solver(sparse_opts);
  const opt::SqpSolver condensed_solver(condensed_opts);
  const num::Vector x0 = f.cold_start();
  const auto sparse = sparse_solver.solve(f, x0);
  const auto condensed = condensed_solver.solve(f, x0);
  ASSERT_TRUE(sparse.usable());
  ASSERT_TRUE(condensed.usable());
  EXPECT_GT(condensed_solver.qp_counters().condensed_solves, 0u);

  // Different QP engines may walk different SQP paths on this bilinear
  // problem; the destinations must agree — cost to a relative whisker and
  // the same residual feasibility, whether or not this window converges
  // within the iteration budget.
  EXPECT_NEAR(condensed.cost, sparse.cost,
              1e-4 * (1.0 + std::abs(sparse.cost)));
  EXPECT_NEAR(condensed.constraint_violation, sparse.constraint_violation,
              1e-6 * (1.0 + sparse.constraint_violation));
}

TEST(CondensedQpTest, BackendParsingAndEnvSelection) {
  EXPECT_EQ(opt::parse_qp_backend("sparse"), opt::QpBackend::kSparse);
  EXPECT_EQ(opt::parse_qp_backend("condensed"), opt::QpBackend::kCondensed);
  EXPECT_EQ(opt::parse_qp_backend("auto"), opt::QpBackend::kAuto);
  EXPECT_FALSE(opt::parse_qp_backend("fancy").has_value());

  ::setenv("EVC_MPC_BACKEND", "condensed", 1);
  EXPECT_EQ(opt::qp_backend_from_env(opt::QpBackend::kSparse),
            opt::QpBackend::kCondensed);
  ::setenv("EVC_MPC_BACKEND", "not-a-backend", 1);
  EXPECT_EQ(opt::qp_backend_from_env(opt::QpBackend::kAuto),
            opt::QpBackend::kAuto);
  ::unsetenv("EVC_MPC_BACKEND");
  EXPECT_EQ(opt::qp_backend_from_env(opt::QpBackend::kSparse),
            opt::QpBackend::kSparse);
}

TEST(CondensedQpTest, ControllerCheckpointRoundTripUnderCondensedBackend) {
  core::MpcOptions opts;
  opts.sqp.backend = opt::QpBackend::kCondensed;
  core::MpcClimateController mpc(hvac::default_hvac_params(),
                                 bat::leaf_24kwh_params(), opts);
  ctl::ControlContext c;
  c.dt_s = 1.0;
  c.cabin_temp_c = 27.0;
  c.outside_temp_c = 34.0;
  c.soc_percent = 80.0;
  c.motor_power_forecast_w.assign(60, 8e3);
  c.outside_temp_forecast_c.assign(60, 34.0);
  for (int i = 0; i < 3; ++i) {
    mpc.decide(c);
    c.time_s += mpc.options().step_s;
  }
  ASSERT_GT(mpc.stats().solver.condensed_solves, 0u);

  BinaryWriter writer;
  mpc.save_state(writer);
  const std::string bytes = writer.take();
  core::MpcClimateController restored(hvac::default_hvac_params(),
                                      bat::leaf_24kwh_params(), opts);
  BinaryReader reader(bytes);
  restored.load_state(reader);
  EXPECT_EQ(restored.stats().solver.condensed_solves,
            mpc.stats().solver.condensed_solves);
  EXPECT_EQ(restored.stats().solver.condense_rebuilds,
            mpc.stats().solver.condense_rebuilds);

  // Both controllers now replan identically: same inputs, same counters.
  ctl::ControlContext c2 = c;
  const auto a = mpc.decide(c);
  const auto b = restored.decide(c2);
  EXPECT_DOUBLE_EQ(a.supply_temp_c, b.supply_temp_c);
  EXPECT_DOUBLE_EQ(a.coil_temp_c, b.coil_temp_c);
  EXPECT_DOUBLE_EQ(a.recirculation, b.recirculation);
  EXPECT_DOUBLE_EQ(a.air_flow_kg_s, b.air_flow_kg_s);
  EXPECT_EQ(restored.stats().solver.condensed_solves,
            mpc.stats().solver.condensed_solves);
}

}  // namespace
