// Sparse quasi-definite LDLᵀ (numerics/sparse_ldl) and the QP's use of it:
// agreement with a dense LU of the full KKT matrix, refined residuals no
// worse than the Schur-complement block elimination it replaced, the
// pattern cache, pivot-sign failures and the QP's dense fallback, and
// history-independent QP results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "battery/battery_params.hpp"
#include "core/mpc_formulation.hpp"
#include "hvac/hvac_params.hpp"
#include "numerics/factorization.hpp"
#include "numerics/sparse_ldl.hpp"
#include "obs/metrics.hpp"
#include "optim/qp.hpp"
#include "optim/sqp.hpp"
#include "util/random.hpp"

namespace {

using namespace evc;

// Upper triangle (compressed-column) of [K Eᵀ; E 0] from dense blocks;
// every diagonal entry is present, as SparseLdl requires.
struct Kkt {
  std::size_t n = 0;
  std::size_t me = 0;
  std::vector<std::size_t> col_ptr, row;
  std::vector<double> val;

  std::size_t dim() const { return n + me; }
};

Kkt make_kkt(const num::Matrix& k, const num::Matrix& e) {
  Kkt m;
  m.n = k.rows();
  m.me = e.rows();
  for (std::size_t j = 0; j < m.n; ++j) {
    m.col_ptr.push_back(m.row.size());
    for (std::size_t i = 0; i <= j; ++i)
      if (k(i, j) != 0.0 || i == j) {
        m.row.push_back(i);
        m.val.push_back(k(i, j));
      }
  }
  for (std::size_t r = 0; r < m.me; ++r) {
    m.col_ptr.push_back(m.row.size());
    for (std::size_t c = 0; c < m.n; ++c)
      if (e(r, c) != 0.0) {
        m.row.push_back(c);
        m.val.push_back(e(r, c));
      }
    m.row.push_back(m.n + r);
    m.val.push_back(0.0);
  }
  m.col_ptr.push_back(m.row.size());
  return m;
}

void load(num::SparseLdl& ldl, const Kkt& m) {
  ldl.analyze(m.dim(), m.n, m.col_ptr, m.row);
  for (std::size_t t = 0; t < m.val.size(); ++t)
    ldl.values()[ldl.slot(t)] = m.val[t];
}

num::Matrix dense(const Kkt& m) {
  num::Matrix d(m.dim(), m.dim());
  for (std::size_t j = 0; j < m.dim(); ++j)
    for (std::size_t t = m.col_ptr[j]; t < m.col_ptr[j + 1]; ++t) {
      d(m.row[t], j) = m.val[t];
      d(j, m.row[t]) = m.val[t];
    }
  return d;
}

// Dense LU reference for badly scaled KKT matrices: Ruiz equilibration
// (symmetric, scaling every row and column towards max-norm 1) first, so
// barrier scalings of 1e±10 do not trip the LU's relative pivot test.
num::Vector solve_lu_equilibrated(const num::Matrix& m, const num::Vector& b) {
  const std::size_t dim = m.rows();
  num::Vector scale(dim, 1.0);
  num::Matrix scaled = m;
  for (int sweep = 0; sweep < 20; ++sweep) {
    num::Vector row_max(dim);
    for (std::size_t i = 0; i < dim; ++i)
      for (std::size_t j = 0; j < dim; ++j)
        row_max[i] = std::max(row_max[i], std::abs(scaled(i, j)));
    for (std::size_t i = 0; i < dim; ++i) {
      const double f = row_max[i] > 0.0 ? 1.0 / std::sqrt(row_max[i]) : 1.0;
      scale[i] *= f;
      for (std::size_t j = 0; j < dim; ++j) {
        scaled(i, j) *= f;
        scaled(j, i) *= f;
      }
    }
  }
  num::Vector sb(dim);
  for (std::size_t i = 0; i < dim; ++i) sb[i] = scale[i] * b[i];
  num::Vector x = num::solve_linear(scaled, sb);
  for (std::size_t i = 0; i < dim; ++i) x[i] *= scale[i];
  return x;
}

double residual_inf(const num::Matrix& m, const num::Vector& x,
                    const num::Vector& b) {
  return (m * x - b).norm_inf();
}

num::Vector solve_ldl(num::SparseLdl& ldl, const num::Vector& b) {
  num::Vector x(b.size());
  ldl.solve(b.ptr(), x.ptr());
  return x;
}

num::Matrix random_matrix(std::size_t rows, std::size_t cols,
                          SplitMix64& rng) {
  num::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1, 1);
  return m;
}

num::Vector random_vector(std::size_t n, SplitMix64& rng) {
  num::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

num::Matrix random_spd(std::size_t n, SplitMix64& rng) {
  const num::Matrix g = random_matrix(n, n, rng);
  num::Matrix a = g.transposed() * g;
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

// Block elimination through the Schur complement S = E·K⁻¹·Eᵀ (dense
// Cholesky of K and of S, S shifted by 1e-12·‖S‖ when singular): the KKT
// solve the sparse LDLᵀ replaced, kept here as the accuracy reference.
num::Vector solve_schur(const num::Matrix& k, const num::Matrix& e,
                        const num::Vector& b) {
  const std::size_t n = k.rows(), me = e.rows();
  num::CholeskyFactorization chol_k;
  EXPECT_TRUE(chol_k.factorize(k));
  num::Matrix w(n, me);  // K⁻¹·Eᵀ
  for (std::size_t j = 0; j < me; ++j) {
    const num::Vector col = chol_k.solve(e.row(j));
    for (std::size_t i = 0; i < n; ++i) w(i, j) = col[i];
  }
  num::Matrix s = e * w;
  num::CholeskyFactorization chol_s;
  if (!chol_s.factorize(s)) {
    const double shift = std::max(1e-12 * s.norm_max(), 1e-12);
    for (std::size_t i = 0; i < me; ++i) s(i, i) += shift;
    EXPECT_TRUE(chol_s.factorize(s));
  }
  const num::Vector t = chol_k.solve(b.segment(0, n));
  const num::Vector dy = chol_s.solve(e * t - b.segment(n, me));
  const num::Vector dx = t - w * dy;
  num::Vector x(n + me);
  x.set_segment(0, dx);
  x.set_segment(n, dy);
  return x;
}

// --- Random dense blocks ---------------------------------------------------

TEST(SparseLdl, MatchesDenseKktSolve) {
  SplitMix64 rng(9);
  const std::size_t n = 24;
  const std::size_t me = 10;
  const Kkt m = make_kkt(random_spd(n, rng), random_matrix(me, n, rng));
  const num::Vector b = random_vector(n + me, rng);
  const num::Vector expect = num::solve_linear(dense(m), b);

  num::SparseLdl ldl;
  load(ldl, m);
  ASSERT_TRUE(ldl.factorize());
  const num::Vector x = solve_ldl(ldl, b);
  for (std::size_t i = 0; i < n + me; ++i) EXPECT_NEAR(x[i], expect[i], 1e-10);
}

TEST(SparseLdl, NoEqualitiesSolvesSpdSystem) {
  SplitMix64 rng(10);
  const std::size_t n = 12;
  const num::Matrix k = random_spd(n, rng);
  const num::Vector b = random_vector(n, rng);
  const num::Vector expect = num::solve_linear(k, b);

  num::SparseLdl ldl;
  load(ldl, make_kkt(k, num::Matrix(0, n)));
  ASSERT_TRUE(ldl.factorize());
  const num::Vector x = solve_ldl(ldl, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], expect[i], 1e-10);
}

// A duplicated equality row makes the δ = 0 KKT matrix singular. The
// quasi-definite factorization still exists, and for a consistent
// right-hand side the refined solve satisfies the system.
TEST(SparseLdl, RedundantEqualityRowsStillFactor) {
  SplitMix64 rng(12);
  const std::size_t n = 16;
  const std::size_t me = 4;
  const num::Matrix k = random_spd(n, rng);
  num::Matrix e = random_matrix(me, n, rng);
  for (std::size_t c = 0; c < n; ++c) e(me - 1, c) = e(0, c);
  const Kkt m = make_kkt(k, e);
  num::Vector b = random_vector(n + me, rng);
  b[n + me - 1] = b[n];  // consistent duplicate

  num::SparseLdl ldl;
  load(ldl, m);
  ASSERT_TRUE(ldl.factorize());
  const num::Vector x = solve_ldl(ldl, b);
  EXPECT_LT(residual_inf(dense(m), x, b), 1e-8);
}

// Refactorizing with new values (same pattern) carries no state over.
TEST(SparseLdl, RefactorizeIsStateless) {
  SplitMix64 rng(11);
  const std::size_t n = 16;
  const std::size_t me = 5;
  num::SparseLdl ldl;
  for (int round = 0; round < 3; ++round) {
    const Kkt m = make_kkt(random_spd(n, rng), random_matrix(me, n, rng));
    const num::Vector b = random_vector(n + me, rng);
    load(ldl, m);
    ASSERT_TRUE(ldl.factorize());
    EXPECT_LT(residual_inf(dense(m), solve_ldl(ldl, b), b), 1e-10);
  }
}

TEST(SparseLdl, ReusesAnalysisOnlyForIdenticalPattern) {
  SplitMix64 rng(13);
  num::Matrix k = random_spd(8, rng);
  const num::Matrix e = random_matrix(3, 8, rng);
  num::SparseLdl ldl;
  const Kkt first = make_kkt(k, e);
  EXPECT_TRUE(ldl.analyze(first.dim(), first.n, first.col_ptr, first.row));
  EXPECT_FALSE(ldl.analyze(first.dim(), first.n, first.col_ptr, first.row));
  k(2, 5) = 0.0;
  k(5, 2) = 0.0;
  const Kkt second = make_kkt(k, e);
  EXPECT_TRUE(ldl.analyze(second.dim(), second.n, second.col_ptr, second.row));
  // Same pattern, different sign split: a different system.
  EXPECT_TRUE(
      ldl.analyze(second.dim(), second.n + 1, second.col_ptr, second.row));
}

// A negative pivot in the block declared positive (K indefinite) and a
// non-finite value both fail the factorization instead of producing a
// factor of the wrong inertia.
TEST(SparseLdl, WrongSignOrNonFinitePivotFails) {
  SplitMix64 rng(14);
  num::Matrix k = random_spd(6, rng);
  const num::Matrix e = random_matrix(2, 6, rng);
  k(3, 3) = -1e3;
  num::SparseLdl ldl;
  load(ldl, make_kkt(k, e));
  EXPECT_FALSE(ldl.factorize());
  EXPECT_FALSE(ldl.ok());

  k(3, 3) = std::nan("");
  load(ldl, make_kkt(k, e));
  EXPECT_FALSE(ldl.factorize());
}

// --- MPC KKT systems across horizons and barrier scalings -----------------

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

// The IPM's K = H + reg·I + AᵀDA with D drawn log-uniformly from the
// barrier clamp range [1e-10, 1e10] (scenario 0) or pinned at either end
// (scenarios 1 and 2).
num::Matrix barrier_hessian(const core::MpcFormulation& f, int scenario,
                            SplitMix64& rng) {
  num::Matrix k = f.cost_hessian().to_dense();
  k.symmetrize();
  for (std::size_t i = 0; i < k.rows(); ++i) k(i, i) += 1e-8 + 1e-9;
  const num::Matrix a = f.ineq_matrix().to_dense();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double d = scenario == 1   ? 1e-10
                     : scenario == 2 ? 1e10
                                     : std::pow(10.0, rng.uniform(-10, 10));
    for (std::size_t i = 0; i < a.cols(); ++i) {
      if (a(r, i) == 0.0) continue;
      for (std::size_t j = 0; j < a.cols(); ++j)
        k(i, j) += d * a(r, i) * a(r, j);
    }
  }
  return k;
}

struct MpcKktCase {
  std::size_t horizon;
  int scenario;
};

class SparseLdlMpcKkt : public ::testing::TestWithParam<MpcKktCase> {};

TEST_P(SparseLdlMpcKkt, AgreesWithDenseLuAndBeatsSchurResidual) {
  const MpcKktCase c = GetParam();
  SplitMix64 rng(100 + c.horizon * 7 + static_cast<std::size_t>(c.scenario));
  const auto f = make_window_formulation(c.horizon);
  num::Vector z = f.cold_start();
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] += 0.05 * rng.uniform(-1, 1) * (1.0 + std::abs(z[i]));
  const num::Matrix k = barrier_hessian(f, c.scenario, rng);
  num::CsrMatrix jac;
  f.eq_jacobian(z, jac);
  const num::Matrix e = jac.to_dense();
  const Kkt m = make_kkt(k, e);
  const num::Matrix full = dense(m);
  const num::Vector b = random_vector(m.dim(), rng);

  num::SparseLdl ldl;
  load(ldl, m);
  ASSERT_TRUE(ldl.factorize());
  const num::Vector x = solve_ldl(ldl, b);
  const num::Vector x_lu = solve_lu_equilibrated(full, b);
  const num::Vector x_schur = solve_schur(k, e, b);

  const double r_ldl = residual_inf(full, x, b);
  const double r_schur = residual_inf(full, x_schur, b);
  // No worse than the Schur-complement solve. Under the largest barrier
  // scalings both residuals reach the rounding floor of evaluating
  // b − M·x at all (ε·‖|M|·|x| + |b|‖∞), where their order is noise: a
  // last-bit change in either solve can flip it.
  double floor = 0.0;
  for (std::size_t i = 0; i < m.dim(); ++i) {
    double row = std::abs(b[i]);
    for (std::size_t j = 0; j < m.dim(); ++j)
      row += std::abs(full(i, j)) * std::abs(x[j]);
    floor = std::max(floor, std::numeric_limits<double>::epsilon() * row);
  }
  EXPECT_LE(r_ldl, std::max(r_schur, floor));
  EXPECT_LE((x - x_lu).norm_inf(), 1e-6 * (1.0 + x_lu.norm_inf()));
}

std::vector<MpcKktCase> mpc_cases() {
  std::vector<MpcKktCase> cases;
  for (const std::size_t h : {1, 5, 12, 24})
    for (int s = 0; s < 3; ++s) cases.push_back({h, s});
  return cases;
}

std::string mpc_case_name(const ::testing::TestParamInfo<MpcKktCase>& p) {
  const char* const names[] = {"mixed", "min", "max"};
  return "h" + std::to_string(p.param.horizon) + "_" + names[p.param.scenario];
}

INSTANTIATE_TEST_SUITE_P(HorizonsAndScalings, SparseLdlMpcKkt,
                         ::testing::ValuesIn(mpc_cases()), mpc_case_name);

// --- The QP on top of it ---------------------------------------------------

// An indefinite Hessian gives K a negative pivot: the LDLᵀ refuses it and
// the QP takes the dense LU fallback, which still returns the stationary
// point.
TEST(QpSparseKkt, WrongSignPivotTakesDenseFallback) {
  num::Matrix h(2, 2);
  h(0, 0) = -1.0;
  h(1, 1) = 1.0;
  opt::QpProblem p;
  p.h = num::CsrMatrix::from_dense(h);
  p.g = num::Vector{1.0, -2.0};
  p.e_mat = num::CsrMatrix(0, 2);
  p.e_vec = num::Vector(0);
  p.a_mat = num::CsrMatrix(0, 2);
  p.b_vec = num::Vector(0);
  opt::QpWorkspace ws;
  const opt::QpResult r = opt::solve_qp(p, {}, ws);
  ASSERT_TRUE(r.usable());
  EXPECT_EQ(ws.counters().factorizations, 2u);
  EXPECT_EQ(ws.counters().dense_fallbacks, 1u);
  EXPECT_EQ(ws.counters().schur_solves, 0u);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 2.0, 1e-6);
}

opt::QpProblem mpc_qp(std::size_t horizon) {
  const auto f = make_window_formulation(horizon);
  const num::Vector z = f.cold_start();
  opt::QpProblem p;
  p.h = f.cost_hessian();
  p.g = f.cost_gradient(z);
  f.eq_jacobian(z, p.e_mat);
  p.e_vec = -f.eq_constraints(z);
  p.a_mat = f.ineq_matrix();
  p.b_vec = f.ineq_vector() - f.ineq_matrix().multiply(z);
  return p;
}

void expect_bit_identical(const opt::QpResult& a, const opt::QpResult& b) {
  ASSERT_EQ(a.status, b.status);
  ASSERT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]);
  for (std::size_t i = 0; i < a.y_eq.size(); ++i)
    EXPECT_EQ(a.y_eq[i], b.y_eq[i]);
  for (std::size_t i = 0; i < a.z_ineq.size(); ++i)
    EXPECT_EQ(a.z_ineq[i], b.z_ineq[i]);
  EXPECT_EQ(a.objective, b.objective);
}

// The cached analysis is a function of the QP's own pattern only: a
// workspace that last solved a QP with a different pattern gives the same
// bits as a fresh one.
TEST(QpSparseKkt, ResultsAreHistoryIndependent) {
  const opt::QpProblem p1 = mpc_qp(5);
  const opt::QpProblem p2 = mpc_qp(12);
  opt::QpWorkspace fresh;
  const opt::QpResult expect = opt::solve_qp(p2, {}, fresh);
  ASSERT_EQ(expect.status, opt::QpStatus::kSolved);

  opt::QpWorkspace used;
  ASSERT_TRUE(opt::solve_qp(p1, {}, used).usable());
  expect_bit_identical(opt::solve_qp(p2, {}, used), expect);
  // Back and forth: the same again after another pattern change.
  ASSERT_TRUE(opt::solve_qp(p1, {}, used).usable());
  expect_bit_identical(opt::solve_qp(p2, {}, used), expect);
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& m : obs::MetricsRegistry::global().snapshot().metrics)
    if (m.name == name) return m.counter;
  return 0;
}

TEST(QpSparseKkt, AnalysisRunsOnlyWhenThePatternChanges) {
  const opt::QpProblem p1 = mpc_qp(5);
  const opt::QpProblem p2 = mpc_qp(12);
  opt::QpWorkspace ws;
  ASSERT_TRUE(opt::solve_qp(p1, {}, ws).usable());
  const std::uint64_t lookups = counter_value("qp.kkt_lookups");
  const std::uint64_t analyses = counter_value("qp.kkt_analyses");
  ASSERT_TRUE(opt::solve_qp(p1, {}, ws).usable());
  ASSERT_TRUE(opt::solve_qp(p1, {}, ws).usable());
  EXPECT_EQ(counter_value("qp.kkt_lookups"), lookups + 2);
  EXPECT_EQ(counter_value("qp.kkt_analyses"), analyses);
  ASSERT_TRUE(opt::solve_qp(p2, {}, ws).usable());
  EXPECT_EQ(counter_value("qp.kkt_analyses"), analyses + 1);
  for (const auto& m : obs::MetricsRegistry::global().snapshot().metrics) {
    if (m.name == "qp.kkt_factor_nnz") {
      EXPECT_GT(m.gauge, 0.0);
    }
  }
}

/// `m` with `zero` stored at (r, c), a position `m` does not store.
num::CsrMatrix with_stored_zero(const num::CsrMatrix& m, std::size_t r,
                                std::size_t c, double zero) {
  num::CsrMatrix out;
  out.reset(m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    bool pending = i == r;
    for (std::size_t k = m.row_ptr()[i]; k < m.row_ptr()[i + 1]; ++k) {
      if (pending && m.col_idx()[k] > c) {
        out.push(c, zero);
        pending = false;
      }
      out.push(m.col_idx()[k], m.values()[k]);
    }
    if (pending) out.push(c, zero);
    out.end_row();
  }
  return out;
}

// The MPC Jacobian keeps one pattern at every linearization, so some of
// its stored entries are zeros. The QP drops them: an E with a stored 0.0
// or −0.0 gives the same bits, and the same KKT pattern (no new analysis),
// as that E without it.
TEST(QpSparseKkt, StoredZerosInEqualityMatrixAreDropped) {
  opt::QpProblem clean = mpc_qp(5);
  num::CsrMatrix e;
  e.assign_nonzeros(clean.e_mat);
  clean.e_mat = e;
  opt::QpWorkspace fresh;
  const opt::QpResult expect = opt::solve_qp(clean, {}, fresh);
  ASSERT_EQ(expect.status, opt::QpStatus::kSolved);

  // Row 0 (step 0's cabin dynamics) stores x0, x1, Ts0 and mz0: x2 falls
  // between them, the last slack after them.
  const std::size_t n = clean.num_vars();
  ASSERT_EQ(e.coeff(0, 2), 0.0);
  ASSERT_EQ(e.coeff(0, n - 1), 0.0);
  for (const double zero : {0.0, -0.0}) {
    for (const std::size_t col : {std::size_t{2}, n - 1}) {
      opt::QpProblem p = clean;
      p.e_mat = with_stored_zero(e, 0, col, zero);
      ASSERT_EQ(p.e_mat.nnz(), e.nnz() + 1);

      opt::QpWorkspace ws;
      ASSERT_TRUE(opt::solve_qp(clean, {}, ws).usable());
      const std::uint64_t analyses = counter_value("qp.kkt_analyses");
      expect_bit_identical(opt::solve_qp(p, {}, ws), expect);
      EXPECT_EQ(counter_value("qp.kkt_analyses"), analyses)
          << "zero " << zero << " at column " << col;
    }
  }
}

// --- The SQP's least-norm restoration -------------------------------------

TEST(LeastNormRestoration, MatchesDenseLeastNormStep) {
  SplitMix64 rng(21);
  const std::size_t n = 20, me = 8;
  num::Matrix j(me, n);
  for (std::size_t r = 0; r < me; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (rng.uniform(0, 1) < 0.3 || c == r) j(r, c) = rng.uniform(-1, 1);
  const num::Vector c = random_vector(me, rng);
  // p = −Jᵀ·(J·Jᵀ)⁻¹·c
  const num::Vector lambda = num::solve_linear(j * j.transposed(), c);
  const num::Vector expect = -j.transpose_times(lambda);

  opt::LeastNormRestoration restoration;
  num::Vector p;
  ASSERT_TRUE(restoration.solve(num::CsrMatrix::from_dense(j), c, p));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(p[i], expect[i], 1e-12);
}

// A duplicated row of J with a different right-hand side has no solution:
// the refined residual stays at the size of the inconsistency and the
// restoration reports failure. With a consistent duplicate it succeeds.
TEST(LeastNormRestoration, RejectsInconsistentRankDeficientJacobian) {
  SplitMix64 rng(22);
  const std::size_t n = 10, me = 4;
  num::Matrix j = random_matrix(me, n, rng);
  for (std::size_t col = 0; col < n; ++col) j(me - 1, col) = j(0, col);
  num::Vector c = random_vector(me, rng);
  c[me - 1] = c[0] + 0.5;
  opt::LeastNormRestoration restoration;
  num::Vector p;
  EXPECT_FALSE(restoration.solve(num::CsrMatrix::from_dense(j), c, p));

  c[me - 1] = c[0];
  ASSERT_TRUE(restoration.solve(num::CsrMatrix::from_dense(j), c, p));
  EXPECT_LT((j * p + c).norm_inf(), 1e-9);
}

}  // namespace
