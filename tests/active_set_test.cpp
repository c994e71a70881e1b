// Tests for the active-set QP solver, including the cross-validation sweep
// against the interior-point method on randomized strictly convex QPs.
#include <gtest/gtest.h>

#include <cmath>

#include "dense_qp.hpp"
#include "optim/active_set.hpp"
#include "util/random.hpp"

namespace evc::opt {
namespace {

using num::Matrix;
using num::Vector;

DenseQp box_projection_problem() {
  // min ‖x − (5, −5)‖²  s.t. −1 ≤ x ≤ 1.
  DenseQp p;
  p.h = Matrix::identity(2);
  p.h *= 2.0;
  p.g = Vector{-10, 10};
  p.e_mat = Matrix(0, 2);
  p.e_vec = Vector(0);
  p.a_mat = Matrix(4, 2);
  p.a_mat(0, 0) = 1;
  p.a_mat(1, 0) = -1;
  p.a_mat(2, 1) = 1;
  p.a_mat(3, 1) = -1;
  p.b_vec = Vector{1, 1, 1, 1};
  return p;
}

TEST(ActiveSet, SolvesBoxProjection) {
  const DenseQp p = box_projection_problem();
  const QpResult r = solve_qp_active_set(p.sparse(), Vector{0, 0});
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], -1.0, 1e-8);
  // Multipliers of the two active bounds are positive, inactive are zero.
  EXPECT_GT(r.z_ineq[0], 1.0);
  EXPECT_GT(r.z_ineq[3], 1.0);
  EXPECT_NEAR(r.z_ineq[1], 0.0, 1e-9);
  EXPECT_NEAR(r.z_ineq[2], 0.0, 1e-9);
}

TEST(ActiveSet, UnconstrainedInteriorOptimum) {
  DenseQp p;
  p.h = Matrix::identity(2);
  p.h *= 2.0;
  p.g = Vector{-1.0, 0.5};  // optimum (0.5, −0.25), inside the box
  p.e_mat = Matrix(0, 2);
  p.e_vec = Vector(0);
  p.a_mat = Matrix(4, 2);
  p.a_mat(0, 0) = 1;
  p.a_mat(1, 0) = -1;
  p.a_mat(2, 1) = 1;
  p.a_mat(3, 1) = -1;
  p.b_vec = Vector{1, 1, 1, 1};
  const QpResult r = solve_qp_active_set(p.sparse(), Vector{0, 0});
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 0.5, 1e-9);
  EXPECT_NEAR(r.x[1], -0.25, 1e-9);
}

TEST(ActiveSet, HandlesEqualityConstraints) {
  // min ½‖x‖² s.t. x0 + x1 = 2, x0 ≤ 0.5 → (0.5, 1.5).
  DenseQp p;
  p.h = Matrix::identity(2);
  p.g = Vector(2);
  p.e_mat = Matrix(1, 2);
  p.e_mat(0, 0) = 1;
  p.e_mat(0, 1) = 1;
  p.e_vec = Vector{2};
  p.a_mat = Matrix(1, 2);
  p.a_mat(0, 0) = 1;
  p.b_vec = Vector{0.5};
  const QpResult r = solve_qp_active_set(p.sparse(), Vector{0.0, 2.0});
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 0.5, 1e-8);
  EXPECT_NEAR(r.x[1], 1.5, 1e-8);
}

TEST(ActiveSet, RejectsInfeasibleStart) {
  const DenseQp p = box_projection_problem();
  const QpResult r = solve_qp_active_set(p.sparse(), Vector{5, 5});
  EXPECT_EQ(r.status, QpStatus::kNumericalIssue);
}

TEST(ActiveSet, StartOnActiveConstraint) {
  // Starting exactly on a bound (active working set from step one).
  const DenseQp p = box_projection_problem();
  const QpResult r = solve_qp_active_set(p.sparse(), Vector{1.0, 0.0});
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], -1.0, 1e-8);
}

TEST(FeasiblePoint, FindsOneWhenItExists) {
  const DenseQp p = box_projection_problem();
  const auto x = find_feasible_point(p.sparse());
  ASSERT_TRUE(x.has_value());
  const Vector ax = p.a_mat * *x;
  for (std::size_t i = 0; i < p.b_vec.size(); ++i)
    EXPECT_LE(ax[i], p.b_vec[i] + 1e-7);
}

// --- Cross-validation: active-set and interior-point must agree ---

class SolverCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(SolverCrossValidation, MatchesInteriorPointOptimum) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 613 + 29);
  const std::size_t n = 2 + rng.next_u64() % 6;
  const std::size_t mi = 1 + rng.next_u64() % (2 * n);

  DenseQp p;
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1, 1);
  p.h = g.transposed() * g;
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 1.0;
  p.g = Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-2, 2);
  p.e_mat = Matrix(0, n);
  p.e_vec = Vector(0);

  Vector xf(n);
  for (std::size_t i = 0; i < n; ++i) xf[i] = rng.uniform(-1, 1);
  p.a_mat = Matrix(mi, n);
  p.b_vec = Vector(mi);
  for (std::size_t r = 0; r < mi; ++r) {
    for (std::size_t c = 0; c < n; ++c) p.a_mat(r, c) = rng.uniform(-1, 1);
    p.b_vec[r] = p.a_mat.row(r).dot(xf) + rng.uniform(0.1, 2.0);
  }

  const QpResult ip = solve_qp(p.sparse());
  ASSERT_EQ(ip.status, QpStatus::kSolved) << "seed " << GetParam();
  const QpResult as = solve_qp_active_set(p.sparse(), xf);
  ASSERT_EQ(as.status, QpStatus::kSolved) << "seed " << GetParam();

  // Strictly convex → unique optimum: both solvers must agree.
  EXPECT_NEAR(as.objective, ip.objective,
              1e-5 * (1.0 + std::abs(ip.objective)))
      << "seed " << GetParam();
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(as.x[i], ip.x[i], 1e-4) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverCrossValidation,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace evc::opt
