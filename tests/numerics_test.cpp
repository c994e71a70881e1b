// Unit + property tests for the dense linear algebra kernel.
//
// NOTE: this file is compiled with -ffp-contract=off (tests/CMakeLists.txt),
// like numerics/factorization.cpp, so the blocked-order reference below is
// not fused into FMAs either.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "numerics/aligned.hpp"
#include "numerics/factorization.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"
#include "util/random.hpp"

namespace evc::num {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, SplitMix64& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1, 1);
  return m;
}

Vector random_vector(std::size_t n, SplitMix64& rng) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

Matrix random_spd(std::size_t n, SplitMix64& rng) {
  const Matrix g = random_matrix(n, n, rng);
  Matrix spd = g.transposed() * g;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

TEST(Vector, ArithmeticAndNorms) {
  Vector a{1.0, -2.0, 3.0};
  Vector b{0.5, 0.5, 0.5};
  Vector c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 1.5);
  EXPECT_DOUBLE_EQ(c[1], -1.5);
  EXPECT_DOUBLE_EQ(c[2], 3.5);
  EXPECT_DOUBLE_EQ(a.dot(b), 0.5 - 1.0 + 1.5);
  EXPECT_DOUBLE_EQ(a.norm_inf(), 3.0);
  EXPECT_DOUBLE_EQ(a.norm1(), 6.0);
  EXPECT_DOUBLE_EQ(a.norm2(), std::sqrt(14.0));
}

TEST(Vector, SegmentRoundTrip) {
  Vector a{1, 2, 3, 4, 5};
  Vector mid = a.segment(1, 3);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_DOUBLE_EQ(mid[0], 2);
  EXPECT_DOUBLE_EQ(mid[2], 4);
  Vector b(5);
  b.set_segment(1, mid);
  EXPECT_DOUBLE_EQ(b[0], 0);
  EXPECT_DOUBLE_EQ(b[1], 2);
  EXPECT_DOUBLE_EQ(b[3], 4);
}

TEST(Vector, SizeMismatchThrows) {
  Vector a{1, 2};
  Vector b{1, 2, 3};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a.dot(b), std::invalid_argument);
  EXPECT_THROW(a.segment(1, 5), std::invalid_argument);
}

TEST(Matrix, MultiplyIdentity) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 2) = 2;
  a(1, 1) = -3;
  const Matrix i3 = Matrix::identity(3);
  const Matrix prod = a * i3;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(prod(r, c), a(r, c));
}

TEST(Matrix, TransposeTimesMatchesExplicitTranspose) {
  SplitMix64 rng(7);
  Matrix a(4, 6);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c) a(r, c) = rng.uniform(-2, 2);
  Vector x(4);
  for (std::size_t i = 0; i < 4; ++i) x[i] = rng.uniform(-1, 1);
  const Vector fast = a.transpose_times(x);
  const Vector slow = a.transposed() * x;
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(fast[i], slow[i], 1e-14);
}

TEST(Matrix, BlockRoundTrip) {
  Matrix a(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      a(r, c) = static_cast<double>(r * 4 + c);
  const Matrix blk = a.block(1, 2, 2, 2);
  EXPECT_DOUBLE_EQ(blk(0, 0), 6);
  EXPECT_DOUBLE_EQ(blk(1, 1), 11);
  Matrix b(4, 4);
  b.set_block(1, 2, blk);
  EXPECT_DOUBLE_EQ(b(1, 2), 6);
  EXPECT_DOUBLE_EQ(b(2, 3), 11);
}

TEST(Matrix, SymmetrizeAveragesOffDiagonal) {
  Matrix a(2, 2);
  a(0, 1) = 2.0;
  a(1, 0) = 4.0;
  a.symmetrize();
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
}

// --- LU ---

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const Vector x = solve_linear(a, Vector{5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  LuFactorization lu(a);
  EXPECT_FALSE(lu.ok());
  EXPECT_THROW(solve_linear(a, Vector{1, 1}), std::runtime_error);
}

TEST(Lu, DeterminantOfPermutedIdentity) {
  Matrix a(3, 3);
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(2, 2) = 1;
  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

class LuRandomized : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomized, ResidualIsTiny) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 20;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-5, 5);
  // Diagonal dominance guarantees nonsingularity for the property sweep.
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 10.0;
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-3, 3);
  const Vector x = solve_linear(a, b);
  const Vector r = a * x - b;
  EXPECT_LT(r.norm_inf(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuRandomized, ::testing::Range(0, 25));

// The dense factorizations take every inner product in one blocked order:
// four lanes, an eight-element unroll with two lane accumulators, the
// reduction (l0+l2) + (l1+l3), then a sequential tail. Restated here with
// plain doubles, independent of the library, so a change of order (say, to
// a sequential sum) shows as a changed bit in the solution.
double blocked_dot(const double* x, const double* y, std::size_t n) {
  double acc0[4] = {0.0, 0.0, 0.0, 0.0};
  double acc1[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (std::size_t l = 0; l < 4; ++l) {
      acc0[l] += x[i + l] * y[i + l];
      acc1[l] += x[i + 4 + l] * y[i + 4 + l];
    }
  for (std::size_t l = 0; l < 4; ++l) acc0[l] += acc1[l];
  for (; i + 4 <= n; i += 4)
    for (std::size_t l = 0; l < 4; ++l) acc0[l] += x[i + l] * y[i + l];
  double r = (acc0[0] + acc0[2]) + (acc0[1] + acc0[3]);
  for (; i < n; ++i) r += x[i] * y[i];
  return r;
}

/// Doolittle LU with partial pivoting, then forward and back substitution
/// whose inner products run through blocked_dot.
Vector blocked_lu_solve(Matrix a, const Vector& b) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < n; ++r)
      if (std::abs(a(r, k)) > std::abs(a(piv, k))) piv = r;
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(piv, c));
      std::swap(perm[k], perm[piv]);
    }
    const double inv_pivot = 1.0 / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = a(r, k) * inv_pivot;
      a(r, k) = m;
      for (std::size_t c = k + 1; c < n; ++c) a(r, c) += -m * a(k, c);
    }
  }
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = b[perm[i]] - blocked_dot(a.row_ptr(i), x.ptr(), i);
  for (std::size_t i = n; i-- > 0;)
    x[i] = (x[i] - blocked_dot(a.row_ptr(i) + i + 1, x.ptr() + i + 1,
                               n - i - 1)) /
           a(i, i);
  return x;
}

std::uint64_t bits(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

TEST(Lu, SolveMatchesBlockedDotOrderBitwise) {
  SplitMix64 rng(11);
  LuFactorization lu;
  Vector x;
  // Sizes on both sides of the 4- and 8-element block boundaries.
  for (const std::size_t n : {1u, 3u, 4u, 7u, 8u, 9u, 16u, 37u}) {
    // Mixed magnitudes and signs, so a reassociated sum rounds differently.
    Matrix a(n, n);
    Vector b(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c)
        a(r, c) = rng.uniform(-3.0, 3.0) * (1.0 + rng.uniform(0.0, 1e4));
      b[r] = rng.uniform(-3.0, 3.0) * (1.0 + rng.uniform(0.0, 1e4));
    }
    ASSERT_TRUE(lu.factorize(a)) << "n=" << n;
    lu.solve_into(b, x);
    const Vector expect = blocked_lu_solve(a, b);
    ASSERT_EQ(x.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(bits(x[i]), bits(expect[i])) << "n=" << n << " i=" << i;
  }
}

TEST(Factorization, LuRefactorizeMatchesFreshSolve) {
  SplitMix64 rng(6);
  LuFactorization lu;
  Vector x;
  for (int round = 0; round < 3; ++round) {
    Matrix a = random_matrix(8, 8, rng);
    for (std::size_t i = 0; i < 8; ++i) a(i, i) += 3.0;
    const Vector b = random_vector(8, rng);
    ASSERT_TRUE(lu.factorize(a));
    lu.solve_into(b, x);
    const Vector expect = solve_linear(a, b);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], expect[i], 1e-10);
  }
}

// --- Cholesky ---

TEST(Cholesky, SolvesSpdSystem) {
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  CholeskyFactorization chol(a);
  ASSERT_TRUE(chol.ok());
  const Vector x = chol.solve(Vector{1, 2});
  const Vector r = a * x - Vector{1, 2};
  EXPECT_LT(r.norm_inf(), 1e-12);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, −1
  CholeskyFactorization chol(a);
  EXPECT_FALSE(chol.ok());
}

class CholeskyRandomized : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRandomized, GramMatrixSolves) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam() + 100));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 12;
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1, 1);
  Matrix a = g.transposed() * g;  // PSD
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;  // make PD
  CholeskyFactorization chol(a);
  ASSERT_TRUE(chol.ok());
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-2, 2);
  const Vector x = chol.solve(b);
  EXPECT_LT((a * x - b).norm_inf(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyRandomized, ::testing::Range(0, 20));

TEST(Factorization, CholeskyRefactorizeMatchesLu) {
  SplitMix64 rng(7);
  CholeskyFactorization chol;
  Vector x;
  for (int round = 0; round < 3; ++round) {
    const Matrix spd = random_spd(10, rng);
    const Vector b = random_vector(10, rng);
    ASSERT_TRUE(chol.factorize(spd));
    chol.solve_into(b, x);
    const Vector expect = solve_linear(spd, b);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(x[i], expect[i], 1e-10);
  }
}

TEST(Factorization, CholeskySolveAllowsAliasing) {
  SplitMix64 rng(8);
  const Matrix spd = random_spd(6, rng);
  Vector b = random_vector(6, rng);
  const Vector expect = solve_linear(spd, b);
  CholeskyFactorization chol;
  ASSERT_TRUE(chol.factorize(spd));
  chol.solve_into(b, b);  // in-place
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(b[i], expect[i], 1e-10);
}

// --- Storage ---

TEST(AlignedBuffer, NumericsStorageIsCacheLineAligned) {
  Vector v(37);
  Matrix m(13, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.ptr()) % kNumAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.ptr()) % kNumAlignment, 0u);
}

}  // namespace
}  // namespace evc::num
