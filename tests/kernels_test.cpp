// In-place numerics kernels and refactorizable factorizations, each
// checked against a straightforward reference implementation (tolerance
// 1e-10).
#include <gtest/gtest.h>

#include <cstddef>

#include "numerics/factorization.hpp"
#include "numerics/kernels.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"
#include "util/random.hpp"

namespace {

using namespace evc;

constexpr double kTol = 1e-10;

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
  num::Matrix spd = g.transposed() * g;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

TEST(Kernels, GemvMatchesReference) {
  SplitMix64 rng(1);
  const num::Matrix a = random_matrix(7, 5, rng);
  const num::Vector x = random_vector(5, rng);
  num::Vector y = random_vector(7, rng);
  const num::Vector y0 = y;

  num::gemv(1.7, a, x, 0.5, y);
  for (std::size_t r = 0; r < 7; ++r) {
    double expect = 0.5 * y0[r];
    for (std::size_t c = 0; c < 5; ++c) expect += 1.7 * a(r, c) * x[c];
    EXPECT_NEAR(y[r], expect, kTol);
  }
}

TEST(Kernels, GemvBetaZeroResizesOutput) {
  SplitMix64 rng(2);
  const num::Matrix a = random_matrix(4, 6, rng);
  const num::Vector x = random_vector(6, rng);
  num::Vector y;  // wrong size on purpose
  num::gemv(2.0, a, x, 0.0, y);
  ASSERT_EQ(y.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    double expect = 0.0;
    for (std::size_t c = 0; c < 6; ++c) expect += 2.0 * a(r, c) * x[c];
    EXPECT_NEAR(y[r], expect, kTol);
  }
}

TEST(Kernels, GemvTransposedMatchesReference) {
  SplitMix64 rng(3);
  const num::Matrix a = random_matrix(6, 4, rng);
  const num::Vector x = random_vector(6, rng);
  num::Vector y = random_vector(4, rng);
  const num::Vector y0 = y;

  num::gemv_t(-0.3, a, x, 2.0, y);
  for (std::size_t c = 0; c < 4; ++c) {
    double expect = 2.0 * y0[c];
    for (std::size_t r = 0; r < 6; ++r) expect += -0.3 * a(r, c) * x[r];
    EXPECT_NEAR(y[c], expect, kTol);
  }
}

TEST(Kernels, GemmMatchesReference) {
  SplitMix64 rng(4);
  const num::Matrix a = random_matrix(5, 3, rng);
  const num::Matrix b = random_matrix(3, 6, rng);
  num::Matrix c = random_matrix(5, 6, rng);
  const num::Matrix c0 = c;

  num::gemm(1.1, a, b, -0.4, c);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t j = 0; j < 6; ++j) {
      double expect = -0.4 * c0(r, j);
      for (std::size_t k = 0; k < 3; ++k) expect += 1.1 * a(r, k) * b(k, j);
      EXPECT_NEAR(c(r, j), expect, kTol);
    }
}

TEST(Kernels, AxpyMatchesReference) {
  SplitMix64 rng(5);
  const num::Vector x = random_vector(9, rng);
  num::Vector y = random_vector(9, rng);
  const num::Vector y0 = y;
  num::axpy(0.75, x, y);
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_NEAR(y[i], y0[i] + 0.75 * x[i], kTol);
}

TEST(Factorization, LuRefactorizeMatchesFreshSolve) {
  SplitMix64 rng(6);
  num::LuFactorization lu;
  num::Vector x;
  for (int round = 0; round < 3; ++round) {
    num::Matrix a = random_matrix(8, 8, rng);
    for (std::size_t i = 0; i < 8; ++i) a(i, i) += 3.0;
    const num::Vector b = random_vector(8, rng);
    ASSERT_TRUE(lu.factorize(a));
    lu.solve_into(b, x);
    const num::Vector expect = num::solve_linear(a, b);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], expect[i], kTol);
  }
}

TEST(Factorization, CholeskyRefactorizeMatchesLu) {
  SplitMix64 rng(7);
  num::CholeskyFactorization chol;
  num::Vector x;
  for (int round = 0; round < 3; ++round) {
    const num::Matrix spd = random_spd(10, rng);
    const num::Vector b = random_vector(10, rng);
    ASSERT_TRUE(chol.factorize(spd));
    chol.solve_into(b, x);
    const num::Vector expect = num::solve_linear(spd, b);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(x[i], expect[i], kTol);
  }
}

TEST(Factorization, CholeskySolveAllowsAliasing) {
  SplitMix64 rng(8);
  const num::Matrix spd = random_spd(6, rng);
  num::Vector b = random_vector(6, rng);
  const num::Vector expect = num::solve_linear(spd, b);
  num::CholeskyFactorization chol;
  ASSERT_TRUE(chol.factorize(spd));
  chol.solve_into(b, b);  // in-place
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(b[i], expect[i], kTol);
}

}  // namespace
