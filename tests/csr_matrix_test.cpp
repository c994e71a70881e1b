// Tests for the CSR matrix that carries the MPC's H, J and A to the QP:
// dense round trips, stored (structural) zeros of either sign, and the
// bit-for-bit agreement of its product with the dense Matrix·Vector.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "numerics/csr_matrix.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"
#include "util/random.hpp"

namespace evc::num {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// rows×cols with about `density` of the entries nonzero; a third of the
/// rest are −0.0, the others +0.0.
Matrix random_sparse(std::size_t rows, std::size_t cols, double density,
                     SplitMix64& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform(0, 1) < density)
        m(r, c) = rng.uniform(-2, 2);
      else if (rng.uniform(0, 1) < 1.0 / 3.0)
        m(r, c) = -0.0;
    }
  return m;
}

/// Like CsrMatrix::from_dense, but every entry for which `keep` holds is
/// stored, zero or not.
template <typename Keep>
CsrMatrix pattern_from_dense(const Matrix& m, Keep keep) {
  CsrMatrix out;
  out.reset(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c)
      if (keep(r, c)) out.push(c, m(r, c));
    out.end_row();
  }
  return out;
}

TEST(CsrMatrix, FromDenseToDenseRoundTrip) {
  SplitMix64 rng(3);
  const Matrix m = random_sparse(17, 23, 0.2, rng);
  const CsrMatrix s = CsrMatrix::from_dense(m);
  ASSERT_EQ(s.rows(), m.rows());
  ASSERT_EQ(s.cols(), m.cols());
  std::size_t nonzeros = 0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c)
      if (m(r, c) != 0.0) ++nonzeros;
    for (std::size_t k = s.row_ptr()[r]; k + 1 < s.row_ptr()[r + 1]; ++k)
      EXPECT_LT(s.col_idx()[k], s.col_idx()[k + 1]) << "row " << r;
  }
  EXPECT_EQ(s.nnz(), nonzeros);  // both signed zeros are left out

  const Matrix back = s.to_dense();
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(back(r, c), m(r, c));
      EXPECT_EQ(s.coeff(r, c), m(r, c));
    }
}

TEST(CsrMatrix, StoredSignedZerosSurviveToDense) {
  SplitMix64 rng(4);
  const Matrix m = random_sparse(9, 12, 0.3, rng);
  // Store every entry that is nonzero or carries a sign bit.
  const CsrMatrix s = pattern_from_dense(m, [&m](std::size_t r, std::size_t c) {
    return m(r, c) != 0.0 || std::signbit(m(r, c));
  });
  std::size_t negative_zeros = 0;
  const Matrix back = s.to_dense();
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_TRUE(same_bits(back(r, c), m(r, c))) << r << "," << c;
      if (m(r, c) == 0.0 && std::signbit(m(r, c))) ++negative_zeros;
    }
  ASSERT_GT(negative_zeros, 0u);

  // assign_nonzeros drops exactly the stored zeros.
  CsrMatrix dropped;
  dropped.assign_nonzeros(s);
  EXPECT_EQ(dropped.nnz(), s.nnz() - negative_zeros);
  const CsrMatrix direct = CsrMatrix::from_dense(m);
  ASSERT_EQ(dropped.nnz(), direct.nnz());
  for (std::size_t r = 0; r <= m.rows(); ++r)
    EXPECT_EQ(dropped.row_ptr()[r], direct.row_ptr()[r]);
  for (std::size_t k = 0; k < direct.nnz(); ++k) {
    EXPECT_EQ(dropped.col_idx()[k], direct.col_idx()[k]);
    EXPECT_TRUE(same_bits(dropped.values()[k], direct.values()[k]));
  }
}

TEST(CsrMatrix, MultiplyIsBitIdenticalToDense) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SplitMix64 rng(seed);
    const std::size_t rows = 1 + static_cast<std::size_t>(rng.uniform(0, 40));
    const std::size_t cols = 1 + static_cast<std::size_t>(rng.uniform(0, 40));
    const Matrix m = random_sparse(rows, cols, rng.uniform(0.02, 0.5), rng);
    // Structural zeros: every signed zero and a random share of the +0.0
    // entries are stored.
    const CsrMatrix s =
        pattern_from_dense(m, [&m, &rng](std::size_t r, std::size_t c) {
          return m(r, c) != 0.0 || std::signbit(m(r, c)) ||
                 rng.uniform(0, 1) < 0.1;
        });
    Vector x(cols);
    for (std::size_t j = 0; j < cols; ++j)
      x[j] = rng.uniform(0, 1) < 0.2 ? 0.0 : rng.uniform(-1e3, 1e3);

    const Vector expect = m * x;
    const Vector got = s.multiply(x);
    Vector into(3);  // wrong size on entry: multiply resizes it
    s.multiply(x, into);
    ASSERT_EQ(got.size(), expect.size());
    ASSERT_EQ(into.size(), expect.size());
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(same_bits(got[i], expect[i]))
          << "seed " << seed << " row " << i;
      EXPECT_TRUE(same_bits(into[i], expect[i]));
    }
  }
}

TEST(CsrMatrix, ZeroRowMatrices) {
  const CsrMatrix empty(0, 5);
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.cols(), 5u);
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_EQ(empty.multiply(Vector(5, 1.0)).size(), 0u);
  const Matrix dense = empty.to_dense();
  EXPECT_EQ(dense.rows(), 0u);
  EXPECT_EQ(dense.cols(), 5u);

  const CsrMatrix from = CsrMatrix::from_dense(Matrix(0, 7));
  EXPECT_EQ(from.rows(), 0u);
  EXPECT_EQ(from.cols(), 7u);

  CsrMatrix t;
  empty.transpose_into(t);
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 0u);
  EXPECT_EQ(t.nnz(), 0u);
}

TEST(CsrMatrix, EmptyRowsMultiplyToPositiveZero) {
  Matrix m(4, 3);
  m(1, 0) = 2.0;
  m(1, 2) = -1.0;
  const CsrMatrix s = CsrMatrix::from_dense(m);
  EXPECT_EQ(s.row_ptr()[0], s.row_ptr()[1]);
  EXPECT_EQ(s.row_ptr()[2], s.row_ptr()[4]);
  const Vector x{-1.0, 5.0, 3.0};
  const Vector y = s.multiply(x);
  const Vector expect = m * x;
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(same_bits(y[i], expect[i]));
  EXPECT_FALSE(std::signbit(y[0]));
  EXPECT_EQ(y[1], -5.0);
}

TEST(CsrMatrix, DimensionMismatchThrows) {
  const CsrMatrix s = CsrMatrix::from_dense(Matrix::identity(3));
  Vector y;
  EXPECT_THROW(s.multiply(Vector(4), y), std::invalid_argument);
  EXPECT_THROW(s.multiply(Vector(2)), std::invalid_argument);
  EXPECT_THROW(s.coeff(3, 0), std::invalid_argument);

  CsrMatrix b;
  b.reset(3);
  b.push(1, 1.0);
  EXPECT_THROW(b.push(1, 2.0), std::invalid_argument);  // not ascending
  EXPECT_THROW(b.push(3, 2.0), std::invalid_argument);  // out of range
  EXPECT_THROW(CsrMatrix::from_entries(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
}

TEST(CsrMatrix, FromEntriesSumsLikeDenseAccumulation) {
  // Terms at one position add in the order given, from 0.0, as m(r, c) += v
  // would; listed positions stay stored even when their sum is zero.
  const std::vector<CsrMatrix::Entry> entries = {
      {1, 2, 0.1}, {0, 0, 0.0}, {1, 2, 0.2}, {1, 0, -0.5},
      {1, 2, 0.3}, {2, 1, 1.0}, {2, 1, -1.0}, {0, 0, -0.0}};
  Matrix dense(3, 3);
  for (const CsrMatrix::Entry& e : entries) dense(e.row, e.col) += e.value;
  const CsrMatrix s = CsrMatrix::from_entries(3, 3, entries);
  EXPECT_EQ(s.nnz(), 4u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_TRUE(same_bits(s.coeff(r, c), dense(r, c))) << r << "," << c;
  EXPECT_EQ(s.col_idx()[s.row_ptr()[1]], 0u);  // row 1 sorted: 0, then 2
}

TEST(CsrMatrix, TransposeAndDiagonal) {
  SplitMix64 rng(8);
  const Matrix m = random_sparse(6, 9, 0.3, rng);
  CsrMatrix t;
  CsrMatrix::from_dense(m).transpose_into(t);
  const Matrix mt = m.transposed();
  const Matrix back = t.to_dense();
  ASSERT_EQ(back.rows(), 9u);
  ASSERT_EQ(back.cols(), 6u);
  for (std::size_t r = 0; r < 9; ++r)
    for (std::size_t c = 0; c < 6; ++c) EXPECT_EQ(back(r, c), mt(r, c));

  CsrMatrix h = CsrMatrix::from_entries(
      3, 3, {{0, 0, 1.0}, {1, 1, 0.0}, {2, 2, 2.0}, {0, 2, 0.5}});
  h.add_to_diagonal(0.25);
  EXPECT_EQ(h.coeff(0, 0), 1.25);
  EXPECT_EQ(h.coeff(1, 1), 0.25);
  EXPECT_EQ(h.coeff(2, 2), 2.25);
  EXPECT_EQ(h.coeff(0, 2), 0.5);

  CsrMatrix no_slot = CsrMatrix::from_entries(2, 2, {{0, 0, 1.0}});
  EXPECT_THROW(no_slot.add_to_diagonal(1.0), std::invalid_argument);
  EXPECT_THROW(t.add_to_diagonal(1.0), std::invalid_argument);  // 9×6
}

}  // namespace
}  // namespace evc::num
