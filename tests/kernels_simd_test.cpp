// Bitwise-reproducibility contract of the SIMD dispatch layer.
//
// Every runnable kernel table (scalar / sse2 / avx2 / neon, whatever this
// host offers) must produce doubles bit-identical to the blocked scalar
// reference re-implemented below with plain doubles — on every size,
// remainder lanes included, and on unaligned pointers. This is the property
// that lets checkpoint/soak byte-identity hold no matter which target a
// host auto-selects. Comparisons are on bit patterns, never EXPECT_DOUBLE_EQ.
//
// NOTE: this file must be compiled with -ffp-contract=off (set in
// tests/CMakeLists.txt) so the reference below cannot be fused into FMAs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "numerics/aligned.hpp"
#include "numerics/matrix.hpp"
#include "numerics/simd.hpp"
#include "numerics/simd_blocked.hpp"
#include "numerics/vector.hpp"
#include "util/random.hpp"

namespace {

using namespace evc;
using num::simd::Isa;
using num::simd::KernelTable;

std::uint64_t bits(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(bits(a), bits(b))

// ---------------------------------------------------------------------------
// Test-local blocked scalar reference: the documented accumulation order —
// four logical lanes, eight-element unroll with two accumulators, reduction
// tree (l0+l2)+(l1+l3), sequential scalar tail — written out with plain
// doubles, independent of the library's Pack machinery.

struct RefLanes {
  double l[4];
};

RefLanes ref_zero() { return {{0.0, 0.0, 0.0, 0.0}}; }

void ref_acc(RefLanes& acc, const double* x, const double* y) {
  for (int lane = 0; lane < 4; ++lane) {
    const double prod = x[lane] * y[lane];
    acc.l[lane] = acc.l[lane] + prod;
  }
}

double ref_reduce(const RefLanes& v) {
  return (v.l[0] + v.l[2]) + (v.l[1] + v.l[3]);
}

double ref_dot(const double* x, const double* y, std::size_t n) {
  RefLanes acc0 = ref_zero();
  RefLanes acc1 = ref_zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    ref_acc(acc0, x + i, y + i);
    ref_acc(acc1, x + i + 4, y + i + 4);
  }
  for (int lane = 0; lane < 4; ++lane) acc0.l[lane] += acc1.l[lane];
  for (; i + 4 <= n; i += 4) ref_acc(acc0, x + i, y + i);
  double r = ref_reduce(acc0);
  for (; i < n; ++i) r += x[i] * y[i];
  return r;
}

void ref_axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double prod = a * x[i];
    y[i] = y[i] + prod;
  }
}

void ref_scale(double a, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = a * x[i];
}

void ref_gemv(double alpha, const double* a, std::size_t lda, std::size_t rows,
              std::size_t cols, const double* x, double* y) {
  for (std::size_t i = 0; i < rows; ++i)
    y[i] += alpha * ref_dot(a + i * lda, x, cols);
}

void ref_gemv_t(double alpha, const double* a, std::size_t lda,
                std::size_t rows, std::size_t cols, const double* x,
                double* y) {
  for (std::size_t i = 0; i < rows; ++i)
    ref_axpy(alpha * x[i], a + i * lda, y, cols);
}

void ref_gemm(double alpha, const double* a, std::size_t lda, const double* b,
              std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
              std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p)
      ref_axpy(alpha * a[i * lda + p], b + p * ldb, c + i * ldc, n);
}

// ---------------------------------------------------------------------------

std::vector<double> random_data(SplitMix64& rng, std::size_t n) {
  std::vector<double> out(n);
  // Mixed magnitudes and signs so reassociated sums would actually differ.
  for (double& v : out) v = rng.uniform(-3.0, 3.0) * (1.0 + rng.uniform(0.0, 1e4));
  return out;
}

/// Sizes that hit every lane-remainder class (mod 8 and mod 4) plus a pair
/// of larger blocks.
std::vector<std::size_t> test_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 67; ++n) sizes.push_back(n);
  sizes.push_back(128);
  sizes.push_back(129);
  return sizes;
}

class SimdTargetTest : public ::testing::TestWithParam<Isa> {
 protected:
  const KernelTable& table() const {
    const KernelTable* t = num::simd::table_for(GetParam());
    EXPECT_NE(t, nullptr);
    return *t;
  }
};

TEST_P(SimdTargetTest, DotMatchesBlockedReferenceBitwise) {
  const KernelTable& tbl = table();
  SplitMix64 rng(11);
  for (const std::size_t n : test_sizes()) {
    const auto x = random_data(rng, n);
    const auto y = random_data(rng, n);
    EXPECT_BITEQ(tbl.dot(x.data(), y.data(), n), ref_dot(x.data(), y.data(), n))
        << "n=" << n;
  }
}

TEST_P(SimdTargetTest, AxpyMatchesBitwise) {
  const KernelTable& tbl = table();
  SplitMix64 rng(12);
  for (const std::size_t n : test_sizes()) {
    const auto x = random_data(rng, n);
    auto y_ref = random_data(rng, n);
    auto y_tbl = y_ref;
    const double a = rng.uniform(-2.0, 2.0);
    ref_axpy(a, x.data(), y_ref.data(), n);
    tbl.axpy(a, x.data(), y_tbl.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_BITEQ(y_tbl[i], y_ref[i]) << "n=" << n << " i=" << i;
  }
}

TEST_P(SimdTargetTest, ScaleMatchesBitwise) {
  const KernelTable& tbl = table();
  SplitMix64 rng(13);
  for (const std::size_t n : test_sizes()) {
    auto x_ref = random_data(rng, n);
    auto x_tbl = x_ref;
    const double a = rng.uniform(-2.0, 2.0);
    ref_scale(a, x_ref.data(), n);
    tbl.scale(a, x_tbl.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_BITEQ(x_tbl[i], x_ref[i]) << "n=" << n << " i=" << i;
  }
}

TEST_P(SimdTargetTest, GemvMatchesBitwise) {
  const KernelTable& tbl = table();
  SplitMix64 rng(14);
  for (const std::size_t rows : {1u, 3u, 7u, 12u, 31u}) {
    for (const std::size_t cols : {1u, 5u, 8u, 13u, 64u, 67u}) {
      const auto a = random_data(rng, rows * cols);
      const auto x = random_data(rng, cols);
      auto y_ref = random_data(rng, rows);
      auto y_tbl = y_ref;
      const double alpha = rng.uniform(-2.0, 2.0);
      ref_gemv(alpha, a.data(), cols, rows, cols, x.data(), y_ref.data());
      tbl.gemv(alpha, a.data(), cols, rows, cols, x.data(), y_tbl.data());
      for (std::size_t i = 0; i < rows; ++i)
        EXPECT_BITEQ(y_tbl[i], y_ref[i])
            << rows << "x" << cols << " i=" << i;
    }
  }
}

TEST_P(SimdTargetTest, GemvTransposeMatchesBitwise) {
  const KernelTable& tbl = table();
  SplitMix64 rng(15);
  for (const std::size_t rows : {1u, 3u, 7u, 12u, 31u}) {
    for (const std::size_t cols : {1u, 5u, 8u, 13u, 64u, 67u}) {
      const auto a = random_data(rng, rows * cols);
      const auto x = random_data(rng, rows);
      auto y_ref = random_data(rng, cols);
      auto y_tbl = y_ref;
      const double alpha = rng.uniform(-2.0, 2.0);
      ref_gemv_t(alpha, a.data(), cols, rows, cols, x.data(), y_ref.data());
      tbl.gemv_t(alpha, a.data(), cols, rows, cols, x.data(), y_tbl.data());
      for (std::size_t j = 0; j < cols; ++j)
        EXPECT_BITEQ(y_tbl[j], y_ref[j])
            << rows << "x" << cols << " j=" << j;
    }
  }
}

TEST_P(SimdTargetTest, GemmMatchesBitwise) {
  const KernelTable& tbl = table();
  SplitMix64 rng(16);
  for (const std::size_t m : {1u, 4u, 9u}) {
    for (const std::size_t k : {1u, 6u, 17u}) {
      for (const std::size_t n : {1u, 7u, 8u, 33u}) {
        const auto a = random_data(rng, m * k);
        const auto b = random_data(rng, k * n);
        auto c_ref = random_data(rng, m * n);
        auto c_tbl = c_ref;
        const double alpha = rng.uniform(-2.0, 2.0);
        ref_gemm(alpha, a.data(), k, b.data(), n, c_ref.data(), n, m, k, n);
        tbl.gemm(alpha, a.data(), k, b.data(), n, c_tbl.data(), n, m, k, n);
        for (std::size_t i = 0; i < m * n; ++i)
          EXPECT_BITEQ(c_tbl[i], c_ref[i])
              << m << "x" << k << "x" << n << " i=" << i;
      }
    }
  }
}

TEST_P(SimdTargetTest, UnalignedPointersMatchBitwise) {
  // Offset every operand by one double so no pointer is 16-, 32- or 64-byte
  // aligned: the kernels promise unaligned-safe loads/stores.
  const KernelTable& tbl = table();
  SplitMix64 rng(17);
  for (const std::size_t n : {7u, 16u, 29u, 64u, 65u}) {
    const auto xs = random_data(rng, n + 1);
    auto ys_ref = random_data(rng, n + 1);
    auto ys_tbl = ys_ref;
    const double* x = xs.data() + 1;
    ASSERT_NE(reinterpret_cast<std::uintptr_t>(x) % 16, 0u);

    EXPECT_BITEQ(tbl.dot(x, ys_tbl.data() + 1, n),
                 ref_dot(x, ys_ref.data() + 1, n))
        << "n=" << n;

    const double a = rng.uniform(-2.0, 2.0);
    ref_axpy(a, x, ys_ref.data() + 1, n);
    tbl.axpy(a, x, ys_tbl.data() + 1, n);
    for (std::size_t i = 0; i <= n; ++i)
      EXPECT_BITEQ(ys_tbl[i], ys_ref[i]) << "n=" << n << " i=" << i;
  }
}

std::string isa_name(const ::testing::TestParamInfo<Isa>& info) {
  return num::simd::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, SimdTargetTest,
                         ::testing::ValuesIn(num::simd::available_targets()),
                         isa_name);

// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ScalarTargetAlwaysAvailable) {
  const auto targets = num::simd::available_targets();
  bool has_scalar = false;
  for (const Isa isa : targets) {
    EXPECT_NE(isa, Isa::kOff);
    if (isa == Isa::kScalar) has_scalar = true;
  }
  EXPECT_TRUE(has_scalar);
}

TEST(SimdDispatchTest, ActiveTableMatchesActiveIsa) {
  if (!num::simd::dispatch_enabled()) {
    EXPECT_EQ(num::simd::active_isa(), Isa::kOff);
    return;  // EVC_SIMD=off: call sites keep their legacy loops
  }
  EXPECT_EQ(num::simd::active().isa, num::simd::active_isa());
  EXPECT_EQ(num::simd::table_for(num::simd::active_isa()),
            &num::simd::active());
}

TEST(SimdDispatchTest, NumericsStorageIsCacheLineAligned) {
  num::Vector v(37);
  num::Matrix m(13, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.ptr()) % num::kNumAlignment,
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.ptr()) % num::kNumAlignment,
            0u);
}

}  // namespace
