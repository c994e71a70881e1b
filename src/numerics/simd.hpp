// Portable SIMD abstraction with runtime dispatch for the numeric kernels.
//
// Every dense inner loop of the solver hot path (numerics/kernels,
// factorization) funnels through a small table of raw-pointer
// kernels — dot / axpy / scale / gemv / gemvᵀ / gemm — with one
// implementation per instruction set:
//
//   * avx2    4-wide AVX2 (x86-64, detected via cpuid at startup)
//   * sse2    2×2-wide SSE2 (x86-64 baseline)
//   * neon    2×2-wide NEON (aarch64 baseline)
//   * scalar  blocked portable fallback (any ISA)
//   * off     dispatch disabled — callers keep their legacy sequential loops
//
// Bitwise reproducibility across targets: all implementations share one
// *blocked accumulation order* (numerics/simd_blocked.hpp) — four logical
// lanes, eight-element unroll, a fixed reduction tree, and no fused
// multiply-add — so every target produces bit-identical doubles to the
// blocked scalar reference on every input, remainder lanes included
// (asserted exhaustively by tests/kernels_simd_test). Checkpoint/soak
// byte-identity therefore holds regardless of which target a host selects.
// The `off` mode instead preserves this repo's pre-SIMD sequential
// arithmetic bit-for-bit, as the escape hatch and A/B reference.
//
// Selection happens once, at first use:
//   EVC_SIMD=off|scalar|sse2|avx2|neon|auto   overrides auto-detection;
//   unset/auto picks the best target supported by both the build and the
//   CPU. Requesting a target the host cannot run falls back to the best
//   available one (with a note on stderr).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

namespace evc::num::simd {

enum class Isa {
  kOff,     ///< dispatch disabled: callers use their legacy sequential loops
  kScalar,  ///< blocked scalar reference (portable, defines the bit pattern)
  kSse2,    ///< x86-64 SSE2, two 2-lane vectors per logical 4-lane pack
  kAvx2,    ///< x86-64 AVX2, one 4-lane vector per pack
  kNeon,    ///< aarch64 NEON, two 2-lane vectors per pack
};

/// Raw-pointer kernels, one slot per primitive the solver hot path needs.
/// All matrices are row-major with leading dimension `lda`/`ldb`/`ldc`
/// (elements between consecutive rows). Outputs must not alias inputs.
struct KernelTable {
  Isa isa = Isa::kScalar;
  /// Σ x[i]·y[i] in blocked order.
  double (*dot)(const double* x, const double* y, std::size_t n);
  /// y[i] += a·x[i] (elementwise; bitwise equal to the plain loop).
  void (*axpy)(double a, const double* x, double* y, std::size_t n);
  /// x[i] *= a.
  void (*scale)(double a, double* x, std::size_t n);
  /// y[i] += alpha·(A·x)[i], one blocked dot per row.
  void (*gemv)(double alpha, const double* a, std::size_t lda,
               std::size_t rows, std::size_t cols, const double* x, double* y);
  /// y[j] += alpha·(Aᵀ·x)[j], one axpy per row (runs along rows of A so the
  /// inner loop is contiguous; never forms the transpose).
  void (*gemv_t)(double alpha, const double* a, std::size_t lda,
                 std::size_t rows, std::size_t cols, const double* x,
                 double* y);
  /// C[i,:] += alpha·Σ_k A[i,k]·B[k,:], one axpy per (i,k).
  void (*gemm)(double alpha, const double* a, std::size_t lda,
               const double* b, std::size_t ldb, double* c, std::size_t ldc,
               std::size_t m, std::size_t k, std::size_t n);
};

const char* to_string(Isa isa);
/// Parse an EVC_SIMD value. "auto"/"best" → Isa behind auto-detection is
/// returned by detect_best(); unknown strings → nullopt.
std::optional<Isa> parse_isa(std::string_view text);

/// Best target supported by both this build and this CPU (never kOff).
Isa detect_best();
/// The target this process runs with — resolved once from EVC_SIMD (or
/// detect_best() when unset/auto) and then immutable.
Isa active_isa();
/// False only in `off` mode; gates every dispatch call site.
bool dispatch_enabled();

/// Kernel table for the active target. In `off` mode this returns the
/// blocked scalar table, but dispatch call sites must consult
/// dispatch_enabled() first and keep their legacy loops when it is false.
const KernelTable& active();

/// Table for a specific target, or nullptr when that target is not compiled
/// into this build or not supported by this CPU (kOff always → nullptr).
const KernelTable* table_for(Isa isa);

/// Every runnable vector/scalar target on this host (kScalar always
/// included; never contains kOff) — the test matrix for bitwise checks.
std::vector<Isa> available_targets();

}  // namespace evc::num::simd
