#include "numerics/simd.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "numerics/simd_blocked.hpp"

namespace evc::num::simd {

namespace {

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::kOff:
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      // SSE2 is part of the x86-64 baseline; AVX2 needs a cpuid check
      // (done once — __builtin_cpu_supports caches the cpuid result).
      return isa == Isa::kSse2 ? true : __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is baseline on aarch64
#else
      return false;
#endif
  }
  return false;
}

Isa resolve_active() {
  const char* env = std::getenv("EVC_SIMD");
  if (env != nullptr && *env != '\0') {
    const auto parsed = parse_isa(env);
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "evclimate: EVC_SIMD=%s not recognized "
                   "(off|scalar|sse2|avx2|neon|auto); auto-detecting\n",
                   env);
      return detect_best();
    }
    if (*parsed == Isa::kOff || table_for(*parsed) != nullptr) return *parsed;
    const Isa best = detect_best();
    std::fprintf(stderr,
                 "evclimate: EVC_SIMD=%s unavailable on this host/build; "
                 "using %s\n",
                 env, to_string(best));
    return best;
  }
  return detect_best();
}

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kOff:
      return "off";
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<Isa> parse_isa(std::string_view text) {
  if (text == "off" || text == "0" || text == "none") return Isa::kOff;
  if (text == "scalar" || text == "blocked") return Isa::kScalar;
  if (text == "sse2") return Isa::kSse2;
  if (text == "avx2") return Isa::kAvx2;
  if (text == "neon") return Isa::kNeon;
  if (text == "auto" || text == "best" || text == "on") return detect_best();
  return std::nullopt;
}

Isa detect_best() {
  if (table_for(Isa::kAvx2) != nullptr) return Isa::kAvx2;
  if (table_for(Isa::kNeon) != nullptr) return Isa::kNeon;
  if (table_for(Isa::kSse2) != nullptr) return Isa::kSse2;
  return Isa::kScalar;
}

Isa active_isa() {
  // Resolved exactly once; every subsequent call (and therefore every
  // kernel dispatch in the process) sees the same target.
  static const Isa isa = resolve_active();
  return isa;
}

bool dispatch_enabled() { return active_isa() != Isa::kOff; }

const KernelTable& active() {
  static const KernelTable& table = *[] {
    const KernelTable* t = table_for(active_isa());
    return t != nullptr ? t : scalar_table();
  }();
  return table;
}

const KernelTable* table_for(Isa isa) {
  if (!cpu_supports(isa)) return nullptr;
  switch (isa) {
    case Isa::kOff:
      return nullptr;
    case Isa::kScalar:
      return scalar_table();
    case Isa::kSse2:
      return sse2_table();
    case Isa::kAvx2:
      return avx2_table();
    case Isa::kNeon:
      return neon_table();
  }
  return nullptr;
}

std::vector<Isa> available_targets() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kNeon})
    if (table_for(isa) != nullptr) out.push_back(isa);
  return out;
}

}  // namespace evc::num::simd
