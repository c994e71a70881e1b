// Label for the arithmetic target the numerics are built for. There is
// one: plain scalar code (the dense factorizations' blocked dot order is
// defined in numerics/factorization.cpp). Kept only so benchmark
// environment records can still name it.
#pragma once

namespace evc::num::simd {

enum class Isa { kScalar };

inline Isa active_isa() { return Isa::kScalar; }
inline const char* to_string(Isa) { return "scalar"; }

}  // namespace evc::num::simd
