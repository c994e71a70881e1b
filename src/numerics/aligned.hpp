// 64-byte-aligned storage for the numerics containers.
//
// Alignment is a performance property, not a correctness one: a 64-byte
// base puts every buffer on a cache-line boundary, so the first element of
// a row never straddles two lines. Matrix rows are only individually
// aligned when the column count is a multiple of 8 doubles — no loop
// *assumes* alignment, the dense loops just profit from it.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace evc::num {

/// Minimal C++17 aligned allocator (std::aligned_alloc under the hood).
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two >= alignof(T)");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    // aligned_alloc requires the size to be a multiple of the alignment.
    const std::size_t bytes = (n * sizeof(T) + Alignment - 1) / Alignment * Alignment;
    void* p = std::aligned_alloc(Alignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// Cache-line alignment for every numerics buffer.
inline constexpr std::size_t kNumAlignment = 64;

/// Backing store of Vector/Matrix (and the QP workspace's CSR values):
/// a std::vector whose heap block is 64-byte aligned.
using AlignedBuffer = std::vector<double, AlignedAllocator<double, kNumAlignment>>;

}  // namespace evc::num
