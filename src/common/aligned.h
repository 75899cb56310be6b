// 64-byte-aligned storage for the vectorized kernel layer (core/simd/):
// an allocator-parameterized std::vector whose data() is cache-line (and
// AVX-512 vector) aligned, so aligned vector loads never split lines.
//
// C++17 aligned operator new does the heavy lifting; the allocator only
// forwards the alignment. AlignedVector is layout- and API-compatible with
// std::vector (it IS std::vector), so call sites keep .data()/.size()/[]
// unchanged — only the template type differs where alignment is part of
// the contract (SoA tile panels and their column-maximum scratch).
#ifndef FSIM_COMMON_ALIGNED_H_
#define FSIM_COMMON_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/check.h"

namespace fsim {

/// Cache-line / AVX-512 vector alignment of the aligned containers.
inline constexpr size_t kSimdAlign = 64;

template <typename T, size_t Align = kSimdAlign>
class AlignedAllocator {
 public:
  static_assert(Align >= alignof(T), "alignment below the type's natural");
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of 2");
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Align>&) const noexcept {
    return false;
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
};

/// std::vector with 64-byte-aligned storage.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// True when `p` sits on a kSimdAlign boundary (FSIM_DCHECK contract of the
/// panels and score buffers the vector kernels load from).
inline bool IsSimdAligned(const void* p) {
  return (reinterpret_cast<uintptr_t>(p) & (kSimdAlign - 1)) == 0;
}

}  // namespace fsim

#endif  // FSIM_COMMON_ALIGNED_H_
