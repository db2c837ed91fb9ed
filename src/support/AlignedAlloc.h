//===- support/AlignedAlloc.h - Over-aligned std::vector storage ----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal C++17 allocator that over-aligns every allocation. The
/// compiled serving substrate keeps its arenas in
/// std::vector<T, AlignedAllocator<T, 64>> so each arena section starts
/// on a cache-line boundary.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_ALIGNEDALLOC_H
#define PBT_SUPPORT_ALIGNEDALLOC_H

#include <cstddef>
#include <new>
#include <vector>

namespace pbt {
namespace support {

template <typename T, std::size_t Alignment> struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "alignment below the type's natural alignment");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment> &) noexcept {}

  template <typename U> struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T *allocate(std::size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T *P, std::size_t) noexcept {
    ::operator delete(P, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator &,
                         const AlignedAllocator &) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &,
                         const AlignedAllocator &) noexcept {
    return false;
  }
};

/// The one alignment the serving substrate uses: a full cache line.
constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
using CacheAlignedVector = std::vector<T, AlignedAllocator<T, kCacheLineBytes>>;

} // namespace support
} // namespace pbt

#endif // PBT_SUPPORT_ALIGNEDALLOC_H
