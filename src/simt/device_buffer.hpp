// 128-byte-aligned host vectors standing in for cudaMalloc'd device
// buffers. cudaMalloc guarantees at least 256-byte alignment; without it a
// perfectly coalesced warp access straddles two 128-byte segments and load
// efficiency is halved — the same artifact appears in this simulation if
// device data lives in ordinary std::vector storage, so use DeviceVector
// for anything kernels index.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "util/fault.hpp"

namespace repro::simt {

// Memcheck range table (simtcheck.cpp). Declared here, not included, to
// keep this header light; every allocation is registered so the hazard
// analyzer can validate kernel accesses against live buffer extents.
void register_device_allocation(const void* p, std::size_t bytes);
void unregister_device_allocation(const void* p) noexcept;

// Initcheck definedness (simtcheck.cpp; see simtcheck.hpp for the model).
void mark_device_initialized(const void* p, std::size_t bytes);
void mark_device_uninitialized(const void* p, std::size_t bytes);

namespace simtcheck_detail {
// Sticky initcheck switch, defined in simtcheck.cpp. Declared extern so
// the construct hook's disabled cost is one inlined relaxed load.
extern std::atomic<bool> device_shadow_flag;
}  // namespace simtcheck_detail

template <class T>
struct DeviceAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 128;

  DeviceAllocator() = default;
  template <class U>
  DeviceAllocator(const DeviceAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    // "simt.alloc" models cudaMalloc returning cudaErrorMemoryAllocation.
    if (util::fault_point("simt.alloc")) throw std::bad_alloc();
    const std::size_t bytes =
        (n * sizeof(T) + kAlignment - 1) / kAlignment * kAlignment;
    void* p = std::aligned_alloc(kAlignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    // Register the requested extent (not the rounded one): an off-by-one
    // past the buffer is then a memcheck hazard, while the physical padding
    // keeps the simulated access itself memory-safe.
    register_device_allocation(p, n * sizeof(T));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    unregister_device_allocation(p);
    std::free(p);
  }

  /// Initcheck hook: constructing an element *with* a value models staging
  /// real host data into the buffer (the cudaMemcpy/cudaMemset analogue),
  /// so those bytes become defined. Construction without one (vector(n),
  /// resize) default-initializes, so it writes nothing, as cudaMalloc
  /// writes nothing: the bytes hold whatever the heap left there, pages
  /// nothing touches stay uncommitted, and the definedness shadow keeps
  /// them poisoned until a kernel write or mark_device_initialized.
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
      if (simtcheck_detail::device_shadow_flag.load(std::memory_order_relaxed))
        mark_device_initialized(p, sizeof(U));
    }
  }

  template <class U>
  bool operator==(const DeviceAllocator<U>&) const {
    return true;
  }
};

/// A host-side stand-in for a device global-memory buffer.
template <class T>
using DeviceVector = std::vector<T, DeviceAllocator<T>>;

}  // namespace repro::simt
