// Per-block shared-memory arena.
//
// Kernels allocate their shared buffers from this arena at block start; the
// high-water mark feeds the occupancy calculation, which is how the paper's
// shared-memory/occupancy trade-offs (bins in Fig. 14, PSSM vs BLOSUM62 in
// Fig. 15) become measurable here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "simt/simtcheck.hpp"

namespace repro::simt {

class SharedMemory {
 public:
  // The arena is not zero-filled up front: alloc() zeroes what it hands
  // out, and a block rarely uses much of its 48 kB budget.
  explicit SharedMemory(std::size_t capacity_bytes)
      : storage_(std::make_unique_for_overwrite<std::uint8_t[]>(
            capacity_bytes + alignof(std::max_align_t) - 1)),
        capacity_(capacity_bytes) {
    // Align the arena base to max_align_t so every offset that alloc()
    // rounds to alignof(T) is genuinely T-aligned, whatever T is.
    void* p = storage_.get();
    std::size_t space = capacity_bytes + alignof(std::max_align_t) - 1;
    base_ = static_cast<std::uint8_t*>(
        std::align(alignof(std::max_align_t), capacity_bytes, p, space));
  }

  /// Allocates n elements of T, aligned. Models raw `__shared__` storage:
  /// the arena zero-fills (so simulated results are reproducible), but the
  /// initcheck shadow treats every byte as *undefined* until some lane
  /// writes it — on hardware this memory is garbage at block start. Use
  /// alloc_zeroed() for buffers whose kernel contract is "starts at zero".
  /// Throws std::bad_alloc-like logic_error when the block's shared budget
  /// is exceeded (a real kernel would fail to launch).
  template <class T>
  std::span<T> alloc(std::size_t n) {
    return alloc_impl<T>(n, /*zeroed=*/false);
  }

  /// Like alloc(), but declares a cooperative prologue memset: the span is
  /// defined-at-alloc for initcheck, modeling a kernel that zeroes the
  /// buffer before first use (a CUDA port must emit that memset — the
  /// simulator's zero-fill is what this overload makes explicit).
  /// Physically identical to alloc(), so results, metrics, and occupancy
  /// never depend on which overload a kernel calls.
  template <class T>
  std::span<T> alloc_zeroed(std::size_t n) {
    return alloc_impl<T>(n, /*zeroed=*/true);
  }

  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::uint8_t* base() const { return base_; }

  /// Attaches the hazard analyzer (nullptr detaches; see simtcheck.hpp).
  void set_checker(BlockChecker* check) { check_ = check; }

  /// Releases all allocations (block end); high-water survives.
  void reset() {
    used_ = 0;
    if (check_ != nullptr) check_->on_shared_reset();
  }

 private:
  template <class T>
  std::span<T> alloc_impl(std::size_t n, bool zeroed) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "shared memory holds trivially-copyable device types");
    const std::size_t align = alignof(T);
    const std::size_t offset = (used_ + align - 1) / align * align;
    const std::size_t bytes = n * sizeof(T);
    if (offset + bytes > capacity_)
      throw std::length_error("SharedMemory: block shared-memory budget "
                              "exceeded");
    const std::size_t old_used = used_;
    used_ = offset + bytes;
    high_water_ = std::max(high_water_, used_);
    std::uint8_t* raw = base_ + offset;
    T* base;
    if constexpr (std::is_trivially_default_constructible_v<T>) {
      // Implicit-lifetime T: zero the bytes; the array is implicitly
      // created in the arena's storage ([intro.object]/10) and launder
      // yields a usable pointer to it.
      std::memset(raw, 0, bytes);
      base = std::launder(reinterpret_cast<T*>(raw));
    } else {
      // Non-trivial default construction: start each lifetime explicitly.
      base = reinterpret_cast<T*>(static_cast<void*>(raw));
      std::uninitialized_value_construct_n(base, n);
    }
    if (check_ != nullptr) check_->on_shared_alloc(old_used, used_, zeroed);
    return {base, n};
  }

  std::unique_ptr<std::uint8_t[]> storage_;
  std::size_t capacity_;
  std::uint8_t* base_ = nullptr;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  BlockChecker* check_ = nullptr;
};

}  // namespace repro::simt
