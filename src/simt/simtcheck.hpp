// simtcheck: a racecheck/synccheck/memcheck-style hazard analyzer for the
// software SIMT engine (the cuda-memcheck tool family, re-homed).
//
// The engine executes the warps of a block *serially* inside BlockCtx::par,
// so a kernel with a genuine inter-warp shared-memory race, a collective
// under a divergent mask, or an un-atomic cross-block global store produces
// correct results here while being broken on a real GPU. This analyzer
// makes those latent hazards visible:
//
//  - Racecheck (shared): every byte of the shared-memory arena carries
//    shadow state (last writer/reader warp, last access epoch, atomicity).
//    BlockCtx::par advances a barrier epoch per region; a write paired with
//    any other-warp access to the same byte in the same epoch is a race —
//    the two accesses are unordered between barriers on hardware.
//  - Racecheck (global): plain (non-atomic) stores are tracked per block at
//    byte granularity; after the launch, bytes written plainly by two
//    different blocks (or plainly by one and atomically by another) are
//    cross-block races. Atomic/atomic collisions are fine.
//  - Synccheck: window collectives record the active mask; a window that is
//    partially active reads inactive peers' registers — undefined on
//    hardware (warp.hpp documents the window-uniform assumption). The
//    implicit par() barrier likewise flags a warp arriving divergent.
//  - Memcheck: accesses past a shared span, into a released (reset())
//    arena, or outside any registered DeviceAllocator allocation.
//  - Initcheck: every byte of a device allocation (and of a plain shared
//    alloc()) starts *undefined*. A device allocation physically holds
//    whatever the heap left there, as cudaMalloc's does; the shared
//    arena's zero-fill is an artifact __shared__ does not grant. Bytes
//    become defined when real host data is staged in (DeviceAllocator's
//    construct hook, mark_device_initialized), when a kernel writes them,
//    or when the kernel declares a cooperative memset with
//    SharedMemory::alloc_zeroed.
//    A read (or atomic RMW) of a still-undefined byte is garbage on
//    hardware and is flagged. Per block the verdict depends only on the
//    registry state at launch entry plus the block's own prior writes, so
//    reports stay bit-identical for any worker count.
//  - Leakcheck: allocations carry a thread-local site tag, a session
//    generation, and a resident flag; device_leak_check() reports live
//    non-resident allocations that outlived their query or session.
//
// Determinism: hazards are detected per block (blocks run on exactly one
// worker each; warps within a block run serially in warp order) and merged
// in block-id order after the launch, so counts and records are
// bit-identical for any engine worker count. When the checker is disabled,
// every instrumentation site is a single `if (check_ != nullptr)` test on
// the hot path and no counter changes — metrics and the cost model stay
// bit-identical to an unchecked build.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace repro::simt {

enum class HazardKind {
  kSharedRace = 0,        ///< same-epoch inter-warp shared conflict
  kGlobalRace,            ///< cross-block plain-store collision
  kDivergentCollective,   ///< window collective under a partial window mask
  kDivergentBarrier,      ///< warp reached the par() barrier divergent
  kSharedOutOfBounds,     ///< access past a shared span / the live arena
  kSharedUseAfterReset,   ///< access into arena space released by reset()
  kGlobalOutOfBounds,     ///< access outside every registered device buffer
  kSharedUninitRead,      ///< read of a never-written shared byte (initcheck)
  kGlobalUninitRead,      ///< read of an undefined device byte (initcheck)
  kDeviceLeak,            ///< allocation outlived its query (leakcheck)
  kLockOrderInversion,    ///< host lock-order cycle (svccheck)
  kBlockedWhileLocked,    ///< host wait holding another lock (svccheck)
  kCheckpointGap,         ///< cancellation checkpoint never polled (svccheck)
};
inline constexpr int kNumHazardKinds = 13;

[[nodiscard]] const char* hazard_kind_name(HazardKind kind);

/// How an instrumented access touches memory (shadow-state input).
enum class AccessKind : std::uint8_t { kRead = 0, kWrite, kAtomic };

/// One detailed hazard: enough to point at the offending kernel source.
struct HazardRecord {
  HazardKind kind = HazardKind::kSharedRace;
  std::string kernel;
  int block = -1;       ///< block that detected the hazard (second accessor)
  int warp = -1;        ///< warp of the detecting access (-1 if n/a)
  int other_warp = -1;  ///< conflicting warp (shared races)
  int other_block = -1; ///< conflicting block (global races)
  std::uint32_t epoch = 0;        ///< barrier epoch (shared hazards)
  std::uint64_t byte_offset = 0;  ///< shared-arena byte offset
  std::uintptr_t address = 0;     ///< global address (0 for shared hazards)
  std::size_t extent = 0;         ///< bytes covered by the hazard
  std::uint32_t active_mask = 0;  ///< divergence hazards: the mask seen
  int width = 0;                  ///< collective window width
  std::string detail;             ///< e.g. the collective's name
};

/// Accumulated hazards: per-kind and per-kernel counts plus the first few
/// detailed records (the cuda-memcheck "first N errors" contract).
struct HazardReport {
  static constexpr std::size_t kMaxRecords = 64;

  std::uint64_t total = 0;
  std::array<std::uint64_t, kNumHazardKinds> by_kind{};
  std::map<std::string, std::uint64_t> by_kernel;
  std::vector<HazardRecord> records;  ///< first kMaxRecords, in detection order
  std::uint64_t collectives_checked = 0;  ///< synccheck coverage counter

  [[nodiscard]] std::uint64_t count(HazardKind kind) const {
    return by_kind[static_cast<std::size_t>(kind)];
  }
  void add(HazardRecord record);
  /// Folds `other` into this report (counts sum, records append up to
  /// kMaxRecords) — how the service aggregates per-request reports.
  void merge(const HazardReport& other);
  void clear();
  /// Human-readable multi-line summary (empty-report safe).
  [[nodiscard]] std::string summary() const;
};

/// Registers a live DeviceAllocator allocation with the memcheck range
/// table. Called by DeviceAllocator for every allocation, checker or not
/// (the cost is one mutex-guarded map update per cudaMalloc analogue).
/// The entry also captures the thread's DeviceAllocSite tag, the current
/// device generation, the DeviceResidentScope flag, and — when the sticky
/// initcheck switch is on — a per-byte definedness shadow.
void register_device_allocation(const void* p, std::size_t bytes);
void unregister_device_allocation(const void* p) noexcept;

/// True iff [p, p + bytes) lies inside one live device allocation. Lets
/// host-side launchers decide whether a caller's buffer needs staging into
/// a DeviceVector before kernels may touch it.
[[nodiscard]] bool is_device_address(const void* p, std::size_t bytes);

/// Reads REPRO_SIMTCHECK from the environment ("1"/"true"/"on" enable).
[[nodiscard]] bool simtcheck_env_enabled();

// ---------------------------------------------------------------------------
// Initcheck: per-allocation definedness shadows.

/// Per-allocation definedness shadow. Allocated at registration when the
/// device-shadow switch is on (allocations made before the switch carry no
/// shadow and are grandfathered all-defined). Bytes flip to defined on
/// transfer-style construction (DeviceAllocator::construct with a value),
/// explicit mark_device_initialized calls, and kernel writes (unioned into
/// the shadow at launch finalize). During a launch the `defined` bytes are
/// immutable — workers read them lock-free through a cached shared_ptr.
struct DeviceShadow {
  std::vector<std::uint8_t> defined;  ///< one flag byte per buffer byte
  std::atomic<std::uint64_t> undefined_count{0};
};

/// [begin, end) of the allocation covering an access, plus its shadow
/// (null: no live allocation, or a pre-switch/grandfathered one).
struct DeviceRange {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
  std::shared_ptr<DeviceShadow> shadow;
};

/// Sticky process-wide initcheck switch. Engine::set_simtcheck_enabled(true)
/// turns it on so every allocation made from then on carries a shadow;
/// turning it off stops shadowing new allocations but existing shadows keep
/// tracking (they are still correct, just no longer reported).
void set_device_shadow_enabled(bool enabled);
[[nodiscard]] bool device_shadow_enabled();

/// Marks [p, p + bytes) of a live device allocation defined — the analogue
/// of cudaMemcpy/cudaMemset landing real bytes in device memory. Use after
/// host-side element-loop staging (operator[] writes bypass the allocator's
/// construct hook). No-op while the shadow switch is off.
void mark_device_initialized(const void* p, std::size_t bytes);

/// The mirror of mark_device_initialized: marks [p, p + bytes) of a live
/// device allocation undefined again, as if freshly cudaMalloc'd. A buffer
/// reused across launches (the session's bin grid) calls it when it is
/// re-armed, so a kernel reading a byte it did not write this time is
/// still reported. An allocation that predates the shadow switch gets its
/// shadow here, defined outside the range. No-op while the switch is off.
void mark_device_uninitialized(const void* p, std::size_t bytes);

// ---------------------------------------------------------------------------
// Leakcheck: allocation sites, generations, residency.

/// RAII allocation-site tag: device allocations made on this thread while
/// the scope is alive are attributed to `site` (a string literal; the
/// registry stores the pointer). Scopes nest; the innermost wins.
class DeviceAllocSite {
 public:
  explicit DeviceAllocSite(const char* site);
  ~DeviceAllocSite();
  DeviceAllocSite(const DeviceAllocSite&) = delete;
  DeviceAllocSite& operator=(const DeviceAllocSite&) = delete;

 private:
  const char* prev_;
};

/// RAII residency scope: allocations made on this thread while the scope is
/// alive are session-resident (the device DB image, uploaded once and
/// legitimately outliving every query) and excluded from leak scans.
class DeviceResidentScope {
 public:
  DeviceResidentScope();
  ~DeviceResidentScope();
  DeviceResidentScope(const DeviceResidentScope&) = delete;
  DeviceResidentScope& operator=(const DeviceResidentScope&) = delete;

 private:
  bool prev_;
};

/// Bumps the process-wide device generation and returns the new value.
/// Allocations stamp the generation current at their creation; a leak scan
/// with `min_generation` set to a query/session entry value sees exactly
/// the allocations made since that point.
std::uint64_t begin_device_generation();
[[nodiscard]] std::uint64_t current_device_generation();

/// Live-allocation accounting, for "destroyed session holds nothing" tests.
struct DeviceAllocationStats {
  std::uint64_t live_allocations = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t resident_allocations = 0;
  std::uint64_t resident_bytes = 0;
};
[[nodiscard]] DeviceAllocationStats device_allocation_stats();

/// Leakcheck scan: appends one kDeviceLeak record per allocation site that
/// still owns live non-resident allocations of generation >=
/// `min_generation`, in site-name order (deterministic; record addresses
/// are left 0 so reports compare bit-identical across runs). Returns the
/// total leaked bytes.
std::uint64_t device_leak_check(HazardReport& sink,
                                std::uint64_t min_generation);

/// Per-block analyzer state. Each block runs on exactly one worker and its
/// warps run serially, so no locking is needed; results merge in block-id
/// order inside LaunchChecker::finalize.
class BlockChecker {
 public:
  explicit BlockChecker(int block_id) : block_id_(block_id) {}

  // -- wiring (BlockCtx / SharedMemory) ----------------------------------
  void attach_shared(const std::uint8_t* base, std::size_t capacity) {
    shared_base_ = reinterpret_cast<std::uintptr_t>(base);
    shared_capacity_ = capacity;
  }
  /// A shared alloc grew the arena from `old_used` to `new_used` bytes.
  /// `zeroed` distinguishes alloc_zeroed (a declared cooperative memset:
  /// bytes start defined) from plain alloc (__shared__ garbage: bytes start
  /// undefined until some lane writes them).
  void on_shared_alloc(std::size_t old_used, std::size_t new_used,
                       bool zeroed);
  void on_shared_reset() {
    shared_used_ = 0;
    shared_reset_seen_ = true;
  }

  // -- synccheck ---------------------------------------------------------
  void begin_region() { ++epoch_; }
  void on_barrier(int warp, std::uint32_t mask);
  void on_collective(int warp, std::uint32_t mask, int width,
                     const char* what);

  // -- racecheck + memcheck: shared arena --------------------------------
  /// An active lane touched [addr, addr + bytes) of the shared arena.
  /// `span_oob` marks an index already past the owning span's extent.
  void shared_access(int warp, std::uintptr_t addr, std::size_t bytes,
                     AccessKind kind, bool span_oob);

  // -- racecheck + memcheck: global buffers ------------------------------
  void global_access(int warp, std::uintptr_t addr, std::size_t bytes,
                     AccessKind kind);

 private:
  friend class LaunchChecker;

  struct ShadowByte {
    std::uint32_t write_epoch = 0;
    std::uint32_t read_epoch = 0;
    std::int8_t write_warp = -1;
    std::int8_t read_warp = -1;
    bool write_atomic = false;
    bool defined = true;  ///< initcheck; alloc() poisons its range to false
  };

  /// Per-8-byte-granule plain/atomic write masks (one bit per byte).
  /// DeviceAllocator aligns to 128 bytes, so a granule never spans two
  /// allocations; byte masks keep adjacent-element writes from aliasing.
  struct GranuleWrites {
    std::uint8_t plain = 0;
    std::uint8_t atomic = 0;
  };

  HazardRecord make_record(HazardKind kind, int warp) const;
  void report(HazardRecord record) { local_.add(std::move(record)); }

  int block_id_;
  std::uint32_t epoch_ = 0;
  std::uintptr_t shared_base_ = 0;
  std::size_t shared_capacity_ = 0;
  std::size_t shared_used_ = 0;
  bool shared_reset_seen_ = false;
  std::vector<ShadowByte> shadow_;  ///< lazily sized to the arena capacity

  std::unordered_map<std::uintptr_t, GranuleWrites> global_writes_;
  std::uintptr_t bounds_cache_begin_ = 0;  ///< last allocation hit
  std::uintptr_t bounds_cache_end_ = 0;
  std::shared_ptr<DeviceShadow> bounds_cache_shadow_;  ///< of the last hit

  HazardReport local_;
};

/// Per-launch analyzer: one BlockChecker slot per block (workers touch
/// disjoint slots), plus the post-launch cross-block store analysis.
class LaunchChecker {
 public:
  LaunchChecker(std::string kernel, int grid_blocks);

  [[nodiscard]] BlockChecker& block(int b) {
    return blocks_[static_cast<std::size_t>(b)];
  }

  /// Merges per-block hazards in block-id order, runs the cross-block
  /// global race analysis, and appends everything into `sink`. Returns the
  /// number of hazards this launch contributed.
  std::uint64_t finalize(HazardReport& sink);

 private:
  void find_cross_block_races(HazardReport& sink, std::uint64_t& found);

  std::string kernel_;
  std::vector<BlockChecker> blocks_;
};

}  // namespace repro::simt
