#include "simt/simtcheck.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "simt/device.hpp"

namespace repro::simt {

namespace simtcheck_detail {
// Shared with DeviceAllocator's construct hook (device_buffer.hpp declares
// it extern so the per-element definedness gate stays one relaxed load
// without pulling this header into the allocator).
std::atomic<bool> device_shadow_flag{false};
}  // namespace simtcheck_detail

namespace {

/// Leakcheck thread-local attribution state (see DeviceAllocSite /
/// DeviceResidentScope). Plain thread_locals: allocation and tagging happen
/// on the same thread by construction.
thread_local const char* tls_alloc_site = nullptr;
thread_local bool tls_resident = false;

/// Session-generation counter. Starts at 1 so generation 0 unambiguously
/// means "allocated before any query/session began".
std::atomic<std::uint64_t> g_device_generation{1};

/// Process-wide table of live device allocations, keyed by begin address.
/// DeviceAllocator registers/unregisters under a mutex; BlockChecker reads
/// under the same mutex but caches the last hit, so steady-state kernel
/// accesses rarely take the lock.
class DeviceMemoryRegistry {
 public:
  static DeviceMemoryRegistry& instance() {
    static DeviceMemoryRegistry registry;
    return registry;
  }

  struct Allocation {
    std::uintptr_t end = 0;
    const char* site = nullptr;       ///< string literal or null (untagged)
    std::uint64_t generation = 0;     ///< device generation at creation
    bool resident = false;            ///< DeviceResidentScope was active
    std::shared_ptr<DeviceShadow> shadow;  ///< null: grandfathered defined
  };

  void insert(std::uintptr_t begin, std::uintptr_t end) {
    Allocation alloc;
    alloc.end = end;
    alloc.site = tls_alloc_site;
    alloc.generation = g_device_generation.load(std::memory_order_relaxed);
    alloc.resident = tls_resident;
    if (simtcheck_detail::device_shadow_flag.load(std::memory_order_relaxed) &&
        end > begin) {
      alloc.shadow = std::make_shared<DeviceShadow>();
      alloc.shadow->defined.assign(end - begin, 0);
      alloc.shadow->undefined_count.store(end - begin,
                                          std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    ranges_[begin] = std::move(alloc);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  void erase(std::uintptr_t begin) noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    ranges_.erase(begin);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Returns the allocation containing [addr, addr + bytes), or an empty
  /// range when the access lies in no live allocation.
  [[nodiscard]] DeviceRange find(std::uintptr_t addr,
                                 std::size_t bytes) const {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = ranges_.upper_bound(addr);
    if (it == ranges_.begin()) return {};
    --it;
    if (addr >= it->first && addr + bytes <= it->second.end)
      return {it->first, it->second.end, it->second.shadow};
    return {};
  }

  /// Bumped on every insert/erase; validates mark_device_initialized's
  /// thread-local allocation cache.
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Marks the union of per-launch kernel write masks defined. Called from
  /// LaunchChecker::finalize on the launching thread, after every block of
  /// the launch has completed.
  void define_written(
      const std::unordered_map<std::uintptr_t, std::uint8_t>& granules) {
    if (granules.empty()) return;
    std::vector<std::uintptr_t> keys;
    keys.reserve(granules.size());
    for (const auto& [granule, mask] : granules)
      if (mask != 0) keys.push_back(granule);
    std::sort(keys.begin(), keys.end());

    const std::lock_guard<std::mutex> lock(mu_);
    std::uintptr_t begin = 0;
    const Allocation* alloc = nullptr;
    for (const std::uintptr_t granule : keys) {
      const std::uintptr_t base = granule * kGranuleBytes;
      if (alloc == nullptr || base < begin || base >= alloc->end) {
        auto it = ranges_.upper_bound(base);
        if (it == ranges_.begin()) continue;
        --it;
        if (base >= it->second.end) continue;
        begin = it->first;
        alloc = &it->second;
      }
      DeviceShadow* shadow = alloc->shadow.get();
      if (shadow == nullptr || shadow->undefined_count.load(
                                   std::memory_order_relaxed) == 0)
        continue;
      const std::uint8_t mask = granules.at(granule);
      std::uint64_t newly = 0;
      for (std::uintptr_t byte = 0; byte < kGranuleBytes; ++byte) {
        if ((mask & (1u << byte)) == 0) continue;
        const std::uintptr_t addr = base + byte;
        if (addr < begin || addr >= alloc->end) continue;
        std::uint8_t& flag = shadow->defined[addr - begin];
        if (flag == 0) {
          flag = 1;
          ++newly;
        }
      }
      if (newly != 0)
        shadow->undefined_count.fetch_sub(newly, std::memory_order_relaxed);
    }
  }

  /// Marks [addr, addr + bytes) defined; tolerates ranges outside any live
  /// allocation (portion ignored — the memcheck layer owns OOB reporting).
  void define_range(std::uintptr_t addr, std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = ranges_.upper_bound(addr);
    if (it == ranges_.begin()) return;
    --it;
    if (addr >= it->second.end) return;
    DeviceShadow* shadow = it->second.shadow.get();
    if (shadow == nullptr) return;
    const std::uintptr_t begin = it->first;
    const std::uintptr_t end = std::min<std::uintptr_t>(
        addr + bytes, it->second.end);
    std::uint64_t newly = 0;
    for (std::uintptr_t a = addr; a < end; ++a) {
      std::uint8_t& flag = shadow->defined[a - begin];
      if (flag == 0) {
        flag = 1;
        ++newly;
      }
    }
    if (newly != 0)
      shadow->undefined_count.fetch_sub(newly, std::memory_order_relaxed);
  }

  /// Marks [addr, addr + bytes) undefined again, clipped to the allocation
  /// containing addr. An allocation without a shadow (made before the
  /// switch) gets one, defined outside the range; the epoch bump drops
  /// DefineCache entries that saw it shadowless.
  void undefine_range(std::uintptr_t addr, std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = ranges_.upper_bound(addr);
    if (it == ranges_.begin()) return;
    --it;
    Allocation& alloc = it->second;
    if (addr >= alloc.end) return;
    const std::uintptr_t begin = it->first;
    if (alloc.shadow == nullptr) {
      alloc.shadow = std::make_shared<DeviceShadow>();
      alloc.shadow->defined.assign(alloc.end - begin, 1);
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uintptr_t end =
        std::min<std::uintptr_t>(addr + bytes, alloc.end);
    std::uint64_t newly = 0;
    for (std::uintptr_t a = addr; a < end; ++a) {
      std::uint8_t& flag = alloc.shadow->defined[a - begin];
      newly += flag;
      flag = 0;
    }
    alloc.shadow->undefined_count.fetch_add(newly, std::memory_order_relaxed);
  }

  [[nodiscard]] DeviceAllocationStats stats() const {
    DeviceAllocationStats out;
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [begin, alloc] : ranges_) {
      const std::uint64_t bytes = alloc.end - begin;
      ++out.live_allocations;
      out.live_bytes += bytes;
      if (alloc.resident) {
        ++out.resident_allocations;
        out.resident_bytes += bytes;
      }
    }
    return out;
  }

  struct LeakSite {
    std::string site;
    std::uint64_t allocations = 0;
    std::uint64_t bytes = 0;
  };
  /// Live non-resident allocations with generation >= min_generation,
  /// grouped by site and sorted by site name (deterministic reports).
  [[nodiscard]] std::vector<LeakSite> leak_scan(
      std::uint64_t min_generation) const {
    std::map<std::string, LeakSite> by_site;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [begin, alloc] : ranges_) {
        if (alloc.resident || alloc.generation < min_generation) continue;
        const char* site = alloc.site != nullptr ? alloc.site : "untagged";
        LeakSite& entry = by_site[site];
        entry.site = site;
        ++entry.allocations;
        entry.bytes += alloc.end - begin;
      }
    }
    std::vector<LeakSite> out;
    out.reserve(by_site.size());
    for (auto& [site, entry] : by_site) out.push_back(std::move(entry));
    return out;
  }

  static constexpr std::uintptr_t kGranuleBytes = 8;

 private:
  mutable std::mutex mu_;
  std::map<std::uintptr_t, Allocation> ranges_;
  std::atomic<std::uint64_t> epoch_{0};
};

constexpr std::uintptr_t kGranuleBytes = 8;

}  // namespace

const char* hazard_kind_name(HazardKind kind) {
  switch (kind) {
    case HazardKind::kSharedRace: return "shared-race";
    case HazardKind::kGlobalRace: return "global-race";
    case HazardKind::kDivergentCollective: return "divergent-collective";
    case HazardKind::kDivergentBarrier: return "divergent-barrier";
    case HazardKind::kSharedOutOfBounds: return "shared-oob";
    case HazardKind::kSharedUseAfterReset: return "shared-use-after-reset";
    case HazardKind::kGlobalOutOfBounds: return "global-oob";
    case HazardKind::kSharedUninitRead: return "shared-uninit-read";
    case HazardKind::kGlobalUninitRead: return "global-uninit-read";
    case HazardKind::kDeviceLeak: return "device-leak";
    case HazardKind::kLockOrderInversion: return "lock-order-inversion";
    case HazardKind::kBlockedWhileLocked: return "blocked-while-locked";
    case HazardKind::kCheckpointGap: return "checkpoint-gap";
  }
  return "unknown";
}

void HazardReport::add(HazardRecord record) {
  ++total;
  ++by_kind[static_cast<std::size_t>(record.kind)];
  if (!record.kernel.empty()) ++by_kernel[record.kernel];
  if (records.size() < kMaxRecords) records.push_back(std::move(record));
}

void HazardReport::merge(const HazardReport& other) {
  total += other.total;
  for (int k = 0; k < kNumHazardKinds; ++k)
    by_kind[static_cast<std::size_t>(k)] +=
        other.by_kind[static_cast<std::size_t>(k)];
  for (const auto& [kernel, count] : other.by_kernel)
    by_kernel[kernel] += count;
  collectives_checked += other.collectives_checked;
  for (const HazardRecord& record : other.records) {
    if (records.size() >= kMaxRecords) break;
    records.push_back(record);
  }
}

void HazardReport::clear() {
  total = 0;
  by_kind.fill(0);
  by_kernel.clear();
  records.clear();
  collectives_checked = 0;
}

std::string HazardReport::summary() const {
  std::ostringstream out;
  if (total == 0) {
    out << "simtcheck: 0 hazards (" << collectives_checked
        << " collectives checked)";
    return out.str();
  }
  out << "simtcheck: " << total << " hazard" << (total == 1 ? "" : "s");
  const char* sep = " (";
  for (int k = 0; k < kNumHazardKinds; ++k) {
    if (by_kind[static_cast<std::size_t>(k)] == 0) continue;
    out << sep << hazard_kind_name(static_cast<HazardKind>(k)) << " "
        << by_kind[static_cast<std::size_t>(k)];
    sep = ", ";
  }
  out << ")";
  for (const auto& [kernel, count] : by_kernel)
    out << "\n  kernel '" << kernel << "': " << count;
  const std::size_t shown = records.size();
  for (std::size_t i = 0; i < shown; ++i) {
    const HazardRecord& r = records[i];
    out << "\n  [" << hazard_kind_name(r.kind) << "] kernel '" << r.kernel
        << "' block " << r.block;
    if (r.warp >= 0) out << " warp " << r.warp;
    if (r.other_warp >= 0) out << " vs warp " << r.other_warp;
    if (r.other_block >= 0) out << " vs block " << r.other_block;
    switch (r.kind) {
      case HazardKind::kSharedRace:
      case HazardKind::kSharedOutOfBounds:
      case HazardKind::kSharedUseAfterReset:
      case HazardKind::kSharedUninitRead:
        out << " epoch " << r.epoch << " shared+" << r.byte_offset << " ("
            << r.extent << " B)";
        break;
      case HazardKind::kGlobalRace:
      case HazardKind::kGlobalOutOfBounds:
      case HazardKind::kGlobalUninitRead:
        out << " addr 0x" << std::hex << r.address << std::dec << " ("
            << r.extent << " B)";
        break;
      case HazardKind::kDivergentCollective:
      case HazardKind::kDivergentBarrier:
        out << " mask 0x" << std::hex << r.active_mask << std::dec;
        if (r.width > 0) out << " width " << r.width;
        break;
      case HazardKind::kDeviceLeak:
        out << " (" << r.extent << " B)";
        break;
      case HazardKind::kLockOrderInversion:
      case HazardKind::kBlockedWhileLocked:
      case HazardKind::kCheckpointGap:
        break;  // the detail line carries everything
    }
    if (!r.detail.empty()) out << " [" << r.detail << "]";
  }
  if (total > shown)
    out << "\n  ... and " << (total - shown) << " more";
  return out.str();
}

void register_device_allocation(const void* p, std::size_t bytes) {
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  DeviceMemoryRegistry::instance().insert(begin, begin + bytes);
}

void unregister_device_allocation(const void* p) noexcept {
  DeviceMemoryRegistry::instance().erase(
      reinterpret_cast<std::uintptr_t>(p));
}

bool is_device_address(const void* p, std::size_t bytes) {
  return DeviceMemoryRegistry::instance()
             .find(reinterpret_cast<std::uintptr_t>(p), bytes)
             .end != 0;
}

bool simtcheck_env_enabled() {
  const char* value = std::getenv("REPRO_SIMTCHECK");
  if (value == nullptr) return false;
  const std::string v(value);
  return !(v.empty() || v == "0" || v == "false" || v == "off");
}

// ---------------------------------------------------------------------------
// Initcheck / leakcheck free functions

void set_device_shadow_enabled(bool enabled) {
  simtcheck_detail::device_shadow_flag.store(enabled,
                                             std::memory_order_relaxed);
}

bool device_shadow_enabled() {
  return simtcheck_detail::device_shadow_flag.load(std::memory_order_relaxed);
}

namespace {

/// Per-thread write-combining cache for mark_device_initialized: staging
/// loops define elements of one buffer back to back, so resolve the
/// allocation once and update its shadow lock-free until the registry
/// changes under us (epoch mismatch) or the range moves.
struct DefineCache {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
  std::shared_ptr<DeviceShadow> shadow;
  std::uint64_t epoch = ~std::uint64_t{0};
};
thread_local DefineCache tls_define_cache;

}  // namespace

void mark_device_initialized(const void* p, std::size_t bytes) {
  if (!device_shadow_enabled() || bytes == 0) return;
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  auto& registry = DeviceMemoryRegistry::instance();
  DefineCache& cache = tls_define_cache;
  const std::uint64_t epoch = registry.epoch();
  if (cache.epoch == epoch && addr >= cache.begin &&
      addr + bytes <= cache.end) {
    if (cache.shadow == nullptr) return;  // grandfathered: already defined
    std::uint64_t newly = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      std::uint8_t& flag = cache.shadow->defined[addr - cache.begin + i];
      if (flag == 0) {
        flag = 1;
        ++newly;
      }
    }
    if (newly != 0)
      cache.shadow->undefined_count.fetch_sub(newly,
                                              std::memory_order_relaxed);
    return;
  }
  const DeviceRange range = registry.find(addr, bytes);
  if (range.end == 0) {
    // Outside any single live allocation (or straddling): take the slow
    // per-range path and leave the cache alone.
    registry.define_range(addr, bytes);
    return;
  }
  cache.begin = range.begin;
  cache.end = range.end;
  cache.shadow = range.shadow;
  cache.epoch = epoch;
  if (cache.shadow == nullptr) return;
  std::uint64_t newly = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    std::uint8_t& flag = cache.shadow->defined[addr - cache.begin + i];
    if (flag == 0) {
      flag = 1;
      ++newly;
    }
  }
  if (newly != 0)
    cache.shadow->undefined_count.fetch_sub(newly, std::memory_order_relaxed);
}

void mark_device_uninitialized(const void* p, std::size_t bytes) {
  if (!device_shadow_enabled() || bytes == 0) return;
  DeviceMemoryRegistry::instance().undefine_range(
      reinterpret_cast<std::uintptr_t>(p), bytes);
}

DeviceAllocSite::DeviceAllocSite(const char* site) : prev_(tls_alloc_site) {
  tls_alloc_site = site;
}
DeviceAllocSite::~DeviceAllocSite() { tls_alloc_site = prev_; }

DeviceResidentScope::DeviceResidentScope() : prev_(tls_resident) {
  tls_resident = true;
}
DeviceResidentScope::~DeviceResidentScope() { tls_resident = prev_; }

std::uint64_t begin_device_generation() {
  return g_device_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t current_device_generation() {
  return g_device_generation.load(std::memory_order_relaxed);
}

DeviceAllocationStats device_allocation_stats() {
  return DeviceMemoryRegistry::instance().stats();
}

std::uint64_t device_leak_check(HazardReport& sink,
                                std::uint64_t min_generation) {
  const auto sites =
      DeviceMemoryRegistry::instance().leak_scan(min_generation);
  std::uint64_t leaked_bytes = 0;
  for (const auto& site : sites) {
    HazardRecord record;
    record.kind = HazardKind::kDeviceLeak;
    record.extent = site.bytes;
    std::ostringstream detail;
    detail << site.site << ": " << site.allocations
           << " live device allocation"
           << (site.allocations == 1 ? "" : "s")
           << " outlived the query/session";
    record.detail = detail.str();
    sink.add(std::move(record));
    leaked_bytes += site.bytes;
  }
  return leaked_bytes;
}

// ---------------------------------------------------------------------------
// BlockChecker

HazardRecord BlockChecker::make_record(HazardKind kind, int warp) const {
  HazardRecord record;
  record.kind = kind;
  record.block = block_id_;
  record.warp = warp;
  record.epoch = epoch_;
  return record;
}

void BlockChecker::on_barrier(int warp, std::uint32_t mask) {
  if (mask == 0xffffffffu) return;
  HazardRecord record = make_record(HazardKind::kDivergentBarrier, warp);
  record.active_mask = mask;
  record.detail = "warp reached the implicit par() barrier divergent";
  report(std::move(record));
}

void BlockChecker::on_collective(int warp, std::uint32_t mask, int width,
                                 const char* what) {
  ++local_.collectives_checked;
  // Window collectives read peer lanes within each width-lane window
  // (warp.hpp documents the window-uniform mask assumption), so a window
  // that is neither fully active nor fully inactive makes an active lane
  // read an inactive peer — undefined on hardware. Fully inactive windows
  // are fine: none of their lanes execute.
  if (width <= 0) return;
  const auto m = static_cast<std::uint64_t>(mask);
  bool divergent = false;
  for (int base = 0; base < kWarpSize; base += width) {
    const std::uint64_t full =
        (std::uint64_t{1} << std::min(width, kWarpSize - base)) - 1;
    const std::uint64_t window = (m >> base) & full;
    if (window != 0 && window != full) {
      divergent = true;
      break;
    }
  }
  if (!divergent) return;
  HazardRecord record = make_record(HazardKind::kDivergentCollective, warp);
  record.active_mask = mask;
  record.width = width;
  record.detail = what;
  report(std::move(record));
}

void BlockChecker::on_shared_alloc(std::size_t old_used, std::size_t new_used,
                                   bool zeroed) {
  shared_used_ = new_used;
  // Initcheck: the fresh range (alignment padding included) starts with a
  // clean race shadow and the alloc's declared definedness. alloc() models
  // __shared__ garbage (undefined until a lane writes); alloc_zeroed()
  // models a kernel-prologue cooperative memset (defined at alloc) —
  // physically both are zero-filled, only the shadow differs.
  if (shadow_.empty()) shadow_.resize(shared_capacity_);
  for (std::size_t i = old_used; i < new_used && i < shadow_.size(); ++i) {
    shadow_[i] = ShadowByte{};
    shadow_[i].defined = zeroed;
  }
}

void BlockChecker::shared_access(int warp, std::uintptr_t addr,
                                 std::size_t bytes, AccessKind kind,
                                 bool span_oob) {
  const std::uint64_t offset = addr - shared_base_;
  // Memcheck first: indexing past the owning span, or touching arena space
  // that is not currently allocated (past used_, or released by reset()).
  if (span_oob || offset + bytes > shared_used_) {
    const bool after_reset = !span_oob && shared_reset_seen_;
    HazardRecord record = make_record(
        after_reset ? HazardKind::kSharedUseAfterReset
                    : HazardKind::kSharedOutOfBounds,
        warp);
    record.byte_offset = offset;
    record.extent = bytes;
    record.detail = span_oob ? "index past the shared span"
                             : (after_reset ? "arena released by reset()"
                                            : "access past the live arena");
    report(std::move(record));
    return;  // don't feed out-of-bounds bytes into the race shadow
  }

  if (shadow_.empty()) shadow_.resize(shared_capacity_);
  const auto w = static_cast<std::int8_t>(warp);

  // Initcheck: a read (or atomic RMW) of a byte no lane has written since
  // its alloc() reads __shared__ garbage on hardware — the simulator's
  // zero-fill is an artifact unless alloc_zeroed() declared the memset.
  if (kind != AccessKind::kWrite) {
    std::uint64_t first_undef = 0;
    std::size_t undef = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      const ShadowByte& s = shadow_[static_cast<std::size_t>(offset) + i];
      if (s.defined) continue;
      if (undef == 0) first_undef = offset + i;
      ++undef;
    }
    if (undef != 0) {
      HazardRecord record = make_record(HazardKind::kSharedUninitRead, warp);
      record.byte_offset = first_undef;
      record.extent = undef;
      record.detail = kind == AccessKind::kAtomic
                          ? "atomic RMW of never-written shared bytes"
                          : "read of never-written shared bytes";
      report(std::move(record));
    }
  }

  bool raced = false;
  int other = -1;
  for (std::size_t i = 0; i < bytes; ++i) {
    ShadowByte& s = shadow_[static_cast<std::size_t>(offset) + i];
    if (kind == AccessKind::kRead) {
      // Read vs same-epoch other-warp write (atomic or plain): the read is
      // unordered with the write until the next barrier.
      if (!raced && s.write_epoch == epoch_ && s.write_warp >= 0 &&
          s.write_warp != w) {
        raced = true;
        other = s.write_warp;
      }
      s.read_epoch = epoch_;
      s.read_warp = w;
    } else {
      const bool atomic = kind == AccessKind::kAtomic;
      // Write vs same-epoch other-warp write — unless both are atomic,
      // which hardware orders. Then write vs same-epoch other-warp read.
      if (!raced && s.write_epoch == epoch_ && s.write_warp >= 0 &&
          s.write_warp != w && !(atomic && s.write_atomic)) {
        raced = true;
        other = s.write_warp;
      }
      if (!raced && s.read_epoch == epoch_ && s.read_warp >= 0 &&
          s.read_warp != w) {
        raced = true;
        other = s.read_warp;
      }
      s.write_epoch = epoch_;
      s.write_warp = w;
      s.write_atomic = atomic;
      s.defined = true;
    }
  }
  if (!raced) return;
  HazardRecord record = make_record(HazardKind::kSharedRace, warp);
  record.other_warp = other;
  record.byte_offset = offset;
  record.extent = bytes;
  report(std::move(record));
}

void BlockChecker::global_access(int warp, std::uintptr_t addr,
                                 std::size_t bytes, AccessKind kind) {
  // Memcheck: the access must sit inside one live device allocation. The
  // one-entry cache makes the common (coalesced, same-buffer) case lock-free.
  if (addr < bounds_cache_begin_ || addr + bytes > bounds_cache_end_) {
    const DeviceRange range =
        DeviceMemoryRegistry::instance().find(addr, bytes);
    if (range.end == 0) {
      HazardRecord record = make_record(HazardKind::kGlobalOutOfBounds, warp);
      record.address = addr;
      record.extent = bytes;
      record.detail = "no registered device allocation covers this access";
      report(std::move(record));
      return;
    }
    bounds_cache_begin_ = range.begin;
    bounds_cache_end_ = range.end;
    bounds_cache_shadow_ = range.shadow;
  }

  // Initcheck: a read (or atomic RMW) of bytes undefined at launch entry
  // that this block has not written itself reads cudaMalloc garbage on
  // hardware. The registry shadow is immutable for the whole launch
  // (kernel writes are unioned in at finalize), so the verdict depends
  // only on pre-launch state + this block's own writes — deterministic for
  // any worker schedule. An all-defined allocation short-circuits on its
  // cached undefined_count.
  if (kind != AccessKind::kWrite && bounds_cache_shadow_ != nullptr &&
      bounds_cache_shadow_->undefined_count.load(std::memory_order_relaxed) !=
          0) {
    std::uintptr_t first_undef = 0;
    std::size_t undef = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      const std::uintptr_t byte = addr + i;
      if (bounds_cache_shadow_->defined[byte - bounds_cache_begin_] != 0)
        continue;
      const auto it = global_writes_.find(byte / kGranuleBytes);
      if (it != global_writes_.end()) {
        const auto bit =
            static_cast<std::uint8_t>(1u << (byte % kGranuleBytes));
        if (((it->second.plain | it->second.atomic) & bit) != 0) continue;
      }
      if (undef == 0) first_undef = byte;
      ++undef;
    }
    if (undef != 0) {
      HazardRecord record = make_record(HazardKind::kGlobalUninitRead, warp);
      record.address = first_undef;
      record.extent = undef;
      record.detail =
          kind == AccessKind::kAtomic
              ? "atomic RMW of device bytes never written or transferred"
              : "read of device bytes never written or transferred";
      report(std::move(record));
    }
  }

  if (kind == AccessKind::kRead) return;
  // Racecheck (global): remember which bytes this block wrote, and how.
  // Cross-block collisions are found after the launch, in block-id order.
  const std::uint8_t bit_kind = kind == AccessKind::kAtomic ? 1 : 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    const std::uintptr_t byte = addr + i;
    GranuleWrites& g = global_writes_[byte / kGranuleBytes];
    const auto bit = static_cast<std::uint8_t>(1u << (byte % kGranuleBytes));
    if (bit_kind != 0)
      g.atomic |= bit;
    else
      g.plain |= bit;
  }
}

// ---------------------------------------------------------------------------
// LaunchChecker

LaunchChecker::LaunchChecker(std::string kernel, int grid_blocks)
    : kernel_(std::move(kernel)) {
  blocks_.reserve(static_cast<std::size_t>(grid_blocks));
  for (int b = 0; b < grid_blocks; ++b) blocks_.emplace_back(b);
}

std::uint64_t LaunchChecker::finalize(HazardReport& sink) {
  std::uint64_t found = 0;
  for (BlockChecker& block : blocks_) {
    HazardReport& local = block.local_;
    found += local.total;
    sink.collectives_checked += local.collectives_checked;
    if (!kernel_.empty()) sink.by_kernel[kernel_] += local.total;
    sink.total += local.total;
    for (int k = 0; k < kNumHazardKinds; ++k)
      sink.by_kind[static_cast<std::size_t>(k)] +=
          local.by_kind[static_cast<std::size_t>(k)];
    for (HazardRecord& record : local.records) {
      if (sink.records.size() >= HazardReport::kMaxRecords) break;
      record.kernel = kernel_;
      sink.records.push_back(std::move(record));
    }
  }
  find_cross_block_races(sink, found);

  // Initcheck: the launch's writes (plain or atomic, any block) define the
  // written device bytes for every later launch. Applied after the per-
  // block analysis so verdicts inside this launch never depended on it.
  if (device_shadow_enabled()) {
    std::unordered_map<std::uintptr_t, std::uint8_t> written;
    for (const BlockChecker& block : blocks_)
      for (const auto& [granule, writes] : block.global_writes_)
        written[granule] |=
            static_cast<std::uint8_t>(writes.plain | writes.atomic);
    DeviceMemoryRegistry::instance().define_written(written);
  }
  return found;
}

void LaunchChecker::find_cross_block_races(HazardReport& sink,
                                           std::uint64_t& found) {
  // Per byte (tracked per 8-byte granule with byte masks): the first two
  // distinct plain-writer blocks and the first two distinct atomic-writer
  // blocks, discovered in block-id order so attribution is deterministic.
  struct ByteWriters {
    std::array<std::int32_t, 8> plain0;
    std::array<std::int32_t, 8> plain1;
    std::array<std::int32_t, 8> atomic0;
    std::array<std::int32_t, 8> atomic1;
    ByteWriters() {
      plain0.fill(-1);
      plain1.fill(-1);
      atomic0.fill(-1);
      atomic1.fill(-1);
    }
  };
  std::unordered_map<std::uintptr_t, ByteWriters> merged;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const auto block = static_cast<std::int32_t>(b);
    for (const auto& [granule, writes] : blocks_[b].global_writes_) {
      ByteWriters& w = merged[granule];
      for (std::size_t byte = 0; byte < 8; ++byte) {
        const auto bit = static_cast<std::uint8_t>(1u << byte);
        if ((writes.plain & bit) != 0) {
          if (w.plain0[byte] < 0)
            w.plain0[byte] = block;
          else if (w.plain1[byte] < 0 && w.plain0[byte] != block)
            w.plain1[byte] = block;
        }
        if ((writes.atomic & bit) != 0) {
          if (w.atomic0[byte] < 0)
            w.atomic0[byte] = block;
          else if (w.atomic1[byte] < 0 && w.atomic0[byte] != block)
            w.atomic1[byte] = block;
        }
      }
    }
  }

  // Collect the offending bytes with their block pair, sort by address, and
  // coalesce adjacent bytes with the same pair into one record each — a
  // racing uint32 store reports once, not four times.
  struct Offender {
    std::uintptr_t addr;
    std::int32_t block_a;
    std::int32_t block_b;
  };
  std::vector<Offender> offenders;
  for (const auto& [granule, w] : merged) {
    for (std::size_t byte = 0; byte < 8; ++byte) {
      const std::int32_t p0 = w.plain0[byte];
      if (p0 < 0) continue;  // atomic-only (or unwritten) byte: no hazard
      std::int32_t other = -1;
      if (w.plain1[byte] >= 0) {
        other = w.plain1[byte];
      } else if (w.atomic0[byte] >= 0 && w.atomic0[byte] != p0) {
        other = w.atomic0[byte];
      } else if (w.atomic1[byte] >= 0 && w.atomic1[byte] != p0) {
        other = w.atomic1[byte];
      }
      if (other < 0) continue;
      offenders.push_back({granule * kGranuleBytes + byte, p0, other});
    }
  }
  std::sort(offenders.begin(), offenders.end(),
            [](const Offender& a, const Offender& b) {
              return a.addr < b.addr;
            });
  std::size_t i = 0;
  while (i < offenders.size()) {
    std::size_t j = i + 1;
    while (j < offenders.size() &&
           offenders[j].addr == offenders[j - 1].addr + 1 &&
           offenders[j].block_a == offenders[i].block_a &&
           offenders[j].block_b == offenders[i].block_b)
      ++j;
    HazardRecord record;
    record.kind = HazardKind::kGlobalRace;
    record.kernel = kernel_;
    record.block = offenders[i].block_b;
    record.other_block = offenders[i].block_a;
    record.address = offenders[i].addr;
    record.extent = j - i;
    record.detail = "plain stores from different blocks overlap";
    sink.add(std::move(record));
    ++found;
    i = j;
  }
}

}  // namespace repro::simt
