#include "util/svccheck.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <utility>

namespace repro::util::svc {

namespace {

/// Name-keyed lock-order graph shared by every CheckedMutex. Guarded by its
/// own plain std::mutex — the graph lock is a leaf (nothing is acquired
/// under it), so it cannot itself create an inversion.
struct LockGraph {
  std::mutex mu;
  /// edges[a] contains b  <=>  some thread acquired b while holding a.
  std::map<std::string, std::set<std::string>> edges;
  /// Lock pairs already reported (unordered), so a hot inversion reports
  /// once, not once per acquisition.
  std::set<std::pair<std::string, std::string>> reported_pairs;
  /// Wait sites already reported for blocked-while-locked.
  std::set<std::pair<std::string, std::string>> reported_waits;

  /// True when the graph already contains a path from -> ... -> to.
  /// Iterative DFS; the graph has one node per distinct lock *name*, so it
  /// stays tiny (single digits in this codebase).
  bool path_exists(const std::string& from, const std::string& to) {
    std::vector<const std::string*> stack{&from};
    std::set<std::string> seen;
    while (!stack.empty()) {
      const std::string& node = *stack.back();
      stack.pop_back();
      if (node == to) return true;
      if (!seen.insert(node).second) continue;
      auto it = edges.find(node);
      if (it == edges.end()) continue;
      for (const auto& next : it->second) stack.push_back(&next);
    }
    return false;
  }
};

LockGraph& lock_graph() {
  static LockGraph graph;
  return graph;
}

/// Locks the calling thread currently holds, in acquisition order.
thread_local std::vector<const CheckedMutex*> tls_held;

thread_local CheckpointScope* tls_checkpoint_scope = nullptr;

std::pair<std::string, std::string> unordered_pair(const std::string& a,
                                                   const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

const char* svc_hazard_kind_name(SvcHazardKind kind) {
  switch (kind) {
    case SvcHazardKind::kLockOrderInversion: return "lock-order-inversion";
    case SvcHazardKind::kBlockedWhileLocked: return "blocked-while-locked";
    case SvcHazardKind::kCheckpointGap: return "checkpoint-gap";
  }
  return "unknown";
}

void set_svccheck_enabled(bool enabled) {
  svc_detail::enabled_flag.store(enabled, std::memory_order_relaxed);
}

bool svccheck_env_enabled() {
  const char* value = std::getenv("REPRO_SVCCHECK");
  return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
}

SvcHazardLog& SvcHazardLog::instance() {
  static SvcHazardLog log;
  return log;
}

void SvcHazardLog::record(SvcHazardRecord record) {
  std::lock_guard lock(mu_);
  ++total_;
  if (records_.size() < kMaxRecords) records_.push_back(std::move(record));
}

std::vector<SvcHazardRecord> SvcHazardLog::snapshot() const {
  std::lock_guard lock(mu_);
  return records_;
}

std::uint64_t SvcHazardLog::total() const {
  std::lock_guard lock(mu_);
  return total_;
}

void SvcHazardLog::clear() {
  std::lock_guard lock(mu_);
  records_.clear();
  total_ = 0;
  // Forget reported pairs too: a cleared log is a fresh analysis window
  // (tests clear between cases and expect redetection).
  LockGraph& graph = lock_graph();
  std::lock_guard graph_lock(graph.mu);
  graph.edges.clear();
  graph.reported_pairs.clear();
  graph.reported_waits.clear();
}

void CheckedMutex::lock() {
  if (svccheck_enabled() && !tls_held.empty()) {
    // The inversions are logged after the graph lock is released, as
    // note_blocking_wait does: SvcHazardLog::clear() takes the log's mutex
    // and then the graph lock, so logging under the graph lock would invert
    // that order.
    std::vector<SvcHazardRecord> inversions;
    {
      LockGraph& graph = lock_graph();
      std::lock_guard graph_lock(graph.mu);
      for (const CheckedMutex* held : tls_held) {
        if (held->name_ == name_) continue;  // same graph node: never an edge
        const bool new_edge = graph.edges[held->name_].insert(name_).second;
        if (!new_edge) continue;
        // Adding held -> this closes a cycle iff this ->* held already holds.
        if (graph.path_exists(name_, held->name_) &&
            graph.reported_pairs.insert(unordered_pair(held->name_, name_))
                .second) {
          SvcHazardRecord record;
          record.kind = SvcHazardKind::kLockOrderInversion;
          record.name = held->name_ + " -> " + name_;
          record.detail = "lock-order inversion: '" + name_ +
                          "' acquired while holding '" + held->name_ +
                          "', but the opposite order also occurs — a "
                          "potential deadlock";
          inversions.push_back(std::move(record));
        }
      }
    }
    for (SvcHazardRecord& record : inversions)
      SvcHazardLog::instance().record(std::move(record));
  }
  mu_.lock();
  tls_held.push_back(this);
}

void CheckedMutex::unlock() {
  // Tolerant reverse-scan pop: unique_lock may release out of LIFO order.
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (*it == this) {
      tls_held.erase(std::next(it).base());
      break;
    }
  }
  mu_.unlock();
}

bool CheckedMutex::try_lock() {
  // A non-blocking acquire cannot deadlock, so it adds no graph edges.
  if (!mu_.try_lock()) return false;
  tls_held.push_back(this);
  return true;
}

void note_blocking_wait(const CheckedMutex* about_to_release) {
  if (!svccheck_enabled()) return;
  std::string held_names;
  for (const CheckedMutex* held : tls_held) {
    if (held == about_to_release) continue;
    if (!held_names.empty()) held_names += ", ";
    held_names += held->name();
  }
  if (held_names.empty()) return;
  const std::string wait_name =
      about_to_release != nullptr ? about_to_release->name() : "<join>";
  LockGraph& graph = lock_graph();
  {
    std::lock_guard graph_lock(graph.mu);
    if (!graph.reported_waits.insert({wait_name, held_names}).second) return;
  }
  SvcHazardRecord record;
  record.kind = SvcHazardKind::kBlockedWhileLocked;
  record.name = wait_name;
  record.detail = "blocking wait on '" + wait_name + "' while holding '" +
                  held_names + "' — contenders of the held lock stall for "
                  "the whole wait";
  SvcHazardLog::instance().record(std::move(record));
}

namespace svc_detail {

void note_checkpoint_slow(const char* name) {
  CheckpointScope* scope = tls_checkpoint_scope;
  if (scope == nullptr) return;
  for (const std::string& seen : scope->polled_)
    if (seen == name) return;
  scope->polled_.emplace_back(name);
}

}  // namespace svc_detail

CheckpointScope::CheckpointScope() : prev_(tls_checkpoint_scope) {
  tls_checkpoint_scope = this;
}

CheckpointScope::~CheckpointScope() { tls_checkpoint_scope = prev_; }

bool CheckpointScope::polled(const char* name) const {
  for (const std::string& seen : polled_)
    if (seen == name) return true;
  return false;
}

std::vector<std::string> CheckpointScope::missing(
    std::span<const char* const> required) const {
  std::vector<std::string> gaps;
  for (const char* name : required)
    if (!polled(name)) gaps.emplace_back(name);
  return gaps;
}

}  // namespace repro::util::svc
