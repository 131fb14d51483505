#include "simt/simtprof.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/table.hpp"

namespace repro::simt::prof {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Display order for phases that tie on modeled time (typically all-zero):
/// pipeline order, so the table reads like Fig. 12.
int phase_rank(const std::string& phase) {
  static constexpr const char* kOrder[] = {
      "hit_detection", "sorting", "filtering", "extension",
      "gapped",        "h2d",     "d2h",       "other"};
  for (int i = 0; i < static_cast<int>(std::size(kOrder)); ++i)
    if (phase == kOrder[i]) return i;
  return static_cast<int>(std::size(kOrder));
}

void append_kernel_json(std::string& out, const std::string& name,
                        const KernelStats& k, double cycles_per_ms) {
  using util::json_num;
  using util::json_str;
  out += "{\"name\": ";
  out += json_str(name);
  out += ", \"modeled_ms\": ";
  out += json_num(k.time_ms);
  out += ", \"modeled_cycles\": ";
  out += json_num(k.time_ms * cycles_per_ms);
  out += ", \"vec_ops\": ";
  out += json_num(k.vec_ops);
  out += ", \"blocks\": ";
  out += json_num(k.num_blocks);
  out += ", \"occupancy\": ";
  out += json_num(k.occupancy);
  out += ", \"divergence_overhead\": ";
  out += json_num(k.divergence_overhead());
  out += ", \"load_efficiency\": ";
  out += json_num(k.global_load_efficiency());
  out += ", \"store_efficiency\": ";
  out += json_num(k.global_store_efficiency());
  out += ", \"rocache_hit_ratio\": ";
  out += json_num(k.rocache_hit_ratio());
  out += ", \"ld_transactions\": ";
  out += json_num(k.ld_transactions);
  out += ", \"st_transactions\": ";
  out += json_num(k.st_transactions);
  out += ", \"shared_ops\": ";
  out += json_num(k.shared_ops);
  out += ", \"shared_conflict_passes\": ";
  out += json_num(k.shared_conflict_passes);
  out += ", \"atomic_ops\": ";
  out += json_num(k.atomic_ops);
  out += ", \"atomic_serial_passes\": ";
  out += json_num(k.atomic_serial_passes);
  out += "}";
}

}  // namespace

const char* phase_for_kernel(const std::string& kernel_name) {
  if (kernel_name == "hit_detection") return "hit_detection";
  if (kernel_name == "bin_scan" || kernel_name == "hit_sort")
    return "sorting";
  if (kernel_name == "hit_filter") return "filtering";
  if (kernel_name == "ungapped_extension") return "extension";
  if (kernel_name == "gapped_extension_gpu") return "gapped";
  if (starts_with(kernel_name, "h2d_")) return "h2d";
  if (starts_with(kernel_name, "d2h_")) return "d2h";
  return "other";
}

void ContinuousProfiler::set_device(const DeviceSpec& spec) {
  std::lock_guard lock(mutex_);
  spec_ = spec;
}

void ContinuousProfiler::record_search(const ProfileRegistry& delta,
                                       double wall_ms) {
  std::lock_guard lock(mutex_);
  for (const auto& [name, stats] : delta.kernels()) {
    auto [it, inserted] = kernels_.try_emplace(name, stats);
    if (!inserted) it->second.merge(stats);
  }
  ++searches_;
  wall_ms_total_ += wall_ms;
}

std::uint64_t ContinuousProfiler::searches() const {
  std::lock_guard lock(mutex_);
  return searches_;
}

double ContinuousProfiler::total_modeled_ms() const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const auto& [name, stats] : kernels_) total += stats.time_ms;
  return total;
}

std::vector<PhaseProfile> ContinuousProfiler::phases_locked() const {
  std::map<std::string, PhaseProfile> by_phase;
  double total_ms = 0.0;
  for (const auto& [name, stats] : kernels_) {
    const std::string phase = phase_for_kernel(name);
    PhaseProfile& p = by_phase[phase];
    p.phase = phase;
    p.stats.merge(stats);
    p.kernel_names.push_back(name);
    total_ms += stats.time_ms;
  }
  const double cycles_per_ms =
      static_cast<double>(spec_.num_sms) * spec_.clock_ghz * 1e6;
  std::vector<PhaseProfile> out;
  out.reserve(by_phase.size());
  for (auto& [phase, p] : by_phase) {
    p.modeled_cycles = p.stats.time_ms * cycles_per_ms;
    p.share = total_ms > 0.0 ? p.stats.time_ms / total_ms : 0.0;
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(),
            [](const PhaseProfile& a, const PhaseProfile& b) {
              if (a.stats.time_ms != b.stats.time_ms)
                return a.stats.time_ms > b.stats.time_ms;
              return phase_rank(a.phase) < phase_rank(b.phase);
            });
  return out;
}

std::vector<PhaseProfile> ContinuousProfiler::phases() const {
  std::lock_guard lock(mutex_);
  return phases_locked();
}

std::string ContinuousProfiler::to_json() const {
  using util::json_num;
  using util::json_str;
  std::lock_guard lock(mutex_);
  const auto phases = phases_locked();
  double total_ms = 0.0;
  for (const auto& [name, stats] : kernels_) total_ms += stats.time_ms;
  const double cycles_per_ms =
      static_cast<double>(spec_.num_sms) * spec_.clock_ghz * 1e6;

  std::string out;
  out.reserve(1 << 14);
  out += "{\n  \"schema\": \"cublastp.profile.v1\",\n";
  out += "  \"device\": {\"name\": ";
  out += json_str(spec_.name);
  out += ", \"num_sms\": ";
  out += json_num(static_cast<std::int64_t>(spec_.num_sms));
  out += ", \"clock_ghz\": ";
  out += json_num(spec_.clock_ghz);
  out += "},\n";
  out += "  \"searches\": ";
  out += json_num(searches_);
  out += ",\n  \"measured\": {\"host_wall_ms_total\": ";
  out += json_num(wall_ms_total_);
  out += "},\n";
  out += "  \"modeled_total_ms\": ";
  out += json_num(total_ms);
  out += ",\n  \"modeled_total_cycles\": ";
  out += json_num(total_ms * cycles_per_ms);
  out += ",\n  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseProfile& p = phases[i];
    out += "    {\"phase\": ";
    out += json_str(p.phase);
    out += ", \"modeled_ms\": ";
    out += json_num(p.stats.time_ms);
    out += ", \"modeled_cycles\": ";
    out += json_num(p.modeled_cycles);
    out += ", \"share\": ";
    out += json_num(p.share);
    out += ", \"occupancy\": ";
    out += json_num(p.stats.occupancy);
    out += ", \"divergence_overhead\": ";
    out += json_num(p.stats.divergence_overhead());
    out += ", \"load_efficiency\": ";
    out += json_num(p.stats.global_load_efficiency());
    out += ", \"rocache_hit_ratio\": ";
    out += json_num(p.stats.rocache_hit_ratio());
    out += ", \"shared_conflict_passes\": ";
    out += json_num(p.stats.shared_conflict_passes);
    out += ",\n     \"kernels\": [";
    for (std::size_t k = 0; k < p.kernel_names.size(); ++k) {
      if (k != 0) out += ", ";
      append_kernel_json(out, p.kernel_names[k],
                         kernels_.at(p.kernel_names[k]), cycles_per_ms);
    }
    out += "]}";
    out += i + 1 == phases.size() ? "\n" : ",\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string ContinuousProfiler::to_table() const {
  std::lock_guard lock(mutex_);
  const auto phases = phases_locked();
  util::Table table({"phase", "kernel", "modeled ms", "share %", "occupancy",
                     "divergence %", "gld eff %", "rocache %", "bank passes"});
  for (const PhaseProfile& p : phases) {
    table.add_row({p.phase, "(all)", util::Table::num(p.stats.time_ms, 3),
                   util::Table::num(p.share * 100.0, 1),
                   util::Table::num(p.stats.occupancy, 2),
                   util::Table::num(p.stats.divergence_overhead() * 100.0, 1),
                   util::Table::num(p.stats.global_load_efficiency() * 100.0,
                                    1),
                   util::Table::num(p.stats.rocache_hit_ratio() * 100.0, 1),
                   std::to_string(p.stats.shared_conflict_passes)});
    if (p.kernel_names.size() < 2) continue;
    for (const std::string& name : p.kernel_names) {
      const KernelStats& k = kernels_.at(name);
      table.add_row({"", name, util::Table::num(k.time_ms, 3), "",
                     util::Table::num(k.occupancy, 2),
                     util::Table::num(k.divergence_overhead() * 100.0, 1),
                     util::Table::num(k.global_load_efficiency() * 100.0, 1),
                     util::Table::num(k.rocache_hit_ratio() * 100.0, 1),
                     std::to_string(k.shared_conflict_passes)});
    }
  }
  std::string out = "simtprof hotspots (";
  out += std::to_string(searches_);
  out += searches_ == 1 ? " search)\n" : " searches)\n";
  out += table.render();
  return out;
}

std::string ContinuousProfiler::summary_json() const {
  using util::json_num;
  using util::json_str;
  std::lock_guard lock(mutex_);
  const auto phases = phases_locked();
  double total_ms = 0.0;
  for (const auto& [name, stats] : kernels_) total_ms += stats.time_ms;
  std::string out = "{\"searches\": ";
  out += json_num(searches_);
  out += ", \"modeled_total_ms\": ";
  out += json_num(total_ms);
  out += ", \"host_wall_ms_total\": ";
  out += json_num(wall_ms_total_);
  if (!phases.empty()) {
    out += ", \"top_phase\": ";
    out += json_str(phases.front().phase);
    out += ", \"top_phase_share\": ";
    out += json_num(phases.front().share);
  }
  out += "}";
  return out;
}

bool ContinuousProfiler::write_file(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.extension().string() != ".json")
    throw std::invalid_argument(
        "simtprof: profile path must end in .json, got '" + path + "'");
  std::error_code dir_error;
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), dir_error);
  std::ofstream out(p);
  if (dir_error || !out) {
    std::fprintf(stderr, "simtprof: cannot write %s\n", path.c_str());
    return false;
  }
  out << to_json();
  return static_cast<bool>(out);
}

void ContinuousProfiler::reset() {
  std::lock_guard lock(mutex_);
  kernels_.clear();
  searches_ = 0;
  wall_ms_total_ = 0.0;
}

}  // namespace repro::simt::prof
