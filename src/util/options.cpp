#include "util/options.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace repro::util {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_[arg.substr(2)] = "1";
      } else {
        kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : std::strtoll(it->second.c_str(),
                                                   nullptr, 10);
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback
                         : std::strtod(it->second.c_str(), nullptr);
}

std::vector<std::string> Options::unknown_keys(
    std::span<const std::string_view> known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : kv_)
    if (std::find(known.begin(), known.end(), key) == known.end())
      unknown.push_back(key);
  return unknown;
}

}  // namespace repro::util
