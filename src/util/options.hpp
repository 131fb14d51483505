// Minimal --key=value command-line option parser for examples and benches.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace repro::util {

/// Parses "--key=value" and bare "--flag" arguments. Positional arguments
/// are collected in order. Unknown keys are kept (benches share a common
/// option vocabulary but don't all use every key); a tool with a
/// vocabulary of its own checks them with unknown_keys.
class Options {
 public:
  Options(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// The keys given that are not in `known`, in sorted order: empty when
  /// every flag is one the caller reads.
  [[nodiscard]] std::vector<std::string> unknown_keys(
      std::span<const std::string_view> known) const;

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace repro::util
