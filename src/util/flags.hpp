// Minimal command-line flag parsing for the examples and benchmark drivers.
// Supports `--name value` and `--name=value`; unknown flags are an error so
// typos surface immediately.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dls {

class Flags {
 public:
  Flags() = default;  // no flags: every getter returns its fallback
  /// Parses argv[1..]; `accepted` lists every flag name the caller reads.
  /// Any other name throws std::invalid_argument naming it.
  Flags(int argc, const char* const* argv,
        const std::vector<std::string>& accepted);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace dls
