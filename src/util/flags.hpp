// Minimal command-line flag parsing for the examples and benchmark drivers.
// Supports `--name value` and `--name=value`. A bad command line — an
// unknown flag, a positional argument, a non-numeric value where a number is
// read, or a value outside a flag's choices — prints one `error: …` line
// naming the flag to stderr and exits with status 2, so typos surface
// immediately in every binary without per-main handling.
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
  /// Any other name is a usage error (see the file comment).
  Flags(int argc, const char* const* argv,
        const std::vector<std::string>& accepted);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// The value, which must be one of `choices`; otherwise a usage error.
  std::string get_choice(const std::string& name, const std::string& fallback,
                         const std::vector<std::string>& choices) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace dls
