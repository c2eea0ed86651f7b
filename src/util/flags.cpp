#include "util/flags.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace dls {

Flags::Flags(int argc, const char* const* argv,
             const std::vector<std::string>& accepted) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    DLS_REQUIRE(arg.rfind("--", 0) == 0, "flags must start with --: " + arg);
    arg = arg.substr(2);
    std::string name = arg;
    std::string value = "true";  // bare boolean flag
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    DLS_REQUIRE(std::find(accepted.begin(), accepted.end(), name) !=
                    accepted.end(),
                "unknown flag: --" + name);
    values_[name] = value;
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace dls
