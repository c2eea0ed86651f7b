#include "util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>

namespace dls {

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(2);
}

/// Parses all of `text` as a T, or reports a usage error naming --name.
template <typename T>
T parse_number(const std::string& name, const std::string& text,
               const char* expected) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) {
    usage_error("--" + name + " expects " + expected + ", got '" + text + "'");
  }
  return value;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             const std::vector<std::string>& accepted) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_error("flags must start with --: " + arg);
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
    if (std::find(accepted.begin(), accepted.end(), name) == accepted.end()) {
      usage_error("unknown flag: --" + name);
    }
    values_[name] = value;
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::string Flags::get_choice(const std::string& name,
                              const std::string& fallback,
                              const std::vector<std::string>& choices) const {
  const std::string value = get(name, fallback);
  if (std::find(choices.begin(), choices.end(), value) == choices.end()) {
    std::string expected;
    for (const std::string& choice : choices) {
      expected += (expected.empty() ? "" : "|") + choice;
    }
    usage_error("--" + name + " expects " + expected + ", got '" + value + "'");
  }
  return value;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end()
             ? fallback
             : parse_number<std::int64_t>(name, it->second, "an integer");
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : parse_number<double>(name, it->second, "a number");
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace dls
