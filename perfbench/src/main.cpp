// Benchmark driver. Runs one workload for a time budget and prints a
// human-readable report followed by one JSON result line:
//
//   perfbench --workload grid-cold|expander-ncc|wgrid-serve --seed N
//             --seconds S --trace 0|1 [--smoke] [--corrupt]
//
// --trace 0 times the workload untraced and reports the end-to-end metrics;
// --trace 1 runs one traced operation plus the layer probes and yardsticks
// and reports the per-layer metrics. --smoke shrinks every instance for the
// self-test; --corrupt perturbs each returned x so the checks must fail.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

void print_json_line(const perfbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& e : r.metrics.entries()) {
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", e.name.c_str(), v, e.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--corrupt]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--size") {
      config.size = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--corrupt") {
      config.corrupt = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.workload.empty()) return usage("--workload is required");

  try {
    perfbench::RunResult result = config.trace
                                      ? perfbench::run_traced(config)
                                      : perfbench::run_workload(config);
    result.correct = result.correct && result.failed == 0;
    std::cout << "# " << config.workload << " seed " << config.seed
              << (config.trace ? " traced" : " untraced") << "\n";
    for (const std::string& line : result.metrics.notes()) {
      std::cout << "#   " << line << "\n";
    }
    std::cout.flush();
    print_json_line(result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
