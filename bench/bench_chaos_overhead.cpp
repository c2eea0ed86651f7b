// Chaos-layer overhead: what fault tolerance costs in simulated rounds.
//
// The fault-tolerant scheduler loops retransmit dropped winners, buffer
// delayed/duplicated copies, and dedup arrivals; under a clean plan all of
// that is skipped (null-plan bit-identity), so the interesting number is the
// round inflation as a function of the fault mix. This driver solves one
// stacked-Voronoi instance per (graph family × fault mix), reports
// fault-free vs faulted rounds, the inflation factor, and the injected event
// count — the ledgered budget the chaos tests hold retry overhead against.
//
// Each mix is run twice: once with the message plane as configured (no
// integrity word) and once with payload integrity on. The two runs frame the
// corruption story end to end: without the checksum word a corrupting plan
// silently changes results ("silent diffs" counts the poisoned coordinates),
// with it every corrupted frame is detected, dropped and retransmitted, so
// the result is bit-identical to the clean solve and the extra cost shows up
// honestly as rounds plus one checksum word per transmission.
//
// Flags: --json PATH (flat metrics for scripts/bench_compare.py; round
// counts are deterministic and diff exactly across runs of the same code).
#include "bench_common.hpp"
#include "congested_pa/solver.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_injection.hpp"

using namespace dls;
using namespace dls::bench;

namespace {

struct Mix {
  const char* name;
  const char* slug;  // json metric key segment
  FaultConfig config;
  bool corrupts;  // integrity-off run may legitimately change results
};

std::vector<Mix> mixes() {
  std::vector<Mix> out;
  out.push_back({"clean", "clean", {}, false});
  {
    FaultConfig c;
    c.drop_rate = 0.1;
    out.push_back({"drop 10%", "drop10", c, false});
  }
  {
    FaultConfig c;
    c.drop_rate = 0.5;
    out.push_back({"drop 50%", "drop50", c, false});
  }
  {
    FaultConfig c;
    c.duplicate_rate = 0.2;
    c.delay_rate = 0.2;
    c.reorder = true;
    out.push_back({"dup+delay+reorder", "dup_delay_reorder", c, false});
  }
  {
    FaultConfig c;
    c.crash_rate = 0.02;
    c.max_crash_len = 3;
    c.drop_rate = 0.1;
    out.push_back({"crash+drop", "crash_drop", c, false});
  }
  {
    FaultConfig c;
    c.corrupt_rate = 0.2;
    out.push_back({"corrupt 20%", "corrupt20", c, true});
  }
  {
    FaultConfig c;
    c.corrupt_rate = 0.15;
    c.drop_rate = 0.15;
    out.push_back({"corrupt+drop", "corrupt_drop", c, true});
  }
  return out;
}

struct RunResult {
  CongestedPaOutcome outcome;
  std::size_t injected = 0;
  std::uint64_t integrity_words = 0;
};

RunResult run_mix(const Graph& g, const PartCollection& pc,
                  const std::vector<std::vector<double>>& values,
                  FaultConfig config, bool integrity) {
  config.integrity = integrity;
  FaultPlan plan(9001, config);
  CongestedPaOptions options;
  options.faults = &plan;
  auto& words = MetricsRegistry::global().counter("net.integrity.words");
  const std::uint64_t words_before = words.value();
  Rng rng(777);
  RunResult out{solve_congested_pa(g, pc, values, AggregationMonoid::sum(), rng,
                                   options),
                0, 0};
  out.injected = plan.injected().size();
  out.integrity_words = words.value() - words_before;
  return out;
}

std::size_t count_diffs(const CongestedPaOutcome& a,
                        const CongestedPaOutcome& b) {
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i] != b.results[i]) ++diffs;
  }
  return diffs;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchRuntime runtime = bench_runtime(argc, argv, {"json"});
  const std::string json_path = runtime.flags.get("json", "");
  const WallTimer timer;
  banner("chaos overhead",
         "fault injection inflates rounds; integrity makes corruption exact");

  JsonMetrics metrics("corruption_overhead");
  Table table({"graph", "fault mix", "clean rounds", "faulty rounds",
               "integrity rounds", "inflation", "integrity words",
               "silent diffs", "injected events"});
  struct Family {
    const char* name;
    const char* slug;
    Graph g;
  };
  Rng build_rng(2024);
  std::vector<Family> families;
  families.push_back({"grid 8x8", "grid8x8", make_grid(8, 8)});
  families.push_back(
      {"random tree n=48", "tree48", make_random_tree(48, build_rng)});
  families.push_back(
      {"4-regular n=40", "reg40", make_random_regular(40, 4, build_rng)});

  for (const Family& family : families) {
    Rng inst_rng(404);
    const PartCollection pc =
        stacked_voronoi_instance(family.g, 4, 2, inst_rng);
    std::vector<std::vector<double>> values(pc.num_parts());
    for (std::size_t i = 0; i < pc.num_parts(); ++i) {
      values[i].assign(pc.parts[i].size(), 1.0);
    }

    Rng clean_rng(777);
    const CongestedPaOutcome clean = solve_congested_pa(
        family.g, pc, values, AggregationMonoid::sum(), clean_rng);

    for (const Mix& mix : mixes()) {
      const RunResult off = run_mix(family.g, pc, values, mix.config, false);
      const RunResult on = run_mix(family.g, pc, values, mix.config, true);

      // Without corruption in the mix, the fault-tolerant loops must already
      // be exact; with it, only the integrity run is allowed to promise that.
      const std::size_t silent_diffs = count_diffs(off.outcome, clean);
      if (!mix.corrupts && silent_diffs != 0) {
        std::cerr << "FATAL: faulted run changed results\n";
        return 1;
      }
      if (count_diffs(on.outcome, clean) != 0) {
        std::cerr << "FATAL: integrity run changed results\n";
        return 1;
      }

      table.add_row(
          {family.name, mix.name, Table::cell(clean.total_rounds),
           Table::cell(off.outcome.total_rounds),
           Table::cell(on.outcome.total_rounds),
           Table::cell(static_cast<double>(off.outcome.total_rounds) /
                       static_cast<double>(clean.total_rounds)),
           Table::cell(on.integrity_words), Table::cell(silent_diffs),
           Table::cell(off.injected)});

      const std::string prefix =
          std::string(family.slug) + "/" + mix.slug + "/";
      metrics.set(prefix + "rounds_clean",
                  static_cast<double>(clean.total_rounds));
      metrics.set(prefix + "rounds_faulty",
                  static_cast<double>(off.outcome.total_rounds));
      metrics.set(prefix + "rounds_integrity",
                  static_cast<double>(on.outcome.total_rounds));
      metrics.set(prefix + "integrity_words",
                  static_cast<double>(on.integrity_words));
      metrics.set(prefix + "silent_diffs",
                  static_cast<double>(silent_diffs));
    }
  }
  table.print(std::cout);
  footnote(
      "integrity rounds: same mix with a checksum word on every transmission "
      "(corrupted frames detected, dropped, retransmitted); silent diffs: "
      "coordinates the integrity-off run got wrong without any error — the "
      "failure mode the word exists to close.");
  metrics.write(json_path);
  print_wall_clock(runtime, timer);
  return 0;
}
