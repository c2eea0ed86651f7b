// Shared helpers for the experiment drivers in bench/. Each binary
// regenerates one experiment from DESIGN.md §4 and prints a self-describing
// table; EXPERIMENTS.md records the expected shapes next to measured runs.
#pragma once

#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "resilience/recovery.hpp"
#include "resilience/solve_supervisor.hpp"
#include "shortcuts/partition.hpp"
#include "sim/round_ledger.hpp"
#include "sim/sim_batch.hpp"
#include "util/flags.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace dls::bench {

/// `--trace PATH` session: installs an ambient tracer for the rest of the
/// bench run and writes the Chrome trace-event JSON (load in Perfetto /
/// chrome://tracing; docs/OBSERVABILITY.md) on teardown, when the runtime
/// goes out of scope at the end of main. Span cursors tick in simulated
/// rounds, so the emitted trace is as deterministic as the bench's tables.
struct TraceSession {
  explicit TraceSession(std::string out_path)
      : path(std::move(out_path)),
        tracer(std::make_unique<Tracer>()),
        scope(std::make_unique<TraceScope>(tracer.get())) {}
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
  ~TraceSession() {
    scope.reset();  // uninstall before export: the stream must be final
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open trace output: " << path << "\n";
      return;
    }
    out << chrome_trace_json(*tracer);
    std::cout << "wrote " << tracer->spans().size() << " spans to " << path
              << "\n";
  }

  std::string path;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<TraceScope> scope;
};

/// Shared `--threads N` runtime for the experiment drivers. All simulation
/// numbers a bench reports are thread-count invariant (the SimBatch
/// determinism contract); the thread count only moves wall-clock time.
struct BenchRuntime {
  /// The whole command line: the runtime's flags and the bench's own.
  Flags flags;
  std::size_t threads = 1;
  std::unique_ptr<ThreadPool> pool;  // null when threads == 1
  /// `--supervisor=off|retry|degrade`: whether drivers that solve through a
  /// PA oracle wrap it in the recovery ladder (resilience/solve_supervisor).
  SupervisorMode supervisor = SupervisorMode::kOff;
  /// `--trace PATH`: hierarchical span trace of the whole run (null when the
  /// flag is absent — the default path stays untraced and bit-identical).
  std::unique_ptr<TraceSession> trace;

  /// The pool to hand to SimBatch / solver options (null ⇒ serial).
  ThreadPool* pool_ptr() const { return pool.get(); }
};

/// Parses `--threads N` (default 1; 0 means all hardware threads),
/// `--supervisor MODE` (default off) and `--trace PATH` (default off) and
/// spins up the worker pool. `own` names the bench's own flags, which it
/// reads from `flags`; any other flag is a usage error (util/flags.hpp).
inline BenchRuntime bench_runtime(int argc, const char* const* argv,
                                  std::vector<std::string> own = {}) {
  own.insert(own.end(), {"threads", "supervisor", "trace"});
  BenchRuntime runtime;
  runtime.flags = Flags(argc, argv, own);
  const Flags& flags = runtime.flags;
  std::int64_t want = flags.get_int("threads", 1);
  if (want == 0) want = static_cast<std::int64_t>(ThreadPool::hardware_threads());
  runtime.threads = want < 1 ? 1 : static_cast<std::size_t>(want);
  if (runtime.threads > 1) {
    runtime.pool = std::make_unique<ThreadPool>(runtime.threads);
  }
  runtime.supervisor = supervisor_mode_from_string(
      flags.get_choice("supervisor", "off", {"off", "retry", "degrade"}));
  const std::string trace_path = flags.get("trace", "");
  if (!trace_path.empty()) {
    runtime.trace = std::make_unique<TraceSession>(trace_path);
  }
  return runtime;
}

/// Wraps `primary` in the escalation ladder when the runtime asks for it
/// (null when `--supervisor=off`: callers solve against the bare oracle, so
/// the default bench path stays bit-identical to pre-resilience traces).
inline std::unique_ptr<SupervisedPaOracle> wrap_supervised(
    CongestedPaOracle& primary, const BenchRuntime& runtime) {
  if (runtime.supervisor == SupervisorMode::kOff) return nullptr;
  SupervisorConfig config;
  config.mode = runtime.supervisor;
  return std::make_unique<SupervisedPaOracle>(primary, config);
}

/// Wall-clock stopwatch for reporting batch speedups.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void print_wall_clock(const BenchRuntime& runtime, const WallTimer& t) {
  std::cout << "\nwall clock: " << t.seconds() << " s with " << runtime.threads
            << " thread(s) — reported rounds are thread-count invariant\n";
}

/// Flat metric sink for benches that support `--json PATH`. Keys are
/// free-form slash paths (e.g. "grid/b16/t4/speedup"); values are doubles
/// written with full round-trip precision. The file layout is deliberately
/// trivial — `{"bench": ..., "metrics": {key: value, ...}}` with keys sorted —
/// so scripts/bench_compare.py can diff two runs without a JSON library
/// per-metric schema. Deterministic metrics (simulated rounds) diff exactly;
/// wall-clock metrics diff within a noise threshold.
class JsonMetrics {
 public:
  explicit JsonMetrics(std::string bench_name) : name_(std::move(bench_name)) {}

  void set(const std::string& key, double value) { metrics_[key] = value; }

  /// No-op when `path` is empty (the bench was run without `--json`).
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open json output: " + path);
    out << "{\n  \"bench\": \"" << name_ << "\",\n  \"metrics\": {\n";
    out << std::setprecision(17);
    std::size_t i = 0;
    for (const auto& [key, value] : metrics_) {
      out << "    \"" << key << "\": " << value;
      out << (++i < metrics_.size() ? ",\n" : "\n");
    }
    out << "  }\n}\n";
    std::cout << "\nwrote " << metrics_.size() << " metrics to " << path << "\n";
  }

 private:
  std::string name_;
  std::map<std::string, double> metrics_;  // sorted ⇒ deterministic output
};

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "\n## " << id << " — " << claim << "\n\n";
}

inline void footnote(const std::string& text) { std::cout << "\n" << text << "\n"; }

/// Uniform random mean-zero rhs.
inline Vec random_rhs(std::size_t n, Rng& rng) {
  Vec b(n);
  for (double& v : b) v = rng.next_double() * 2.0 - 1.0;
  project_mean_zero(b);
  return b;
}

/// Unit values for a part collection (PA cost is value-oblivious).
inline std::vector<std::vector<double>> unit_values(const PartCollection& pc) {
  std::vector<std::vector<double>> values(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    values[i].assign(pc.parts[i].size(), 1.0);
  }
  return values;
}

/// Compact table cell for a solve's recovery trace: "-" on clean solves,
/// otherwise the engaged counters, e.g. "3r 1b" or "2r 1b 1d 2w".
inline std::string recovery_cell(const RecoveryCounters& c) {
  if (!c.any()) return "-";
  std::string out;
  const auto append = [&out](std::size_t n, char tag) {
    if (n == 0) return;
    if (!out.empty()) out += ' ';
    out += std::to_string(n);
    out += tag;
  };
  append(c.retries, 'r');
  append(c.rebuilds, 'b');
  append(c.degradations, 'd');
  append(c.watchdog_restarts, 'w');
  return out;
}

/// Per-level recovery attribution (LevelStats counters); prints one line per
/// chain level that actually recovered and stays silent on clean runs, so
/// existing bench output is unchanged unless the ladder engaged.
template <typename LevelStatsVec>
void print_level_recovery(const std::string& heading,
                          const LevelStatsVec& stats) {
  bool printed_heading = false;
  for (std::size_t level = 0; level < stats.size(); ++level) {
    const auto& s = stats[level];
    if (s.pa_retries + s.pa_rebuilds + s.pa_degradations == 0) continue;
    if (!printed_heading) {
      std::cout << heading << " (level: retries, rebuilds, degradations)\n";
      printed_heading = true;
    }
    std::cout << "  level " << level << (s.is_base ? " (base)" : "") << ": "
              << s.pa_retries << ", " << s.pa_rebuilds << ", "
              << s.pa_degradations << "\n";
  }
}

inline void print_fit(const char* label, const PowerFit& fit) {
  std::cout << label << ": y ~ " << fit.constant << " * x^" << fit.exponent
            << " (r2 = " << fit.r2 << ")\n";
}

/// Per-phase congestion breakdown of a ledger: one line per entry that was
/// simulated at message level (entries with zero messages were charge-only
/// and are skipped).
inline void print_congestion(const std::string& heading,
                             const RoundLedger& ledger) {
  std::cout << "\n" << heading << " (phase: rounds, messages, "
            << "peak slot msgs, peak round msgs)\n";
  for (const LedgerEntry& e : ledger.entries()) {
    if (e.congestion.messages == 0) continue;
    std::cout << "  " << e.label << ": "
              << (e.local_rounds > 0 ? e.local_rounds : e.global_rounds) << ", "
              << e.congestion.messages << ", "
              << e.congestion.peak_slot_messages << ", "
              << e.congestion.peak_round_messages << "\n";
  }
  std::cout << "  overall peak slot congestion: " << ledger.peak_congestion()
            << " (total messages: " << ledger.total_messages() << ")\n";
}

}  // namespace dls::bench
