// Shared plumbing of the benchmark driver: wall-clock timing, sample
// statistics, the metric sink, process memory readings and the solution
// check every workload runs on every x it gets back.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/workspace.hpp"
#include "util/random.hpp"

namespace perfbench {

using dls::Graph;
using dls::Vec;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
/// Wall-clock samples of one quantity; reported as a median plus the
/// highest percentile that still has ten samples beyond it.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double median() const { return quantile(0.5); }
  double sum() const;
  /// Linear-interpolated quantile q ∈ [0, 1]; 0 on an empty sample.
  double quantile(double q) const;
  /// "median 0.71 s, p90 0.75 s (n=40)" — the tail percentile appears only
  /// when the sample count supports it.
  std::string describe(const std::string& unit) const;

 private:
  std::vector<double> values_;
};

/// Ordered name → (value, unit) map; insertion order is output order.
class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// A timing metric: its median is the value, the describe() line is kept
  /// for the human-readable report.
  void set_timing(const std::string& name, const Samples& s,
                  const std::string& unit);
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }
  /// Multiplies the times (unit s or ns) among entries [from, end) by
  /// `factor`.
  void scale_times(std::size_t from, double factor);
  const std::vector<std::string>& notes() const { return notes_; }
  void note(std::string line) { notes_.push_back(std::move(line)); }

 private:
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
};

/// Wall-clock spans the traced run records around each public call it
/// makes. Spans nest (the innermost open span is the parent), stay in memory
/// and are written out as an indented tree with self times at the end.
class WallSpans {
 public:
  WallSpans() : origin_(Clock::now()) {}
  std::size_t open(std::string name);
  void close(std::size_t id);
  double duration(std::size_t id) const;
  /// Lines "name  total s  self s", children indented under their parent.
  std::vector<std::string> render() const;

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    double start = 0.0;
    double end = 0.0;
  };
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span on an optional recorder (null: no-op).
class WallSpan {
 public:
  WallSpan(WallSpans* spans, std::string name)
      : spans_(spans), id_(spans ? spans->open(std::move(name)) : 0) {}
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;
  ~WallSpan() {
    if (spans_ != nullptr) spans_->close(id_);
  }

 private:
  WallSpans* spans_;
  std::size_t id_;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny instances (16×16 grids, n = 256 expander) for the self-test.
  bool smoke = false;
  /// Perturb every returned x before checking it; the checks must fire.
  bool corrupt = false;
  /// Overrides the instance size (grid side, or expander node count) to
  /// probe the scale limits recorded in the notes; 0 keeps the default.
  std::size_t size = 0;
};

/// Outcome of one benchmark run: the JSON result line's four fields.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSink metrics;
};

/// splitmix64 over (root, index): per-operation seeds of a workload.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t index);

/// Uniform mean-zero right-hand side in [-1, 1)^n.
Vec random_rhs(std::size_t n, dls::Rng& rng);

/// Process memory from /proc/self/status, in MB (0 when unavailable).
double peak_rss_mb();
double current_rss_mb();

/// Independent check of a returned solution: the relative residual
/// ‖Πb − Lx‖/‖Πb‖ recomputed through LaplacianCsr, and the L-norm distance
/// to a sequential CG reference solved to 1e-12.
struct SolutionCheck {
  double residual = 0.0;
  double energy_error = 0.0;
  bool ok = false;
};

class SolutionChecker {
 public:
  /// `tolerance` is the solver's relative-residual target; the residual must
  /// stay within kResidualSlack × tolerance and the L-norm error within
  /// kEnergyLimit.
  SolutionChecker(const Graph& g, double tolerance);
  /// Rebuild after the graph's weights changed.
  void refresh(const Graph& g);
  SolutionCheck check(const Vec& b, const Vec& x);
  const dls::LaplacianCsr& csr() const { return csr_; }
  /// Largest residual and L-norm error seen so far, for the report.
  double worst_residual() const { return worst_residual_; }
  double worst_energy_error() const { return worst_energy_; }

  static constexpr double kResidualSlack = 4.0;
  static constexpr double kEnergyLimit = 1e-4;
  /// Largest relative residual the CG reference may end with.
  static constexpr double kReferenceLimit = 1e-10;

 private:
  dls::LaplacianCsr csr_;
  double tolerance_;
  double worst_residual_ = 0.0;
  double worst_energy_ = 0.0;
  dls::SolveWorkspace ws_;
  Vec rhs_, lx_, diff_, ldiff_;
};

}  // namespace perfbench
