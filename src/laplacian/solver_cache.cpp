#include "laplacian/solver_cache.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/ledger_clock.hpp"
#include "obs/metrics.hpp"

namespace dls {

namespace {

// Ratios within one part in 2^40 are "equal": the update came from the same
// real number through at most a handful of roundings. Keeps the kRescale and
// kNoChange rungs reachable by callers that compute c·w in floating point.
constexpr double kRatioSlack = 1.0 + 0x1.0p-40;

std::unique_ptr<CongestedPaOracle> make_cache_oracle(const Graph& g, Rng& rng,
                                                     CacheOracleKind kind) {
  switch (kind) {
    case CacheOracleKind::kShortcutSupported:
      return std::make_unique<ShortcutPaOracle>(g, rng);
    case CacheOracleKind::kShortcutCongest:
      return std::make_unique<ShortcutPaOracle>(
          g, rng, SchedulingPolicy::kRandomPriority, PaModel::kCongest);
    case CacheOracleKind::kNcc:
      return std::make_unique<NccPaOracle>(g, rng);
    case CacheOracleKind::kBaseline:
      return std::make_unique<BaselinePaOracle>(g, rng);
  }
  DLS_REQUIRE(false, "unknown CacheOracleKind");
  return nullptr;
}

MetricCounter& cache_counter(const std::string& name) {
  return MetricsRegistry::global().counter(name);
}

/// Rounds the per-level reweight sweep charges: every non-base level pushes
/// new weights down its longest elimination chain and back (2·hops), the base
/// re-gathers and refactors (2·(n_base + transfer)).
std::uint64_t reweight_sweep_rounds(const DistributedLaplacianSolver& solver) {
  std::uint64_t rounds = 0;
  for (const LevelStats& s : solver.level_stats()) {
    if (s.is_base) {
      rounds += 2 * (s.nodes + solver.base_transfer_rounds());
    } else {
      rounds += 2 * std::max<std::size_t>(std::size_t{1}, s.chain_hops);
    }
  }
  return rounds;
}

}  // namespace

const char* to_string(WeightUpdateClass c) {
  switch (c) {
    case WeightUpdateClass::kNoChange: return "no-change";
    case WeightUpdateClass::kRescale: return "rescale";
    case WeightUpdateClass::kReusePreconditioner: return "reuse-preconditioner";
    case WeightUpdateClass::kPartialRebuild: return "partial-rebuild";
    case WeightUpdateClass::kFullRebuild: return "full-rebuild";
  }
  return "?";
}

std::uint64_t graph_structure_fingerprint(const Graph& g) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  mix(g.num_nodes());
  mix(g.num_edges());
  for (const Edge& e : g.edges()) {
    mix(e.u);
    mix(e.v);
  }
  return h;
}

// ---------------------------------------------------------------------------
// CachedSolverState
// ---------------------------------------------------------------------------

void CachedSolverState::build(const Graph& g) {
  // Everything into temporaries first: a throw (chaos fault during hierarchy
  // construction or instance measurement) must leave the entry — and hence
  // the cache — exactly as it was.
  auto graph = std::make_unique<Graph>(g.num_nodes());
  for (const Edge& e : g.edges()) graph->add_edge(e.u, e.v, e.weight);
  auto rng = std::make_unique<Rng>(options_.seed);
  auto oracle = make_cache_oracle(*graph, *rng, options_.oracle);
  if (options_.oracle_hook) options_.oracle_hook(*oracle);

  auto solver =
      std::make_unique<DistributedLaplacianSolver>(*oracle, *rng, options_.solver);
  // Measure every PA instance now — the one-time dry runs the entry pays for
  // at build so that warm charging below is honest, not a discount.
  solver->warm_instances();
  auto session = std::make_unique<SolveSession>(*solver);

  graph_ = std::move(graph);
  rng_ = std::move(rng);
  oracle_ = std::move(oracle);
  solver_ = std::move(solver);
  session_ = std::move(session);
  scale_ = 1.0;
  drift_ = 1.0;
  build_rounds_ = charge_build();
  oracle_->set_warm_charging(true);
}

std::uint64_t CachedSolverState::charge_build() {
  RoundLedger& ledger = oracle_->ledger();
  const std::uint64_t local_before = ledger.total_local();
  const std::uint64_t global_before = ledger.total_global();
  Tracer* tracer = Tracer::ambient();
  ClockScope clock(tracer, ledger_clock(ledger));
  ScopedSpan span(tracer, "cache/charge-build", SpanKind::kPhase);

  // (a) Hierarchy construction: per non-base level, the low-stretch tree
  // build (⌈log n⌉ merge phases of ⌈√n⌉ + D + 1 rounds each — the standard
  // distributed star-decomposition shape) plus the degree-≤2 elimination
  // sweep down the longest spliced chain and back.
  const std::uint64_t transfer = solver_->base_transfer_rounds();
  std::uint64_t hierarchy = 0;
  std::uint64_t base = 0;
  for (const LevelStats& s : solver_->level_stats()) {
    if (s.is_base) {
      base += 2 * (s.nodes + transfer);
      continue;
    }
    const double n = static_cast<double>(std::max<std::size_t>(s.nodes, 2));
    const auto phases = static_cast<std::uint64_t>(std::ceil(std::log2(n)));
    const auto per_phase =
        static_cast<std::uint64_t>(std::ceil(std::sqrt(n))) + transfer + 1;
    hierarchy += phases * per_phase;
    hierarchy += 2 * std::max<std::size_t>(std::size_t{1}, s.chain_hops);
  }
  if (hierarchy > 0) ledger.charge_local(hierarchy, "cache/construct-hierarchy");
  if (base > 0) ledger.charge_local(base, "cache/base-factor");

  // (b) The measurement dry runs: each instance's first aggregation simulates
  // the full distributed schedule once. Cold solves pay this inside their
  // first call per instance; the entry pays it here, once, explicitly.
  std::uint64_t measure_local = 0;
  std::uint64_t measure_global = 0;
  for (CongestedPaOracle::InstanceId i = 0; i < oracle_->num_instances(); ++i) {
    if (!oracle_->is_measured(i)) continue;
    measure_local += oracle_->measured_local_rounds(i);
    measure_global += oracle_->measured_global_rounds(i);
  }
  if (measure_local > 0) ledger.charge_local(measure_local, "cache/measure-instances");
  if (measure_global > 0) {
    ledger.charge_global(measure_global, "cache/measure-instances");
  }

  const std::uint64_t total = (ledger.total_local() - local_before) +
                              (ledger.total_global() - global_before);
  span.counter("rounds", total);
  return total;
}

LaplacianSolveReport CachedSolverState::solve(const Vec& b) {
  std::vector<LaplacianSolveReport> reports = solve_batch({b}, nullptr);
  return std::move(reports.front());
}

std::vector<LaplacianSolveReport> CachedSolverState::solve_batch(
    const std::vector<Vec>& bs, ThreadPool* pool) {
  std::vector<LaplacianSolveReport> reports = session_->solve_batch(bs, pool);
  solves_ += bs.size();
  if (scale_ != 1.0) {
    // Stored L, logical c·L: (c·L)x = b ⇔ x = x_stored / c, exactly; the
    // residual b − c·L·x = b − L·x_stored is scale-invariant, so the report's
    // convergence data needs no adjustment.
    for (LaplacianSolveReport& r : reports) {
      for (double& v : r.x) v /= scale_;
    }
  }
  return reports;
}

WeightUpdateReport CachedSolverState::update_weights(
    const std::vector<WeightDelta>& deltas) {
  Tracer* tracer = Tracer::ambient();
  ClockScope clock(tracer, ledger_clock(oracle_->ledger()));
  ScopedSpan span(tracer, "cache/update-weights", SpanKind::kPhase);
  WeightUpdateReport report;
  const std::size_t m = graph_->num_edges();
  // Requested-over-current logical ratio per touched edge; later deltas on
  // the same edge win, matching "apply this stream of updates in order".
  std::vector<double> ratio(m, 1.0);
  std::vector<char> touched(m, 0);
  for (const WeightDelta& d : deltas) {
    DLS_REQUIRE(d.edge < m, "weight delta for unknown edge");
    DLS_REQUIRE(std::isfinite(d.new_weight) && d.new_weight > 0.0,
                "edge weights must be positive and finite");
    ratio[d.edge] = d.new_weight / (graph_->edge(d.edge).weight * scale_);
    touched[d.edge] = 1;
  }

  std::size_t touched_count = 0;
  double min_ratio = std::numeric_limits<double>::infinity();
  double max_ratio = 0.0;
  for (EdgeId e = 0; e < m; ++e) {
    if (touched[e] == 0) continue;
    ++touched_count;
    if (ratio[e] < kRatioSlack && 1.0 < ratio[e] * kRatioSlack) continue;
    ++report.edges_changed;
    min_ratio = std::min(min_ratio, ratio[e]);
    max_ratio = std::max(max_ratio, ratio[e]);
  }

  const auto finish = [&](WeightUpdateClass cls) {
    report.classification = cls;
    report.cumulative_drift = drift_;
    cache_counter(std::string("cache.update.") + to_string(cls)).increment();
    span.note(to_string(cls));
    span.counter("edges-changed", report.edges_changed);
    span.counter("charged-rounds", report.charged_local_rounds);
    return report;
  };

  if (report.edges_changed == 0) return finish(WeightUpdateClass::kNoChange);

  if (report.edges_changed == m && max_ratio <= min_ratio * kRatioSlack) {
    // Uniform L → cL. Exact: only the scale factor moves; the stored solver
    // and its measured instances are reused untouched.
    scale_ *= min_ratio;
    oracle_->ledger().charge_local(1, "cache/update-weights");
    report.charged_local_rounds = 1;
    return finish(WeightUpdateClass::kRescale);
  }

  double sigma = 1.0;
  for (EdgeId e = 0; e < m; ++e) {
    if (touched[e] == 0) continue;
    sigma = std::max(sigma, std::max(ratio[e], 1.0 / ratio[e]));
  }
  report.spectral_ratio = sigma;
  double tree_sigma = 1.0;
  for (EdgeId e : solver_->level0_tree_edges()) {
    if (touched[e] == 0) continue;
    tree_sigma = std::max(tree_sigma, std::max(ratio[e], 1.0 / ratio[e]));
  }
  report.tree_ratio = tree_sigma;

  const auto apply_to_stored = [&]() {
    for (EdgeId e = 0; e < m; ++e) {
      if (touched[e] != 0 && ratio[e] != 1.0) {
        graph_->set_weight(e, graph_->edge(e).weight * ratio[e]);
      }
    }
  };

  if (sigma <= options_.reuse_ratio_limit &&
      tree_sigma <= options_.tree_ratio_limit &&
      drift_ * sigma <= options_.reuse_drift_limit) {
    // Reuse as preconditioner: refresh the level-0 operator so residuals are
    // exact for the new L; deeper levels stay numerically stale — a spectral
    // (1/σ', σ')-approximation with σ' = drift·σ — which flexible PCG absorbs
    // at a few extra iterations. One announce round: each node already holds
    // its incident weights.
    apply_to_stored();
    drift_ *= sigma;
    solver_->refresh_operator_weights();
    oracle_->ledger().charge_local(1, "cache/update-weights");
    report.charged_local_rounds = 1;
    return finish(WeightUpdateClass::kReusePreconditioner);
  }

  if (sigma <= options_.partial_ratio_limit) {
    // Partial rebuild: keep every structure (trees, samples, hosts, measured
    // PA instances), re-derive every level's numerics through the stored
    // provenance. Falls through to a full rebuild if any level's structure
    // no longer matches (reweight_chain_from_graph mutates nothing then).
    std::vector<double> saved(m);
    for (EdgeId e = 0; e < m; ++e) saved[e] = graph_->edge(e).weight;
    apply_to_stored();
    if (solver_->reweight_chain_from_graph()) {
      drift_ = 1.0;
      const std::uint64_t rounds = reweight_sweep_rounds(*solver_);
      oracle_->ledger().charge_local(rounds, "cache/reweight-chain");
      report.charged_local_rounds = rounds;
      return finish(WeightUpdateClass::kPartialRebuild);
    }
    for (EdgeId e = 0; e < m; ++e) graph_->set_weight(e, saved[e]);
  }

  // Full rebuild, strong exception guarantee: assemble the target graph and
  // build a complete candidate stack from the entry's root seed; commit only
  // on success. A rebuilt entry is bit-interchangeable with a cold stack on
  // the new weights (same seed, same construction order).
  Graph target(graph_->num_nodes());
  for (EdgeId e = 0; e < m; ++e) {
    const Edge& edge = graph_->edge(e);
    const double logical = edge.weight * scale_ * (touched[e] != 0 ? ratio[e] : 1.0);
    target.add_edge(edge.u, edge.v, logical);
  }
  CachedSolverState candidate;
  candidate.options_ = options_;
  candidate.fingerprint_ = fingerprint_;
  candidate.build(target);  // throws → *this untouched
  graph_ = std::move(candidate.graph_);
  rng_ = std::move(candidate.rng_);
  oracle_ = std::move(candidate.oracle_);
  solver_ = std::move(candidate.solver_);
  session_ = std::move(candidate.session_);
  scale_ = 1.0;
  drift_ = 1.0;
  build_rounds_ = candidate.build_rounds_;
  ++full_rebuilds_;
  report.charged_local_rounds = build_rounds_;
  cache_counter("cache.full_rebuilds").increment();
  return finish(WeightUpdateClass::kFullRebuild);
}

std::size_t CachedSolverState::approx_bytes() const {
  std::size_t bytes = sizeof(*this);
  if (graph_ != nullptr) {
    bytes += graph_->num_edges() * (sizeof(Edge) + 2 * sizeof(Adjacency)) +
             graph_->num_nodes() * sizeof(std::vector<Adjacency>);
  }
  if (solver_ != nullptr) bytes += solver_->approx_state_bytes();
  if (oracle_ != nullptr) bytes += oracle_->approx_state_bytes();
  if (session_ != nullptr) bytes += sizeof(SolveSession);
  return bytes;
}

// ---------------------------------------------------------------------------
// SolverCache
// ---------------------------------------------------------------------------

SolverCache::SolverCache(SolverCacheOptions options)
    : options_(std::move(options)) {
  DLS_REQUIRE(options_.max_entries >= 1, "cache needs at least one entry slot");
  DLS_REQUIRE(options_.reuse_ratio_limit >= 1.0 &&
                  options_.tree_ratio_limit >= 1.0 &&
                  options_.partial_ratio_limit >= options_.reuse_ratio_limit &&
                  options_.reuse_drift_limit >= 1.0,
              "classification limits must be ratios >= 1");
}

namespace {

/// True when `g` has exactly the structure `entry` was built for. Guards the
/// fingerprint against (astronomically unlikely) collisions and costs one
/// O(m) sweep we are about to do anyway for the weight diff.
bool same_structure(const Graph& g, const CachedSolverState& entry) {
  const Graph& h = entry.graph();
  if (g.num_nodes() != h.num_nodes() || g.num_edges() != h.num_edges()) {
    return false;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge(e).u != h.edge(e).u || g.edge(e).v != h.edge(e).v) return false;
  }
  return true;
}

}  // namespace

SolverCache::Acquired SolverCache::acquire(const Graph& g) {
  const std::uint64_t key = graph_structure_fingerprint(g);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->fingerprint() != key || !same_structure(g, **it)) continue;
    entries_.splice(entries_.begin(), entries_, it);  // LRU touch
    CachedSolverState& state = *entries_.front();
    ++hits_;
    cache_counter("cache.hits").increment();
    ScopedSpan span(Tracer::ambient(), "cache/hit", SpanKind::kPhase);
    std::vector<WeightDelta> diff;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const double logical = state.graph().edge(e).weight * state.weight_scale();
      if (g.edge(e).weight != logical) diff.push_back({e, g.edge(e).weight});
    }
    WeightUpdateReport update;
    if (!diff.empty()) update = state.update_weights(diff);
    evict_over_budget();  // a full rebuild can change the entry's size
    return {state, true, update};
  }
  ++misses_;
  cache_counter("cache.misses").increment();
  CachedSolverState& state = build_entry(g, key);
  evict_over_budget();
  return {state, false, WeightUpdateReport{}};
}

bool SolverCache::contains(const Graph& g) const {
  const std::uint64_t key = graph_structure_fingerprint(g);
  for (const auto& entry : entries_) {
    if (entry->fingerprint() == key && same_structure(g, *entry)) return true;
  }
  return false;
}

std::size_t SolverCache::total_bytes() const {
  std::size_t bytes = 0;
  for (const auto& entry : entries_) bytes += entry->approx_bytes();
  return bytes;
}

CachedSolverState& SolverCache::build_entry(const Graph& g, std::uint64_t key) {
  ScopedSpan span(Tracer::ambient(), "cache/build", SpanKind::kPhase);
  auto entry = std::unique_ptr<CachedSolverState>(new CachedSolverState());
  entry->options_ = options_;
  entry->fingerprint_ = key;
  entry->build(g);  // throws → cache unchanged
  const std::size_t bytes = entry->approx_bytes();
  span.counter("bytes", bytes);
  span.counter("build-rounds", entry->build_rounds());
  cache_counter("cache.builds").increment();
  cache_counter("cache.bytes_built").increment(bytes);
  static MetricHistogram& size_metric = MetricsRegistry::global().histogram(
      "cache.entry_bytes", MetricsRegistry::pow2_bounds(40));
  size_metric.observe(bytes);
  entries_.push_front(std::move(entry));
  return *entries_.front();
}

void SolverCache::evict_over_budget() {
  while (entries_.size() > 1 &&
         (entries_.size() > options_.max_entries ||
          total_bytes() > options_.memory_budget_bytes)) {
    const std::size_t bytes = entries_.back()->approx_bytes();
    entries_.pop_back();
    ++evictions_;
    cache_counter("cache.evictions").increment();
    cache_counter("cache.bytes_evicted").increment(bytes);
  }
}

}  // namespace dls
