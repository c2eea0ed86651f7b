// Batched multi-RHS solve sessions (docs/BATCHING.md).
//
// A SolveSession runs N independent right-hand sides against ONE solver:
// the level hierarchy, base Cholesky factor, and the oracle's measured PA
// costs are built/measured once and shared by all RHS. Determinism follows
// the SimBatch discipline: every slot gets a private RoundLedger, a private
// PA-call counter and a private workspace; slots never touch shared mutable
// state while in flight (oracle replay is const), and all merging happens
// afterwards on the calling thread in slot order. The result is bit-identical
// to N sequential solve() calls for every thread count.
#include <exception>
#include <map>
#include <memory>

#include "laplacian/recursive_solver.hpp"
#include "obs/ledger_clock.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace dls {

SolveSession::SolveSession(DistributedLaplacianSolver& solver)
    : solver_(solver) {}

std::vector<LaplacianSolveReport> SolveSession::solve_batch(
    const std::vector<Vec>& bs, ThreadPool* pool) {
  const std::size_t k = bs.size();
  batch_ledger_.clear();
  ++batches_run_;
  std::vector<LaplacianSolveReport> reports(k);
  if (k == 0) return reports;

  // Trace discipline mirrors the ledger discipline: the parent tracer (if
  // any) records the batch; every slot writes into a PRIVATE tracer clocked
  // by its private ledger, and the slot traces are absorbed on the calling
  // thread in slot order after the barrier. The merged trace is therefore
  // bit-identical for every thread count, pool or no pool.
  Tracer* parent = Tracer::ambient();
  ScopedSpan batch_span(parent, "session/batch", SpanKind::kSession);
  batch_span.counter("rhs", k);

  // Measurement — the only rng-consuming, oracle-mutating step of a solve —
  // happens up front on this thread, in the exact order sequential solves
  // would have triggered it lazily. After this, every slot only *replays*
  // cached costs. A ChaosAbortError here (fault injection during a measure
  // run) propagates out of solve_batch(); the same abort inside solve() is
  // caught there and degrades that solve typed.
  solver_.warm_instances();

  const std::size_t num_instances = solver_.oracle_.num_instances();
  // One lease arena per slot (a SolveWorkspace is single-threaded by design).
  // The arenas persist across batches, so slot i's buffers are already warm
  // when the next batch reuses them — steady-state batches allocate nothing
  // inside the solve loops.
  while (slot_ws_.size() < k) {
    slot_ws_.push_back(std::make_unique<SolveWorkspace>());
  }
  std::vector<RoundLedger> ledgers(k);
  std::vector<std::vector<std::uint64_t>> pa_counts(
      k, std::vector<std::uint64_t>(num_instances, 0));
  std::vector<std::exception_ptr> errors(k);
  std::vector<std::unique_ptr<Tracer>> slot_tracers(k);
  if (parent != nullptr) {
    for (std::size_t i = 0; i < k; ++i) slot_tracers[i] = std::make_unique<Tracer>();
  }

  const auto run_slot = [&](std::size_t i) {
    // Always install a scope: the slot tracer when tracing, nullptr
    // otherwise. The inline (pool == nullptr) path runs on the calling
    // thread, so without this its spans would leak straight into the parent
    // tracer and diverge from the pooled runs.
    Tracer* slot_tracer = parent != nullptr ? slot_tracers[i].get() : nullptr;
    TraceScope scope(slot_tracer);
    ClockScope clock(slot_tracer, ledger_clock(ledgers[i]));
    ScopedSpan span(slot_tracer, "session/rhs", SpanKind::kSession);
    span.counter("slot", i);
    try {
      DistributedLaplacianSolver::SolveContext ctx;
      ctx.ledger = &ledgers[i];
      ctx.pa_counts = &pa_counts[i];
      ctx.ws = slot_ws_[i].get();
      reports[i] = solver_.solve_in_context(bs[i], ctx);
    } catch (...) {
      // ThreadPool tasks must not throw; park the exception in this slot and
      // rethrow in slot order after the barrier so failures are as
      // deterministic as successes.
      errors[i] = std::current_exception();
    }
  };
  parallel_for_each(pool, k, run_slot);
  for (std::size_t i = 0; i < k; ++i) {
    if (errors[i] != nullptr) std::rethrow_exception(errors[i]);
  }

  // ---- Slot-ordered merge (single-threaded from here on). ----

  if (parent != nullptr) {
    for (std::size_t i = 0; i < k; ++i) {
      parent->absorb(*slot_tracers[i]);
    }
  }

  // Per-level recovery attribution: the batch is one "call" for stats_
  // purposes — reset once, then fold every slot's events in slot order.
  solver_.reset_recovery_attribution();
  for (std::size_t i = 0; i < k; ++i) {
    for (const RecoveryEvent& e : ledgers[i].recovery_events()) {
      solver_.attribute_recovery_event(e);
    }
  }

  // Amortized accounting of the whole batch: instead of replaying k solves
  // onto the oracle's ledger, the batch charges pipelined group phases.
  //
  //   * PA phases group positionally per instance: the p-th aggregate call
  //     on an instance across all slots runs as ONE congested phase of
  //     R + (n−1)·max(1, peak-slot) local rounds (G + (n−1) global), n being
  //     the number of slots that reached position p.
  //   * Non-PA local phases (matvec-L0 exchanges, elimination chains, base
  //     transfers, residual checks) are bandwidth-bound — every RHS ships
  //     its own words — and group positionally per label at h + (n−1)
  //     rounds: a 1-round exchange degenerates to n rounds (no savings), an
  //     h-hop chain pipelines.
  //
  // The fold is grouped (instances ascending, then labels lexicographic,
  // positions ascending) rather than interleaved in phase order; totals are
  // what matter for the shared ledger, and the grouping is deterministic.
  ClockScope charge_clock(parent, ledger_clock(batch_ledger_));
  ScopedSpan charge_span(parent, "session/amortized-charge", SpanKind::kPhase);
  std::uint64_t pa_groups = 0;
  for (CongestedPaOracle::InstanceId inst = 0; inst < num_instances; ++inst) {
    std::uint64_t max_calls = 0;
    for (std::size_t i = 0; i < k; ++i) {
      max_calls = std::max(max_calls, pa_counts[i][inst]);
    }
    for (std::uint64_t pos = 0; pos < max_calls; ++pos) {
      std::size_t n = 0;
      for (std::size_t i = 0; i < k; ++i) {
        if (pa_counts[i][inst] > pos) ++n;
      }
      solver_.oracle_.charge_batched(inst, n, batch_ledger_);
      ++pa_groups;
    }
  }
  const std::string pa_label = solver_.oracle_.name() + "-pa";
  std::map<std::string, std::vector<std::vector<const LedgerEntry*>>> by_label;
  for (std::size_t i = 0; i < k; ++i) {
    for (const LedgerEntry& e : ledgers[i].entries()) {
      if (e.label == pa_label) continue;  // folded above via charge_batched
      auto& slots = by_label[e.label];
      if (slots.empty()) slots.resize(k);
      slots[i].push_back(&e);
    }
  }
  for (const auto& [label, slots] : by_label) {
    std::size_t max_len = 0;
    for (const auto& list : slots) max_len = std::max(max_len, list.size());
    for (std::size_t pos = 0; pos < max_len; ++pos) {
      std::size_t n = 0;
      std::uint64_t local = 0, global = 0;
      for (const auto& list : slots) {
        if (list.size() <= pos) continue;
        ++n;
        local = std::max(local, list[pos]->local_rounds);
        global = std::max(global, list[pos]->global_rounds);
      }
      if (local > 0) {
        batch_ledger_.charge_local(local + (n - 1), label);
      }
      if (global > 0) {
        batch_ledger_.charge_global(global + (n - 1), label);
      }
    }
  }
  // Recovery events ride along in slot order so the shared ledger keeps the
  // full typed trace of what every slot's resilience layer did.
  for (std::size_t i = 0; i < k; ++i) {
    for (const RecoveryEvent& e : ledgers[i].recovery_events()) {
      batch_ledger_.record_recovery(e);
    }
  }
  solver_.oracle_.ledger().absorb(batch_ledger_, "batch");
  solver_.oracle_.note_batched_pa_calls(pa_groups);
  charge_span.counter("pa-groups", pa_groups);
  charge_span.counter("labels", by_label.size());
  charge_span.finish();
  rhs_solved_ += k;

  static MetricCounter& batch_metric =
      MetricsRegistry::global().counter("session.batches");
  static MetricCounter& rhs_metric =
      MetricsRegistry::global().counter("session.rhs");
  static MetricHistogram& batch_size_metric = MetricsRegistry::global().histogram(
      "session.batch_size", MetricsRegistry::pow2_bounds(10));
  batch_metric.increment();
  rhs_metric.increment(k);
  batch_size_metric.observe(k);
  return reports;
}

std::vector<LaplacianSolveReport> DistributedLaplacianSolver::solve_batch(
    const std::vector<Vec>& bs, ThreadPool* pool) {
  SolveSession session(*this);
  return session.solve_batch(bs, pool);
}

}  // namespace dls
