// Hierarchical span tracing over the round-accounting plane.
//
// The RoundLedger answers "how many rounds did this solve cost?"; the tracer
// answers "where did they go?". A Tracer records a preorder forest of spans —
// one per solver level, PA call, scheduler phase, outer PCG iteration, ... —
// and each span snapshots the *round cursor* (total local rounds, global
// rounds, messages) of the ledger it runs against at open and at close, so the
// interval [begin, end] is the exact share of the trace's round budget that
// phase consumed. Rounds, not wall clock, are the time axis: traces are as
// deterministic as the ledgers they ride on and can be pinned as goldens.
//
// Activation is ambient and off by default. Instrumentation sites read the
// thread-local `Tracer::ambient()` pointer; when no TraceScope installed a
// tracer (the default), every ScopedSpan is a no-op and the instrumented code
// paths behave bit-identically to untraced builds — no label, charge, or rng
// draw depends on whether a tracer is watching.
//
// Thread-count invariance follows the SimBatch discipline: an ambient tracer
// is never inherited by ThreadPool workers. Fan-out sites (SimBatch::run,
// SolveSession::solve_batch) give each slot a private Tracer and merge the
// finished slot traces back into the parent in slot-index order via
// `absorb()`, so the merged span stream is bit-identical for any thread count.
//
// Layering: this header depends only on util/. Ledger cursors are read
// through the opaque TraceClock adapter (obs/ledger_clock.hpp binds it to
// RoundLedger), so dls_obs sits *below* dls_sim and everything above can link
// it without cycles.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dls {

/// A monotone snapshot of one ledger's accumulated totals. All fields only
/// ever grow while a trace is open, which is what makes span intervals
/// meaningful.
struct TraceCursor {
  std::uint64_t local_rounds = 0;
  std::uint64_t global_rounds = 0;
  std::uint64_t messages = 0;

  friend bool operator==(const TraceCursor&, const TraceCursor&) = default;
};

/// Type-erased handle to a round counter (in practice: a RoundLedger). The
/// indirection keeps dls_obs independent of dls_sim; see obs/ledger_clock.hpp
/// for the binding. A default-constructed clock reads all-zero cursors, so a
/// Tracer is usable before any ledger exists.
class TraceClock {
 public:
  using ReadFn = TraceCursor (*)(const void*);

  TraceClock() = default;
  TraceClock(const void* source, ReadFn read) : source_(source), read_(read) {}

  TraceCursor read() const { return read_ ? read_(source_) : TraceCursor{}; }
  const void* source() const { return source_; }
  bool valid() const { return read_ != nullptr; }

 private:
  const void* source_ = nullptr;
  ReadFn read_ = nullptr;
};

/// Coarse phase taxonomy. The kind is part of the fingerprint, so exporters
/// and tests can roll spans up by what they *are* rather than parsing names.
enum class SpanKind : std::uint8_t {
  kScenario,   // one simulated scenario / golden case
  kSolve,      // a full Laplacian solve
  kLevel,      // one level of the solver hierarchy
  kIteration,  // one outer PCG iteration
  kPaCall,     // one part-wise aggregation oracle call
  kPhase,      // a message-plane or construction phase
  kSession,    // batched multi-RHS session scope
  kRecovery,   // resilience-ladder activity
  kOther,
};

const char* to_string(SpanKind kind);

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// One closed (or still-open) span. Spans are stored in open (preorder)
/// order; `parent` indexes into the same vector, `kNoSpan` for roots.
struct SpanRecord {
  std::string name;
  SpanKind kind = SpanKind::kOther;
  std::uint32_t parent = kNoSpan;
  std::uint32_t depth = 0;
  std::uint32_t clock = 0;  // clock id the cursors were read from
  TraceCursor begin;
  TraceCursor end;
  bool closed = false;
  /// Deterministic per-span annotations, in insertion order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::string> notes;
};

/// Caps keep pathological recursion depths from turning a trace into the
/// dominant allocation of a run. Drops are counted, never silent: the
/// fingerprint reports `dropped`, so a capped trace is visibly capped.
struct TracerOptions {
  std::size_t max_spans = std::size_t{1} << 20;
  std::uint32_t max_depth = 64;
};

class Tracer {
 public:
  explicit Tracer(TraceClock root_clock = {}, TracerOptions options = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span under the innermost open span, snapshotting the current
  /// clock. Returns kNoSpan (and counts a drop) past max_spans/max_depth.
  std::uint32_t open(std::string name, SpanKind kind);
  /// Closes the innermost open span, which must be `id` (spans strictly
  /// nest; ScopedSpan enforces this by construction).
  void close(std::uint32_t id);

  /// Attach a named integer to an open span. No-ops on kNoSpan.
  void counter(std::uint32_t id, const char* key, std::uint64_t value);
  /// Attach a free-form note to an open span. No-ops on kNoSpan.
  void note(std::uint32_t id, std::string text);
  /// Annotate the innermost open span; falls back to the tracer-level note
  /// list when no span is open (nothing is ever silently lost).
  void annotate_current(std::string text);

  std::uint32_t current() const {
    return stack_.empty() ? kNoSpan : stack_.back();
  }
  std::uint32_t open_depth() const {
    return static_cast<std::uint32_t>(stack_.size());
  }

  /// Makes `clock` the source for spans opened until the matching pop. If
  /// the top clock already reads the same source the existing id is reused,
  /// so re-entering the same ledger deeper in the call tree does not fork a
  /// new timeline.
  std::uint32_t push_clock(TraceClock clock);
  void pop_clock();
  std::uint32_t current_clock() const { return clock_id_stack_.back(); }
  std::size_t num_clocks() const { return clock_registry_.size(); }
  /// Source pointer of a clock id (null for the default zero clock and for
  /// absorbed clocks, whose sources may no longer be alive).
  const void* clock_source(std::uint32_t id) const;

  /// Appends a finished child trace under the current open span: child roots
  /// are re-parented, depths shifted, clock ids offset into this tracer's
  /// registry, and drops accumulated. Spans arrive in the child's preorder,
  /// so absorbing slot tracers in slot-index order yields a thread-count-
  /// invariant stream. The child must have no open spans.
  void absorb(const Tracer& child);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t dropped_spans() const { return dropped_; }
  const std::vector<std::string>& orphan_notes() const { return orphan_notes_; }

  /// The thread-local ambient tracer (null by default). Instrumentation
  /// sites read this; TraceScope installs it.
  static Tracer* ambient();

 private:
  friend class TraceScope;
  static Tracer*& ambient_slot();

  TracerOptions options_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;           // open span ids
  std::vector<TraceClock> clock_registry_;     // id -> clock
  std::vector<std::uint32_t> clock_id_stack_;  // active clock scope
  std::uint64_t dropped_ = 0;
  std::vector<std::string> orphan_notes_;
};

/// RAII span. Null tracer (the common untraced case) makes every method a
/// no-op, so instrumentation sites need no branching of their own.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, SpanKind kind)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, kind) : kNoSpan) {}
  ScopedSpan(Tracer* tracer, std::string name, SpanKind kind)
      : tracer_(tracer),
        id_(tracer ? tracer->open(std::move(name), kind) : kNoSpan) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept
      : tracer_(other.tracer_), id_(other.id_) {
    other.tracer_ = nullptr;
    other.id_ = kNoSpan;
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr && id_ != kNoSpan) tracer_->close(id_);
  }

  void counter(const char* key, std::uint64_t value) {
    if (tracer_ != nullptr) tracer_->counter(id_, key, value);
  }
  void note(std::string text) {
    if (tracer_ != nullptr) tracer_->note(id_, std::move(text));
  }
  /// Closes the span before the scope ends (for back-to-back phases sharing
  /// one scope). Later counter/note calls and the destructor no-op.
  void finish() {
    if (tracer_ != nullptr && id_ != kNoSpan) tracer_->close(id_);
    tracer_ = nullptr;
    id_ = kNoSpan;
  }
  bool active() const { return tracer_ != nullptr && id_ != kNoSpan; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Installs `tracer` as this thread's ambient tracer for the scope (pass
/// nullptr to *suppress* ambient tracing, e.g. around pool-parallel regions
/// whose interleaving must not leak into the span stream).
class TraceScope {
 public:
  explicit TraceScope(Tracer* tracer)
      : previous_(Tracer::ambient_slot()) {
    Tracer::ambient_slot() = tracer;
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() { Tracer::ambient_slot() = previous_; }

 private:
  Tracer* previous_;
};

/// RAII clock scope; null tracer no-ops (pairs with the ambient pattern).
class ClockScope {
 public:
  ClockScope(Tracer* tracer, TraceClock clock) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->push_clock(clock);
  }
  ClockScope(const ClockScope&) = delete;
  ClockScope& operator=(const ClockScope&) = delete;
  ~ClockScope() {
    if (tracer_ != nullptr) tracer_->pop_clock();
  }

 private:
  Tracer* tracer_;
};

}  // namespace dls
