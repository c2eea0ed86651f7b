// Message-level simulation of simultaneous tree aggregations in CONGEST —
// the engine behind Proposition 6 ("a shortcut of quality Q solves part-wise
// aggregation in Õ(Q) rounds").
//
// Each part P_i aggregates over a communication tree T_i (the BFS tree of
// G[P_i] ∪ H_i). All trees run concurrently over the physical network: per
// round, each (edge, direction) of G carries at most one message, shared
// across all trees. The scheduler simulates convergecast (leaves → root,
// combining values with the aggregation monoid) followed by broadcast
// (root → all tree nodes), and reports exact round counts, the observed edge
// congestion, and tree depths. Contention between trees on an edge is broken
// by a pluggable policy; random priorities implement the random-delay
// scheduling of [19] and are the default (the others exist for the
// scheduling ablation, experiment E14).
//
// Simulator cost: a round costs O(active slots + deliveries), not O(m).
// Per-slot queues live in flat, buffer-reusing scratch (kept thread-local
// across calls), trees are rooted through a CSR adjacency scratch instead of
// per-tree hash maps, and per-round delivery order is ascending directed
// slot — the same order the original std::map-keyed implementation produced,
// so round counts and floating-point fold orders are bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/network_metrics.hpp"
#include "util/random.hpp"

namespace dls {

class FaultPlan;  // sim/fault_injection.hpp

/// A commutative, associative aggregation with identity (Definition 4 allows
/// arbitrary functions; we require a monoid as the paper assumes in practice).
struct AggregationMonoid {
  std::function<double(double, double)> op;
  double identity = 0.0;

  static AggregationMonoid sum();
  static AggregationMonoid min();
  static AggregationMonoid max();
};

/// One part's communication tree. `edges` must form a tree (in the host
/// graph) containing `root` and every node mentioned in `inputs`. Nodes on
/// the tree that carry no input (shortcut Steiner nodes) contribute the
/// identity.
struct AggregationTree {
  NodeId root = kInvalidNode;
  std::vector<EdgeId> edges;
  std::vector<std::pair<NodeId, double>> inputs;
};

enum class SchedulingPolicy {
  kRandomPriority,  // random per-tree priorities (default; Ghaffari '15 style)
  kFifo,            // earliest-ready message first
  kPartOrdered,     // lowest part id first (adversarially bad for fairness)
};

struct AggregationOutcome {
  std::vector<double> results;          // aggregate per tree
  std::uint64_t convergecast_rounds = 0;
  std::uint64_t broadcast_rounds = 0;
  std::uint64_t total_rounds = 0;
  std::size_t max_edge_load = 0;        // max #trees sharing one undirected edge
  std::uint32_t max_tree_depth = 0;     // max hop-depth over all trees
  std::uint64_t messages = 0;

  // Corruption & integrity accounting (all 0 without a FaultPlan).
  std::uint64_t corrupt_injected = 0;   // transmissions the plan perturbed
  std::uint64_t corrupt_detected = 0;   // integrity-checked ⇒ retransmitted
  std::uint64_t corrupt_delivered = 0;  // unprotected ⇒ perturbed the fold
  std::uint64_t integrity_words = 0;    // checksum words shipped (integrity on)

  // Observed congestion (see sim/network_metrics.hpp): per phase, the
  // busiest (edge, direction) slot and the busiest single round.
  PhaseCongestion convergecast_congestion;
  PhaseCongestion broadcast_congestion;
  PhaseCongestion congestion() const {
    return merge_phases(convergecast_congestion, broadcast_congestion);
  }
  /// Messages per simulated round, indexed 1..total_rounds (broadcast rounds
  /// follow convergecast rounds); index 0 is unused.
  std::vector<std::uint64_t> round_histogram;
};

/// Runs all trees to completion and returns exact measured rounds.
/// Preconditions (validated): each tree's edge set is a tree in g containing
/// its root and all input nodes.
///
/// With a FaultPlan (sim/fault_injection.hpp) the scheduler becomes
/// fault-tolerant: each phase opens a new plan epoch, every transmitted
/// message consults the plan at its (round, slot) coordinate, and
///   * dropped messages stay queued — the sender retransmits until one gets
///     through (charged as a real send each attempt);
///   * delayed / duplicated copies ride an in-flight buffer and land in a
///     later round's delivery batch;
///   * duplicate arrivals are deduplicated (convergecast: a per-node
///     received flag; broadcast: the informed flag), so under eventual
///     delivery the fold order — and hence every result bit — matches the
///     fault-free run;
///   * same-round delivery batches are permuted when the plan says reorder
///     (harmless for a commutative monoid; that is the point being tested);
///   * corrupted transmissions (FaultConfig::corrupt_rate) depend on
///     FaultConfig::integrity: with integrity on, every transmission ships a
///     checksum word — each (edge, direction) slot carries one message per
///     TWO rounds and deliveries land a round later — and a corrupted
///     message fails verification at the receiver, behaving exactly like a
///     drop (retransmitted; counted in corrupt_detected). With integrity
///     off, the perturbed payload silently enters the convergecast fold
///     (counted in corrupt_delivered); ShortcutPaOracle::measure catches it
///     by cross-checking every result against the sequential fold;
///   * a phase that exceeds FaultConfig::round_limit throws ChaosAbortError
///     carrying the partial round accounting.
/// All fault handling is gated on `faults != nullptr` and consumes nothing
/// from `rng`, so a null plan is bit-identical to the pre-fault scheduler
/// (pinned by the golden traces).
AggregationOutcome run_tree_aggregations(const Graph& g,
                                         const std::vector<AggregationTree>& trees,
                                         const AggregationMonoid& monoid,
                                         Rng& rng,
                                         SchedulingPolicy policy =
                                             SchedulingPolicy::kRandomPriority,
                                         FaultPlan* faults = nullptr);

/// Sequential ground truth: fold each tree's inputs with the monoid.
std::vector<double> sequential_aggregates(const std::vector<AggregationTree>& trees,
                                          const AggregationMonoid& monoid);

}  // namespace dls
