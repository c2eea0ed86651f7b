// Multiple-unicast and any-to-any-cast (Section 3.1.3 of the paper): the
// communication tasks whose worst-case completion time characterizes
// shortcut quality (Theorem 25, via the network-coding gap results of
// [28, 29]), plus the decomposition lemma (Lemma 24) used in the proof of
// Theorem 22.
//
// Completion time of a path collection is max(congestion, dilation) — a
// packet-routing schedule of length O(c + d) always exists [19] and our
// store-and-forward simulator realizes one, so both the combinatorial
// quality and the measured routing rounds are reported.
#pragma once

#include <span>
#include <vector>

#include "graph/flow.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace dls {

struct UnicastSolution {
  std::vector<std::vector<NodeId>> paths;  // one per routed pair
  std::size_t congestion = 0;              // max paths per (undirected) edge
  std::size_t dilation = 0;                // max path hops
  std::vector<std::size_t> edge_load;      // paths per edge, indexed by EdgeId
  std::size_t quality() const { return std::max(congestion, dilation); }
};

/// Measures congestion/dilation of given paths (each must walk along edges).
UnicastSolution measure_paths(const Graph& g,
                              std::vector<std::vector<NodeId>> paths);

/// Congestion-aware routing for the multiple-unicast problem: pairs are
/// routed one at a time (random order) along shortest paths in a metric that
/// penalizes already-loaded edges; a few sweeps of rip-up-and-reroute then
/// shrink the makespan. Heuristic upper bound on the optimal completion time.
UnicastSolution route_multiple_unicast(
    const Graph& g, std::span<const std::pair<NodeId, NodeId>> pairs, Rng& rng,
    int reroute_sweeps = 2);

/// Any-to-any-cast: finds a matching of sources to sinks and routes it.
/// Tries (a) the node-disjoint flow matching (congestion ≤ 1 when (S,T) are
/// disjointly connectable — then quality = dilation) and (b) greedy matched
/// unicast routing, returning the better solution.
UnicastSolution any_to_any_cast(const Graph& g, std::span<const NodeId> sources,
                                std::span<const NodeId> sinks, Rng& rng);

/// Store-and-forward packet routing: one packet per path, one packet per
/// edge-direction per round, random-delay priorities. Returns the measured
/// number of rounds until every packet arrives — O(congestion + dilation)
/// with high probability [19].
std::uint64_t simulate_packet_routing(
    const std::vector<std::vector<NodeId>>& paths, Rng& rng);

/// Lemma 24: given multisets (S, T) with any-to-any node connectivity ρ,
/// partitions them into groups (S_i, T_i) that are each any-to-any
/// node-DISJOINTLY connectable; the paper guarantees O(ρ log k) groups.
struct AnyToAnyDecomposition {
  std::vector<std::vector<NodeId>> source_groups;
  std::vector<std::vector<NodeId>> sink_groups;
  std::size_t num_groups() const { return source_groups.size(); }
};

AnyToAnyDecomposition decompose_any_to_any(const Graph& g,
                                           std::span<const NodeId> sources,
                                           std::span<const NodeId> sinks);

}  // namespace dls
