// Low-congestion shortcuts (Definition 5): per part P_i a helper subgraph
// H_i ⊆ G such that diam(G[P_i] ∪ H_i) ≤ d and every edge lies in at most c
// of the H_i. Quality Q = c + d.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "shortcuts/partition.hpp"

namespace dls {

struct Shortcut {
  /// h_edges[i] = edges of H_i (edge ids in the host graph).
  std::vector<std::vector<EdgeId>> h_edges;
};

struct ShortcutQuality {
  std::size_t congestion = 0;  // max over edges of #H_i containing it
  std::size_t dilation = 0;    // max over parts of diam(G[P_i] ∪ H_i)
  std::size_t quality() const { return congestion + dilation; }
};

/// Measures c and d of Definition 5. Each part-plus-shortcut subgraph must
/// be connected (throws otherwise): a disconnected H cannot aggregate. The
/// dilation is exact when every G[P_i] ∪ H_i has at most 400 nodes; a larger
/// one counts with a seeded 6-sweep lower estimate of its diameter. BFS runs
/// that provably cannot raise the maximum are skipped, which never changes
/// the result. A part member out of range or listed twice throws.
ShortcutQuality measure_shortcut(const Graph& g, const PartCollection& pc,
                                 const Shortcut& shortcut);

}  // namespace dls
