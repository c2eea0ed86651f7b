// Shortcut constructions.
//
// We implement the two constructions the paper's unconditional CONGEST
// results rest on: the trivial shortcut (H_i = ∅, quality = max part
// diameter) and tree-restricted shortcuts (Ghaffari–Haeupler [20, 21, 26]):
// H_i is the Steiner subtree of P_i in a global spanning tree. On a BFS tree
// of a minor-dense graph this yields the Õ(δD) quality of Theorem 10. The
// state-of-the-art general-graph construction [27] is a major system of its
// own and is substituted per DESIGN.md §2; `build_best_shortcut` measures
// every available construction and returns the best, which is exactly what
// the quality estimator and the PA engine need.
#pragma once

#include <span>

#include "graph/graph.hpp"
#include "shortcuts/partition.hpp"
#include "shortcuts/shortcut.hpp"

namespace dls {

/// A spanning tree rooted for Steiner-subtree queries.
struct RootedSpanningTree {
  NodeId root = kInvalidNode;
  std::vector<NodeId> parent;       // parent[root] == root
  std::vector<EdgeId> parent_edge;  // kInvalidEdge at root
  std::vector<std::uint32_t> depth;
};

/// Roots `tree_edges` (must span the connected graph g) at `root`.
RootedSpanningTree root_spanning_tree(const Graph& g,
                                      std::span<const EdgeId> tree_edges,
                                      NodeId root);

/// A BFS spanning tree rooted at an (approximate) center of g — the standard
/// host tree for tree-restricted shortcuts.
RootedSpanningTree centered_bfs_tree(const Graph& g, Rng& rng);

/// H_i = ∅ for every part.
Shortcut trivial_shortcut(const PartCollection& pc);

/// H_i = Steiner subtree of P_i's members in `tree` (pruned exactly: the
/// minimal subtree spanning the members). A member id out of range throws.
Shortcut tree_restricted_shortcut(const PartCollection& pc,
                                  const RootedSpanningTree& tree);

struct BestShortcut {
  Shortcut shortcut;
  ShortcutQuality quality;
  const char* construction = "";  // which candidate won
};

/// Measures the trivial and tree-restricted candidates and returns the one
/// with the smallest quality Q = c + d.
BestShortcut build_best_shortcut(const Graph& g, const PartCollection& pc,
                                 Rng& rng);

/// Chops a spanning tree into connected parts of ~`target_size` nodes each —
/// the adversarial long-skinny-parts instances (rows of a grid generalize
/// to any graph this way).
PartCollection tree_chop_partition(const Graph& g, const RootedSpanningTree& tree,
                                   std::size_t target_size);

}  // namespace dls
