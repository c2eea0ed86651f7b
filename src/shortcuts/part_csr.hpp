// Flat loader of one part-plus-shortcut subgraph G[P_i] ∪ H_i, shared by
// build_part_tree (partwise_aggregation.cpp) and measure_shortcut
// (shortcut.cpp). Private to src/shortcuts/.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace dls {

/// Reusable flat buffers for one part subgraph at a time. Node and edge
/// membership is epoch-stamped (bump `epoch` instead of clearing), the
/// adjacency is a CSR over local ids, and one thread-local instance serves
/// every part of every call, so no part allocates a Graph or a hash map.
struct PartScratch {
  static constexpr std::uint32_t kUnreached = UINT32_MAX;

  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> node_epoch;    // node is in the subgraph
  std::vector<std::uint32_t> member_epoch;  // node is a part member
  std::vector<std::uint32_t> edge_epoch;    // edge already collected
  std::vector<std::uint32_t> local_of;      // host node -> local id
  std::vector<EdgeId> edges;                // subgraph edges, ascending
  std::vector<std::uint32_t> offset;        // CSR offsets, size k+1
  std::vector<std::uint32_t> cursor;
  std::vector<std::pair<std::uint32_t, EdgeId>> csr;  // (local nbr, host edge)
  std::vector<std::uint32_t> queue;         // BFS worklist of local ids
  std::vector<std::uint32_t> dist;          // BFS hop distances, local ids
  std::vector<std::uint32_t> ecc_bound;     // eccentricity upper bounds

  /// Starts a fresh stamp epoch on a graph with n_nodes nodes and n_edges
  /// edges. The stamps are 32-bit and cleared when the counter wraps.
  void next_epoch(std::size_t n_nodes, std::size_t n_edges);
};

/// The calling thread's scratch.
PartScratch& part_scratch();

/// Loads G[part] ∪ H (h_edges) into `sc` and returns its node count k.
/// Local ids: part members in part order, then the endpoints of h_edges
/// outside the part in h_edges order, so a non-empty part's front() is local
/// id 0. Each
/// node's CSR neighbours follow ascending host edge id, the canonical order
/// every aggregation tree is built in. A member id out of range, a member
/// listed twice or a helper edge out of range throws std::invalid_argument.
std::uint32_t load_part_subgraph(PartScratch& sc, const Graph& g,
                                 const std::vector<NodeId>& part,
                                 const std::vector<EdgeId>& h_edges);

}  // namespace dls
