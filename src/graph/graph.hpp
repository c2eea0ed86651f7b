// Undirected weighted multigraph.
//
// This is the single graph type used throughout the library: communication
// networks, layered graphs Ĝ_ρ, shortcut subgraphs H_i, minors and Schur
// complements are all instances of it. It is a multigraph because the layered
// construction and minor contractions naturally create parallel edges, and
// the CONGEST model lets each parallel edge carry an independent message
// (cf. Lemma 17 of the paper).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace dls {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
using Weight = double;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// An undirected edge with a positive weight. Self-loops are disallowed:
/// they carry no information in any of the models we simulate and they are
/// meaningless for Laplacians.
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  Weight weight = 1.0;

  /// The endpoint different from `from`.
  NodeId other(NodeId from) const {
    DLS_ASSERT(from == u || from == v, "other() called with non-endpoint");
    return from == u ? v : u;
  }
};

/// (neighbor, edge id) pair as stored in adjacency lists.
struct Adjacency {
  NodeId neighbor = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

/// Undirected weighted multigraph with stable node and edge ids.
///
/// Nodes are 0..num_nodes()-1. Edges are appended and keep their id for the
/// lifetime of the graph. Adjacency lists are maintained incrementally, so
/// construction is O(n + m) and neighbor iteration is cache-friendly.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t num_nodes) : adjacency_(num_nodes) {}

  NodeId add_node() {
    adjacency_.emplace_back();
    return static_cast<NodeId>(adjacency_.size() - 1);
  }

  /// Pre-sizes the edge store for a known edge count, so bulk builders
  /// (minor views, induced subgraphs, generators) append without regrowth.
  void reserve_edges(std::size_t num_edges) { edges_.reserve(num_edges); }

  /// Pre-sizes one adjacency list for a known degree; pair with a degree
  /// count pass to make bulk construction move-free.
  void reserve_neighbors(NodeId v, std::size_t degree) {
    DLS_REQUIRE(v < num_nodes(), "node id out of range");
    adjacency_[v].reserve(degree);
  }

  /// Adds an undirected edge; parallel edges are permitted, self-loops are not.
  EdgeId add_edge(NodeId u, NodeId v, Weight weight = 1.0) {
    DLS_REQUIRE(u < num_nodes() && v < num_nodes(), "edge endpoint out of range");
    DLS_REQUIRE(u != v, "self-loops are not supported");
    DLS_REQUIRE(weight > 0.0, "edge weights must be positive");
    const EdgeId id = static_cast<EdgeId>(edges_.size());
    edges_.push_back({u, v, weight});
    adjacency_[u].push_back({v, id});
    adjacency_[v].push_back({u, id});
    return id;
  }

  std::size_t num_nodes() const { return adjacency_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  const Edge& edge(EdgeId id) const {
    DLS_REQUIRE(id < edges_.size(), "edge id out of range");
    return edges_[id];
  }

  /// Mutable access to an edge's weight (used by sparsifier re-weighting).
  void set_weight(EdgeId id, Weight weight) {
    DLS_REQUIRE(id < edges_.size(), "edge id out of range");
    DLS_REQUIRE(weight > 0.0, "edge weights must be positive");
    edges_[id].weight = weight;
  }

  std::span<const Adjacency> neighbors(NodeId v) const {
    DLS_REQUIRE(v < num_nodes(), "node id out of range");
    return adjacency_[v];
  }

  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  /// Sum of all edge weights incident to v (the Laplacian diagonal entry).
  Weight weighted_degree(NodeId v) const {
    Weight sum = 0;
    for (const Adjacency& a : neighbors(v)) sum += edges_[a.edge].weight;
    return sum;
  }

  const std::vector<Edge>& edges() const { return edges_; }

  /// Human-readable one-line description, for logging and error messages.
  std::string describe() const;

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<Adjacency>> adjacency_;
};

/// The subgraph induced by `nodes`, with a mapping back to original ids.
struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> to_original;           // local id -> original id
  std::vector<NodeId> to_local;              // original id -> local id (or kInvalidNode)
};

InducedSubgraph induced_subgraph(const Graph& g, std::span<const NodeId> nodes);

}  // namespace dls
