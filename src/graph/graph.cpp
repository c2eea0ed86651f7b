#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

namespace dls {

std::string Graph::describe() const {
  std::size_t max_degree = 0;
  for (const auto& adj : adjacency_) {
    max_degree = std::max(max_degree, adj.size());
  }
  std::ostringstream out;
  out << "Graph(n=" << num_nodes() << ", m=" << num_edges()
      << ", maxdeg=" << max_degree << ")";
  return out.str();
}

InducedSubgraph induced_subgraph(const Graph& g, std::span<const NodeId> nodes) {
  InducedSubgraph result;
  result.to_local.assign(g.num_nodes(), kInvalidNode);
  result.to_original.reserve(nodes.size());
  for (NodeId v : nodes) {
    DLS_REQUIRE(v < g.num_nodes(), "induced_subgraph node out of range");
    DLS_REQUIRE(result.to_local[v] == kInvalidNode,
                "induced_subgraph nodes must be distinct");
    result.to_local[v] = static_cast<NodeId>(result.to_original.size());
    result.to_original.push_back(v);
    result.graph.add_node();
  }
  // Degree-count pass: size each local adjacency list (and the edge store)
  // before appending, so bulk extraction never regrows.
  std::size_t kept_edges = 0;
  std::vector<std::size_t> degree(nodes.size(), 0);
  for (NodeId v : nodes) {
    for (const Adjacency& a : g.neighbors(v)) {
      const Edge& e = g.edge(a.edge);
      const NodeId w = e.other(v);
      if (result.to_local[w] == kInvalidNode) continue;
      ++degree[result.to_local[v]];
      if (e.u == v) ++kept_edges;
    }
  }
  result.graph.reserve_edges(kept_edges);
  for (std::size_t local = 0; local < nodes.size(); ++local) {
    result.graph.reserve_neighbors(static_cast<NodeId>(local), degree[local]);
  }
  // Each undirected edge appears in two adjacency lists; add it once by
  // only taking the direction where the edge's stored `u` equals the scan node.
  for (NodeId v : nodes) {
    for (const Adjacency& a : g.neighbors(v)) {
      const Edge& e = g.edge(a.edge);
      if (e.u != v) continue;  // visit each edge exactly once
      if (result.to_local[e.v] == kInvalidNode) continue;
      result.graph.add_edge(result.to_local[e.u], result.to_local[e.v], e.weight);
    }
  }
  return result;
}

}  // namespace dls
