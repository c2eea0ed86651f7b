#include "shortcuts/part_csr.hpp"

#include <algorithm>

namespace dls {

void PartScratch::next_epoch(std::size_t n_nodes, std::size_t n_edges) {
  if (node_epoch.size() < n_nodes) {
    node_epoch.resize(n_nodes, 0);
    member_epoch.resize(n_nodes, 0);
    local_of.resize(n_nodes, 0);
  }
  if (edge_epoch.size() < n_edges) edge_epoch.resize(n_edges, 0);
  if (++epoch == 0) {
    std::fill(node_epoch.begin(), node_epoch.end(), 0);
    std::fill(member_epoch.begin(), member_epoch.end(), 0);
    std::fill(edge_epoch.begin(), edge_epoch.end(), 0);
    epoch = 1;
  }
}

PartScratch& part_scratch() {
  thread_local PartScratch scratch;
  return scratch;
}

std::uint32_t load_part_subgraph(PartScratch& sc, const Graph& g,
                                 const std::vector<NodeId>& part,
                                 const std::vector<EdgeId>& h_edges) {
  sc.next_epoch(g.num_nodes(), g.num_edges());

  std::uint32_t k = 0;
  auto touch = [&](NodeId v) {
    if (sc.node_epoch[v] != sc.epoch) {
      sc.node_epoch[v] = sc.epoch;
      sc.local_of[v] = k++;
    }
  };
  for (NodeId v : part) {
    DLS_REQUIRE(v < g.num_nodes(), "part member out of range");
    DLS_REQUIRE(sc.member_epoch[v] != sc.epoch, "part lists a member twice");
    touch(v);
    sc.member_epoch[v] = sc.epoch;
  }
  for (EdgeId e : h_edges) {
    const Edge& edge = g.edge(e);  // throws on an out-of-range id
    touch(edge.u);
    touch(edge.v);
  }

  // Subgraph edges: G[P_i] edges (both endpoints members) plus helper edges,
  // deduplicated via stamps, then sorted — the canonical subgraph edge order.
  sc.edges.clear();
  auto collect = [&](EdgeId e) {
    if (sc.edge_epoch[e] != sc.epoch) {
      sc.edge_epoch[e] = sc.epoch;
      sc.edges.push_back(e);
    }
  };
  for (NodeId v : part) {
    for (const Adjacency& a : g.neighbors(v)) {
      if (sc.member_epoch[a.neighbor] == sc.epoch) collect(a.edge);
    }
  }
  for (EdgeId e : h_edges) collect(e);
  std::sort(sc.edges.begin(), sc.edges.end());

  sc.offset.assign(k + 1, 0);
  for (EdgeId e : sc.edges) {
    const Edge& edge = g.edge(e);
    ++sc.offset[sc.local_of[edge.u] + 1];
    ++sc.offset[sc.local_of[edge.v] + 1];
  }
  for (std::uint32_t x = 0; x < k; ++x) sc.offset[x + 1] += sc.offset[x];
  sc.cursor.assign(sc.offset.begin(), sc.offset.end() - 1);
  sc.csr.resize(2 * sc.edges.size());
  for (EdgeId e : sc.edges) {
    const Edge& edge = g.edge(e);
    const std::uint32_t lu = sc.local_of[edge.u];
    const std::uint32_t lv = sc.local_of[edge.v];
    sc.csr[sc.cursor[lu]++] = {lv, e};
    sc.csr[sc.cursor[lv]++] = {lu, e};
  }
  return k;
}

}  // namespace dls
