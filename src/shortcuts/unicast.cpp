#include "shortcuts/unicast.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>

#include "graph/algorithms.hpp"

namespace dls {

namespace {

/// Weighted shortest path by per-edge costs (Dijkstra over hop costs).
std::vector<NodeId> cheapest_path(const Graph& g, NodeId from, NodeId to,
                                  const std::vector<double>& edge_cost) {
  std::vector<double> dist(g.num_nodes(), std::numeric_limits<double>::infinity());
  std::vector<NodeId> parent(g.num_nodes(), kInvalidNode);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.push({0.0, from});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    if (v == to) break;
    for (const Adjacency& a : g.neighbors(v)) {
      const double nd = d + edge_cost[a.edge];
      if (nd < dist[a.neighbor]) {
        dist[a.neighbor] = nd;
        parent[a.neighbor] = v;
        heap.push({nd, a.neighbor});
      }
    }
  }
  DLS_REQUIRE(dist[to] < std::numeric_limits<double>::infinity(),
              "unicast endpoints are disconnected");
  std::vector<NodeId> path;
  for (NodeId v = to; v != kInvalidNode; v = parent[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

/// Any edge id between two adjacent nodes.
EdgeId edge_between(const Graph& g, NodeId u, NodeId v) {
  for (const Adjacency& a : g.neighbors(u)) {
    if (a.neighbor == v) return a.edge;
  }
  DLS_ASSERT(false, "edge_between: nodes not adjacent");
  return kInvalidEdge;
}

void apply_load(const Graph& g, const std::vector<NodeId>& path,
                std::vector<std::size_t>& load, int delta) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const EdgeId e = edge_between(g, path[i], path[i + 1]);
    load[e] = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(load[e]) + delta);
  }
}

}  // namespace

UnicastSolution measure_paths(const Graph& g,
                              std::vector<std::vector<NodeId>> paths) {
  UnicastSolution solution;
  solution.edge_load.assign(g.num_edges(), 0);
  for (const auto& path : paths) {
    DLS_REQUIRE(!path.empty(), "empty path");
    solution.dilation = std::max(solution.dilation, path.size() - 1);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const EdgeId e = edge_between(g, path[i], path[i + 1]);
      solution.congestion = std::max(solution.congestion, ++solution.edge_load[e]);
    }
  }
  solution.paths = std::move(paths);
  return solution;
}

UnicastSolution route_multiple_unicast(
    const Graph& g, std::span<const std::pair<NodeId, NodeId>> pairs, Rng& rng,
    int reroute_sweeps) {
  std::vector<std::vector<NodeId>> paths(pairs.size());
  std::vector<std::size_t> load(g.num_edges(), 0);
  std::vector<double> cost(g.num_edges(), 1.0);
  // Congestion-aware cost: 1 + load² keeps paths short while spreading load.
  const auto refresh_cost = [&]() {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      cost[e] = 1.0 + static_cast<double>(load[e]) * static_cast<double>(load[e]);
    }
  };
  std::vector<std::size_t> order = rng.permutation(pairs.size());
  for (std::size_t i : order) {
    refresh_cost();
    paths[i] = cheapest_path(g, pairs[i].first, pairs[i].second, cost);
    apply_load(g, paths[i], load, +1);
  }
  for (int sweep = 0; sweep < reroute_sweeps; ++sweep) {
    for (std::size_t i : rng.permutation(pairs.size())) {
      apply_load(g, paths[i], load, -1);
      refresh_cost();
      paths[i] = cheapest_path(g, pairs[i].first, pairs[i].second, cost);
      apply_load(g, paths[i], load, +1);
    }
  }
  return measure_paths(g, std::move(paths));
}

UnicastSolution any_to_any_cast(const Graph& g, std::span<const NodeId> sources,
                                std::span<const NodeId> sinks, Rng& rng) {
  DLS_REQUIRE(sources.size() == sinks.size(), "sources/sinks size mismatch");
  UnicastSolution best;
  bool have_best = false;
  // Candidate 1: node-disjoint flow matching (optimal congestion when
  // disjointly connectable; flow paths can be long, so dilation may suffer).
  {
    const NodeDisjointPathsResult flow =
        max_node_disjoint_paths(g, sources, sinks, 1);
    if (flow.connected_pairs == sources.size()) {
      best = measure_paths(g, flow.paths);
      have_best = true;
    }
  }
  // Candidate 2: greedy nearest matching + congestion-aware routing.
  {
    std::vector<char> used(sinks.size(), 0);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId s : sources) {
      const BfsResult r = bfs(g, s);
      std::size_t arg = SIZE_MAX;
      for (std::size_t j = 0; j < sinks.size(); ++j) {
        if (used[j]) continue;
        if (arg == SIZE_MAX || r.dist[sinks[j]] < r.dist[sinks[arg]]) arg = j;
      }
      DLS_ASSERT(arg != SIZE_MAX, "matching ran out of sinks");
      used[arg] = 1;
      pairs.push_back({s, sinks[arg]});
    }
    UnicastSolution candidate = route_multiple_unicast(g, pairs, rng);
    if (!have_best || candidate.quality() < best.quality()) {
      best = std::move(candidate);
    }
  }
  return best;
}

std::uint64_t simulate_packet_routing(
    const std::vector<std::vector<NodeId>>& paths, Rng& rng) {
  // Packet i sits at position pos[i] along its path; per round each
  // (edge, direction) admits one packet, random priority per packet.
  struct Packet {
    std::size_t pos = 0;
    std::uint64_t priority = 0;
  };
  std::vector<Packet> packets(paths.size());
  std::size_t arrived = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    DLS_REQUIRE(!paths[i].empty(), "empty path");
    packets[i].priority = rng();
    if (paths[i].size() == 1) ++arrived;
  }
  std::uint64_t rounds = 0;
  while (arrived < paths.size()) {
    DLS_ASSERT(++rounds < 64ull * 1024 * 1024, "packet routing stalled");
    // Contending packets per directed edge.
    std::map<std::pair<NodeId, NodeId>, std::size_t> winner;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (packets[i].pos + 1 >= paths[i].size()) continue;
      const std::pair<NodeId, NodeId> slot{paths[i][packets[i].pos],
                                           paths[i][packets[i].pos + 1]};
      const auto it = winner.find(slot);
      if (it == winner.end() ||
          packets[i].priority < packets[it->second].priority) {
        winner[slot] = i;
      }
    }
    for (const auto& [slot, i] : winner) {
      (void)slot;
      ++packets[i].pos;
      if (packets[i].pos + 1 == paths[i].size()) ++arrived;
    }
  }
  return rounds;
}

AnyToAnyDecomposition decompose_any_to_any(const Graph& g,
                                           std::span<const NodeId> sources,
                                           std::span<const NodeId> sinks) {
  DLS_REQUIRE(sources.size() == sinks.size(), "sources/sinks size mismatch");
  AnyToAnyDecomposition result;
  std::vector<NodeId> rem_sources(sources.begin(), sources.end());
  std::vector<NodeId> rem_sinks(sinks.begin(), sinks.end());
  std::size_t guard = 0;
  while (!rem_sources.empty()) {
    DLS_ASSERT(++guard <= 4 * sources.size() + 16,
               "any-to-any decomposition failed to make progress");
    // A maximum node-disjointly-connectable sub-batch: the endpoints of a
    // maximum node-disjoint path packing between the remainders.
    const NodeDisjointPathsResult flow =
        max_node_disjoint_paths(g, rem_sources, rem_sinks, 1);
    DLS_REQUIRE(flow.connected_pairs > 0,
                "sources and sinks are not connected in G");
    std::vector<NodeId> group_s, group_t;
    // Endpoints of each found path; remove one occurrence of each from the
    // remainders (multiset semantics).
    auto remove_one = [](std::vector<NodeId>& pool, NodeId v) {
      const auto it = std::find(pool.begin(), pool.end(), v);
      DLS_ASSERT(it != pool.end(), "path endpoint not in pool");
      pool.erase(it);
    };
    for (const auto& path : flow.paths) {
      group_s.push_back(path.front());
      group_t.push_back(path.back());
      remove_one(rem_sources, path.front());
      remove_one(rem_sinks, path.back());
    }
    result.source_groups.push_back(std::move(group_s));
    result.sink_groups.push_back(std::move(group_t));
  }
  return result;
}

}  // namespace dls
