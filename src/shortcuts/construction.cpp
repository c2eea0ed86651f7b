#include "shortcuts/construction.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "graph/algorithms.hpp"

namespace dls {

RootedSpanningTree root_spanning_tree(const Graph& g,
                                      std::span<const EdgeId> tree_edges,
                                      NodeId root) {
  DLS_REQUIRE(root < g.num_nodes(), "root out of range");
  RootedSpanningTree t;
  t.root = root;
  t.parent.assign(g.num_nodes(), kInvalidNode);
  t.parent_edge.assign(g.num_nodes(), kInvalidEdge);
  t.depth.assign(g.num_nodes(), 0);
  std::vector<std::vector<Adjacency>> adj(g.num_nodes());
  for (EdgeId e : tree_edges) {
    const Edge& edge = g.edge(e);
    adj[edge.u].push_back({edge.v, e});
    adj[edge.v].push_back({edge.u, e});
  }
  std::vector<NodeId> stack{root};
  std::vector<char> seen(g.num_nodes(), 0);
  seen[root] = 1;
  t.parent[root] = root;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    ++visited;
    for (const Adjacency& a : adj[v]) {
      if (seen[a.neighbor]) continue;
      seen[a.neighbor] = 1;
      t.parent[a.neighbor] = v;
      t.parent_edge[a.neighbor] = a.edge;
      t.depth[a.neighbor] = t.depth[v] + 1;
      stack.push_back(a.neighbor);
    }
  }
  DLS_REQUIRE(visited == g.num_nodes(), "tree edges do not span the graph");
  return t;
}

RootedSpanningTree centered_bfs_tree(const Graph& g, Rng& rng) {
  DLS_REQUIRE(g.num_nodes() >= 1, "empty graph");
  // Approximate center: endpoint-midpoint of a double sweep.
  NodeId start = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  const BfsResult r1 = bfs(g, start);
  NodeId far1 = start;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    DLS_REQUIRE(r1.dist[v] != BfsResult::kUnreachable,
                "centered_bfs_tree requires a connected graph");
    if (r1.dist[v] > r1.dist[far1]) far1 = v;
  }
  const BfsResult r2 = bfs(g, far1);
  NodeId far2 = far1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r2.dist[v] > r2.dist[far2]) far2 = v;
  }
  // Midpoint of the far1→far2 path.
  NodeId center = far2;
  std::uint32_t steps = r2.dist[far2] / 2;
  while (steps-- > 0) center = r2.parent[center];
  const std::vector<EdgeId> edges = bfs_tree_edges(g, center);
  return root_spanning_tree(g, edges, center);
}

Shortcut trivial_shortcut(const PartCollection& pc) {
  Shortcut s;
  s.h_edges.assign(pc.num_parts(), {});
  return s;
}

Shortcut tree_restricted_shortcut(const PartCollection& pc,
                                  const RootedSpanningTree& tree) {
  Shortcut s;
  s.h_edges.reserve(pc.num_parts());
  for (const auto& part : pc.parts) {
    // Union of member→root paths, then prune non-member leaves: the exact
    // Steiner subtree of the members in the tree.
    std::unordered_map<NodeId, std::size_t> union_degree;
    std::unordered_set<NodeId> on_union;
    std::vector<std::pair<NodeId, EdgeId>> union_edges;  // (child, edge up)
    for (NodeId v : part) {
      NodeId cur = v;
      while (on_union.insert(cur).second && cur != tree.root) {
        union_edges.push_back({cur, tree.parent_edge[cur]});
        cur = tree.parent[cur];
      }
    }
    // Build child-count for pruning.
    std::unordered_map<NodeId, std::vector<std::pair<NodeId, EdgeId>>> children;
    for (const auto& [child, e] : union_edges) {
      children[tree.parent[child]].push_back({child, e});
      ++union_degree[child];
      ++union_degree[tree.parent[child]];
    }
    const std::unordered_set<NodeId> members(part.begin(), part.end());
    // Iteratively peel degree-1 non-member nodes.
    std::vector<NodeId> peel;
    for (NodeId v : on_union) {
      if (union_degree[v] == 1 && members.count(v) == 0) peel.push_back(v);
    }
    std::unordered_set<EdgeId> removed;
    std::unordered_map<NodeId, std::pair<NodeId, EdgeId>> up;  // child -> (parent, edge)
    for (const auto& [child, e] : union_edges) {
      up[child] = {tree.parent[child], e};
    }
    std::unordered_set<NodeId> peeled;
    while (!peel.empty()) {
      const NodeId v = peel.back();
      peel.pop_back();
      if (!peeled.insert(v).second) continue;
      // Remove the single incident union edge. It is either v's up-edge or
      // one of v's child edges (v can be the top of the union).
      NodeId neighbor = kInvalidNode;
      if (up.count(v) > 0 && removed.count(up[v].second) == 0) {
        removed.insert(up[v].second);
        neighbor = up[v].first;
      } else {
        for (const auto& [child, e] : children[v]) {
          if (removed.count(e) == 0 && peeled.count(child) == 0) {
            removed.insert(e);
            neighbor = child;
            break;
          }
        }
      }
      if (neighbor == kInvalidNode) continue;
      if (--union_degree[neighbor] == 1 && members.count(neighbor) == 0) {
        peel.push_back(neighbor);
      }
    }
    std::vector<EdgeId> h;
    for (const auto& [child, e] : union_edges) {
      (void)child;
      if (removed.count(e) == 0) h.push_back(e);
    }
    s.h_edges.push_back(std::move(h));
  }
  return s;
}

BestShortcut build_best_shortcut(const Graph& g, const PartCollection& pc,
                                 Rng& rng) {
  BestShortcut best;
  best.shortcut = trivial_shortcut(pc);
  best.quality = measure_shortcut(g, pc, best.shortcut);
  best.construction = "trivial";
  // Tree-restricted on a centered BFS tree.
  {
    const RootedSpanningTree tree = centered_bfs_tree(g, rng);
    Shortcut candidate = tree_restricted_shortcut(pc, tree);
    const ShortcutQuality q = measure_shortcut(g, pc, candidate);
    if (q.quality() < best.quality.quality()) {
      best.shortcut = std::move(candidate);
      best.quality = q;
      best.construction = "tree-restricted";
    }
  }
  return best;
}

PartCollection tree_chop_partition(const Graph& g, const RootedSpanningTree& tree,
                                   std::size_t target_size) {
  DLS_REQUIRE(target_size >= 1, "target size must be positive");
  // Post-order accumulation: each node keeps a bucket of not-yet-assigned
  // descendants (including itself); once a bucket reaches target_size it is
  // emitted as a part (a connected subtree piece).
  const std::size_t n = g.num_nodes();
  std::vector<std::vector<NodeId>> tree_children(n);
  for (NodeId v = 0; v < n; ++v) {
    if (v != tree.root) tree_children[tree.parent[v]].push_back(v);
  }
  PartCollection pc;
  std::vector<std::vector<NodeId>> bucket(n);
  // Iterative post-order.
  std::vector<std::pair<NodeId, std::size_t>> stack{{tree.root, 0}};
  while (!stack.empty()) {
    auto& [v, idx] = stack.back();
    if (idx < tree_children[v].size()) {
      stack.push_back({tree_children[v][idx++], 0});
      continue;
    }
    bucket[v].push_back(v);
    if (v != tree.root) {
      auto& parent_bucket = bucket[tree.parent[v]];
      if (bucket[v].size() >= target_size) {
        pc.parts.push_back(std::move(bucket[v]));
      } else {
        parent_bucket.insert(parent_bucket.end(), bucket[v].begin(),
                             bucket[v].end());
      }
      bucket[v].clear();
    }
    stack.pop_back();
  }
  if (!bucket[tree.root].empty()) pc.parts.push_back(std::move(bucket[tree.root]));
  return pc;
}

}  // namespace dls
