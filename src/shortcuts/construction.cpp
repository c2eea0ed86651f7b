#include "shortcuts/construction.hpp"

#include <utility>

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
  // H_i is the Steiner subtree of P_i in the tree: the edge above a node c
  // of the union of member→root paths belongs to it iff the members below
  // c are neither none nor all of them. Every union node has a member below
  // it, so only "all" needs a check. Stamps are the part index + 1, so one
  // set of arrays serves every part.
  //
  // Each member's walk climbs until it meets a node an earlier walk took
  // (or the root), so a union node's children lie earlier in its own walk
  // or in later walks. Folding the walks last to first, each bottom-up,
  // therefore reaches every node after all of its children.
  const std::size_t n = tree.parent.size();
  std::vector<std::uint32_t> member_stamp(n, 0);
  std::vector<std::uint32_t> union_stamp(n, 0);
  std::vector<std::uint32_t> below(n, 0);  // members in the subtree, in union
  std::vector<NodeId> walk;  // union nodes with an edge up, in walk order
  std::vector<std::size_t> walk_start;  // where each member's walk begins
  Shortcut s;
  s.h_edges.reserve(pc.num_parts());
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    const std::vector<NodeId>& part = pc.parts[i];
    const auto stamp = static_cast<std::uint32_t>(i + 1);
    std::uint32_t members = 0;
    for (NodeId v : part) {
      DLS_REQUIRE(v < n, "part member out of range");
      if (member_stamp[v] != stamp) {
        member_stamp[v] = stamp;
        ++members;
      }
    }
    walk.clear();
    walk_start.clear();
    for (NodeId v : part) {
      walk_start.push_back(walk.size());
      for (NodeId cur = v; union_stamp[cur] != stamp; cur = tree.parent[cur]) {
        union_stamp[cur] = stamp;
        below[cur] = member_stamp[cur] == stamp ? 1 : 0;
        if (cur == tree.root) break;
        walk.push_back(cur);
      }
    }
    for (std::size_t w = walk_start.size(), end = walk.size(); w-- > 0;) {
      for (std::size_t k = walk_start[w]; k < end; ++k) {
        below[tree.parent[walk[k]]] += below[walk[k]];
      }
      end = walk_start[w];
    }
    std::vector<EdgeId> h;
    for (NodeId c : walk) {
      if (below[c] < members) h.push_back(tree.parent_edge[c]);
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
