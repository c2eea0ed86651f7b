#include "shortcuts/shortcut.hpp"

#include <algorithm>

#include "shortcuts/part_csr.hpp"
#include "util/random.hpp"

namespace dls {

namespace {

/// Subgraphs up to this many nodes get their exact diameter; larger ones get
/// the seeded sweep estimate below.
constexpr std::uint32_t kExactDiameterNodes = 400;

struct Sweep {
  std::uint32_t ecc = 0;  // eccentricity of the source
  std::uint32_t far = 0;  // lowest local id at distance ecc
};

/// BFS of the loaded subgraph from local id `source`, leaving the hop
/// distances in sc.dist and the nodes reached in sc.queue.
Sweep sweep(PartScratch& sc, std::uint32_t k, std::uint32_t source) {
  sc.dist.assign(k, PartScratch::kUnreached);
  sc.queue.assign(1, source);
  sc.dist[source] = 0;
  Sweep s;
  s.far = source;
  for (std::size_t head = 0; head < sc.queue.size(); ++head) {
    const std::uint32_t x = sc.queue[head];
    const std::uint32_t d = sc.dist[x] + 1;
    for (std::uint32_t i = sc.offset[x]; i < sc.offset[x + 1]; ++i) {
      const std::uint32_t y = sc.csr[i].first;
      if (sc.dist[y] != PartScratch::kUnreached) continue;
      sc.dist[y] = d;
      sc.queue.push_back(y);
      if (d > s.ecc || (d == s.ecc && y < s.far)) {
        s.ecc = d;
        s.far = y;
      }
    }
  }
  return s;
}

/// Diameter of the loaded subgraph of k nodes, where only a result above
/// `floor` (the largest diameter of the earlier parts) can change the
/// maximum: when the diameter is at most `floor` this may return any value
/// up to `floor`. Up to kExactDiameterNodes nodes the diameter is exact;
/// above that it is the 6-sweep estimate approx_diameter() gives with
/// Rng(12345) on the same local ids.
std::uint32_t part_diameter(PartScratch& sc, std::uint32_t k,
                            std::uint32_t floor) {
  if (k == 0) return 0;
  const Sweep first = sweep(sc, k, 0);
  DLS_REQUIRE(sc.queue.size() == k, "part + shortcut subgraph is disconnected");
  // diam ≤ 2·ecc(v) for any v, and the sweep estimate never exceeds diam.
  if (std::uint64_t{2} * first.ecc <= floor) return first.ecc;
  if (k > kExactDiameterNodes) {
    Rng rng(12345);
    auto start = static_cast<std::uint32_t>(rng.next_below(k));
    std::uint32_t best = 0;
    for (int i = 0; i < 6; ++i) {
      const Sweep s = sweep(sc, k, start);
      best = std::max(best, s.ecc);
      start = s.far;
    }
    return best;
  }
  // Exact: ecc(s) ≤ ecc(w) + d(w, s) for every BFS source w, so once no
  // bound exceeds max(best, floor) the diameter cannot either. Each source's
  // own bound drops to its eccentricity, so no node is swept twice.
  std::vector<std::uint32_t>& bound = sc.ecc_bound;
  bound.assign(k, PartScratch::kUnreached);
  std::uint32_t best = 0;
  Sweep last = first;
  while (true) {
    best = std::max(best, last.ecc);
    const std::uint32_t limit = std::max(best, floor);
    std::uint32_t widest = 0;  // lowest id with the largest bound
    for (std::uint32_t s = 0; s < k; ++s) {
      bound[s] = std::min(bound[s], last.ecc + sc.dist[s]);
      if (bound[s] > bound[widest]) widest = s;
    }
    if (bound[widest] <= limit) return best;
    // Next source: the farthest node of the last sweep while it can still
    // raise the result, else the node with the largest bound.
    last = sweep(sc, k, bound[last.far] > limit ? last.far : widest);
  }
}

}  // namespace

ShortcutQuality measure_shortcut(const Graph& g, const PartCollection& pc,
                                 const Shortcut& shortcut) {
  DLS_REQUIRE(shortcut.h_edges.size() == pc.num_parts(),
              "shortcut must have one H_i per part");
  ShortcutQuality q;
  PartScratch& sc = part_scratch();
  std::vector<std::uint32_t> edge_load(g.num_edges(), 0);
  for (const auto& h : shortcut.h_edges) {
    sc.next_epoch(g.num_nodes(), g.num_edges());
    for (EdgeId e : h) {
      DLS_REQUIRE(e < g.num_edges(), "shortcut edge out of range");
      if (sc.edge_epoch[e] == sc.epoch) continue;  // listed twice in H_i
      sc.edge_epoch[e] = sc.epoch;
      q.congestion = std::max<std::size_t>(q.congestion, ++edge_load[e]);
    }
  }
  std::uint32_t dilation = 0;
  for (std::size_t i = 0; i < pc.num_parts(); ++i) {
    const std::uint32_t k =
        load_part_subgraph(sc, g, pc.parts[i], shortcut.h_edges[i]);
    dilation = std::max(dilation, part_diameter(sc, k, dilation));
  }
  // A shortcut with zero helper edges on single-node parts has dilation 0;
  // quality is still well defined.
  q.dilation = dilation;
  return q;
}

}  // namespace dls
