// Kernel-plane microbenchmark (docs/KERNELS.md): the three wall-clock wins
// of the CSR operator plane, measured in isolation from the solver so a
// regression points at the kernel, not the chain above it.
//
//   1. apply: the flattened LaplacianCsr matvec vs the historical
//      adjacency-list laplacian_apply (which pays one indirect edge load per
//      neighbor and allocates its result).
//   2. fused vs unfused: axpy_dot / xpay / apply_dot against the two-pass
//      compositions they replace, on multi-block vectors.
//   3. warm vs cold workspace: repeated CG solves leasing scratch from one
//      persistent SolveWorkspace vs a fresh arena per solve.
//
// Every comparison asserts bit-identity inside the bench — the kernels only
// move time, never bits. Flags: --smoke (small sizes for CI), --json PATH
// (flat metrics for scripts/bench_compare.py), --threads N (pool for the
// blocked kernels; rounds are not involved here, this is pure wall clock).
#include <algorithm>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "linalg/csr.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/solvers.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/workspace.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

using namespace dls;
using namespace dls::bench;

namespace {

struct Family {
  std::string name;  // doubles as the metric key prefix
  Graph graph;
};

std::vector<Family> make_families(bool smoke) {
  Rng gen_rng(29);
  std::vector<Family> families;
  if (smoke) {
    families.push_back({"grid", make_grid(12, 12)});
    families.push_back({"expander", make_random_regular(192, 8, gen_rng)});
    families.push_back({"weighted-grid", make_weighted_grid(10, 10, gen_rng)});
  } else {
    families.push_back({"grid", make_grid(64, 64)});
    families.push_back({"expander", make_random_regular(4096, 8, gen_rng)});
    families.push_back({"weighted-grid", make_weighted_grid(48, 48, gen_rng)});
  }
  return families;
}

/// Repetitions scaled so each timed section does comparable work, with a
/// floor so tiny smoke graphs still produce a stable reading.
std::size_t apply_reps(const Graph& g, bool smoke) {
  const std::size_t target = smoke ? 400'000 : 8'000'000;
  return std::max<std::size_t>(64, target / std::max<std::size_t>(g.num_edges(), 1));
}

}  // namespace

int main(int argc, char** argv) {
  const WallTimer total_timer;
  BenchRuntime runtime = bench_runtime(argc, argv, {"smoke", "json"});
  const bool smoke = runtime.flags.get_bool("smoke", false);
  const std::string json_path = runtime.flags.get("json", "");
  ThreadPool* pool = runtime.pool.get();

  banner("kernel plane",
         "CSR apply vs adjacency, fused vs unfused, warm vs cold workspace");

  JsonMetrics metrics("kernels");

  // ---- 1. apply: CSR vs adjacency. ----------------------------------------
  Table apply_table({"family", "n", "m", "reps", "adj ns/apply", "csr ns/apply",
                     "speedup", "bit-identical"});
  for (const Family& family : make_families(smoke)) {
    const Graph& g = family.graph;
    const std::size_t reps = apply_reps(g, smoke);
    Rng rng(g.num_nodes());
    const Vec x = random_rhs(g.num_nodes(), rng);
    const LaplacianCsr csr(g);

    // The historical kernel: adjacency gather, result allocated per call.
    volatile double sink = 0.0;  // keep the loops honest
    WallTimer adj_timer;
    for (std::size_t r = 0; r < reps; ++r) {
      const Vec y = laplacian_apply(g, x, pool);
      sink = sink + y[0];
    }
    const double adj_seconds = adj_timer.seconds();

    Vec y(g.num_nodes());
    WallTimer csr_timer;
    for (std::size_t r = 0; r < reps; ++r) {
      csr.apply(x, y, pool);
      sink = sink + y[0];
    }
    const double csr_seconds = csr_timer.seconds();

    const bool identical = y == laplacian_apply(g, x);
    DLS_REQUIRE(identical,
                "CSR apply diverged from adjacency apply (" + family.name + ")");

    const double adj_ns = adj_seconds * 1e9 / static_cast<double>(reps);
    const double csr_ns = csr_seconds * 1e9 / static_cast<double>(reps);
    apply_table.add_row({family.name, Table::cell(g.num_nodes()),
                         Table::cell(g.num_edges()), Table::cell(reps),
                         Table::cell(adj_ns, 0), Table::cell(csr_ns, 0),
                         Table::cell(adj_ns / csr_ns),
                         identical ? "yes" : "NO"});
    const std::string prefix = family.name + "/";
    metrics.set(prefix + "wall_apply_adj_ns", adj_ns);
    metrics.set(prefix + "wall_apply_csr_ns", csr_ns);
    metrics.set(prefix + "apply_speedup", adj_ns / csr_ns);
  }
  apply_table.print(std::cout);

  // ---- 2. fused vs unfused vector kernels. --------------------------------
  const std::size_t n = smoke ? 3 * kKernelBlock + 123 : 24 * kKernelBlock;
  const std::size_t vec_reps = smoke ? 2'000 : 4'000;
  Rng vec_rng(31);
  Vec vx(n), vy0(n);
  for (double& v : vx) v = vec_rng.next_double() * 2 - 1;
  for (double& v : vy0) v = vec_rng.next_double() * 2 - 1;

  Table fused_table(
      {"kernel", "n", "reps", "unfused ns", "fused ns", "speedup"});
  const auto time_pair = [&](const std::string& name, std::size_t size,
                             auto unfused, auto fused) {
    WallTimer unfused_timer;
    for (std::size_t r = 0; r < vec_reps; ++r) unfused();
    const double unfused_ns =
        unfused_timer.seconds() * 1e9 / static_cast<double>(vec_reps);
    WallTimer fused_timer;
    for (std::size_t r = 0; r < vec_reps; ++r) fused();
    const double fused_ns =
        fused_timer.seconds() * 1e9 / static_cast<double>(vec_reps);
    fused_table.add_row({name, Table::cell(size), Table::cell(vec_reps),
                         Table::cell(unfused_ns, 0), Table::cell(fused_ns, 0),
                         Table::cell(unfused_ns / fused_ns)});
    metrics.set("fused/" + name + "/wall_unfused_ns", unfused_ns);
    metrics.set("fused/" + name + "/wall_fused_ns", fused_ns);
    metrics.set("fused/" + name + "/speedup", unfused_ns / fused_ns);
  };

  {
    // axpy_dot: the CG residual update + convergence check in one pass.
    Vec ya = vy0, yb = vy0;
    double acc_unfused = 0.0, acc_fused = 0.0;
    time_pair(
        "axpy_dot", n,
        [&] {
          blocked_axpy(1e-9, vx, ya, pool);
          acc_unfused += blocked_dot(ya, ya, pool);
        },
        [&] { acc_fused += blocked_axpy_dot(1e-9, vx, yb, pool); });
    DLS_REQUIRE(ya == yb && acc_unfused == acc_fused,
                "blocked_axpy_dot diverged from blocked_axpy + blocked_dot");
  }
  {
    // xpay: the search-direction update p = z + beta p without a temporary.
    Vec ya = vy0, yb = vy0;
    time_pair(
        "xpay", n,
        [&] {
          blocked_scale(ya, 0.999, pool);
          blocked_axpy(1.0, vx, ya, pool);
        },
        [&] { blocked_xpay(vx, 0.999, yb, pool); });
    // scale-then-add and x + beta*y round differently per element; the
    // fused kernel's contract is with the *composed expression*, checked in
    // test_kernels.cpp — here the pair only shares the memory traffic shape.
  }
  {
    // apply_dot: matvec + energy norm in one sweep of the CSR arrays.
    Rng rng(37);
    const Graph g = smoke ? make_grid(12, 12) : make_grid(64, 64);
    const LaplacianCsr csr(g);
    const Vec x = random_rhs(g.num_nodes(), rng);
    Vec ya(g.num_nodes()), yb(g.num_nodes());
    double acc_unfused = 0.0, acc_fused = 0.0;
    time_pair(
        "apply_dot", g.num_nodes(),
        [&] {
          csr.apply(x, ya, pool);
          acc_unfused += blocked_dot(x, ya, pool);
        },
        [&] { acc_fused += csr.apply_dot(x, yb, pool); });
    DLS_REQUIRE(ya == yb && acc_unfused == acc_fused,
                "apply_dot diverged from apply + blocked_dot");
  }
  std::cout << "\nfused vs unfused (" << runtime.threads << " thread(s))\n";
  fused_table.print(std::cout);

  // ---- 3. warm vs cold workspace. -----------------------------------------
  Table ws_table({"family", "n", "solves", "cold ms/solve", "warm ms/solve",
                  "speedup", "cold buffers", "warm buffers", "bit-identical"});
  const std::size_t solves = smoke ? 6 : 12;
  for (const Family& family : make_families(smoke)) {
    const Graph& g = family.graph;
    Rng rng(g.num_nodes() ^ 0xB5);
    const Vec b = random_rhs(g.num_nodes(), rng);
    const LaplacianCsr csr(g);
    SolveOptions options;
    options.tolerance = 1e-8;

    // Cold: a fresh arena per solve — every solve re-allocates its scratch.
    std::uint64_t cold_buffers = 0;
    Vec cold_x;
    WallTimer cold_timer;
    for (std::size_t s = 0; s < solves; ++s) {
      SolveWorkspace ws;
      const SolveResult result = solve_laplacian_cg(csr, b, options, ws);
      cold_buffers += ws.buffer_allocations();
      cold_x = result.x;
    }
    const double cold_seconds = cold_timer.seconds();

    // Warm: one persistent arena — allocations happen on the first solve
    // only, the rest lease recycled buffers.
    SolveWorkspace ws;
    Vec warm_x;
    WallTimer warm_timer;
    for (std::size_t s = 0; s < solves; ++s) {
      const SolveResult result = solve_laplacian_cg(csr, b, options, ws);
      warm_x = result.x;
    }
    const double warm_seconds = warm_timer.seconds();

    const bool identical = warm_x == cold_x;
    DLS_REQUIRE(identical,
                "warm-workspace solve diverged from cold (" + family.name + ")");
    const double cold_ms = cold_seconds * 1e3 / static_cast<double>(solves);
    const double warm_ms = warm_seconds * 1e3 / static_cast<double>(solves);
    ws_table.add_row({family.name, Table::cell(g.num_nodes()),
                      Table::cell(solves), Table::cell(cold_ms),
                      Table::cell(warm_ms), Table::cell(cold_ms / warm_ms),
                      Table::cell(cold_buffers),
                      Table::cell(ws.buffer_allocations()),
                      identical ? "yes" : "NO"});
    const std::string prefix = family.name + "/";
    metrics.set(prefix + "wall_cg_cold_ms", cold_ms);
    metrics.set(prefix + "wall_cg_warm_ms", warm_ms);
    metrics.set(prefix + "cg_workspace_speedup", cold_ms / warm_ms);
    metrics.set(prefix + "ws_buffers_cold",
                static_cast<double>(cold_buffers));
    metrics.set(prefix + "ws_buffers_warm",
                static_cast<double>(ws.buffer_allocations()));
  }
  std::cout << "\nwarm vs cold workspace (CG on the CSR operator)\n";
  ws_table.print(std::cout);

  footnote(
      "Expected shape: the CSR apply beats the adjacency gather by skipping "
      "the per-neighbor edge indirection and the per-call result allocation; "
      "fused kernels save one full pass over the vectors (and apply_dot one "
      "pass over x/y); a warm workspace pins the per-solve buffer count at "
      "zero after the first solve. All three comparisons are asserted "
      "bit-identical inside the bench — the kernel plane moves wall clock "
      "only, never bits (docs/KERNELS.md).");
  print_wall_clock(runtime, total_timer);
  metrics.write(json_path);
  return 0;
}
