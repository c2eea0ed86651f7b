// Kernel-plane regression suite (docs/KERNELS.md):
//
//   1. CSR bit-identity — LaplacianCsr::apply / apply_dot fold the exact same
//      values in the exact same order as both laplacian_apply overloads, for
//      every graph family and thread count.
//   2. Fused-vs-unfused bit-identity — axpy_dot / xpay and their blocked
//      variants reproduce the separate kernels bit-for-bit.
//   3. SolveWorkspace semantics — free-list reuse, zeroed vs scratch leases,
//      counters and their mem.alloc.ws.* metric mirrors.
//   4. Zero-allocation steady state — once a workspace is warm, the CG / PCG
//      inner iterations perform no heap allocations at all, pinned by
//      counting global operator new calls between operator callbacks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "linalg/csr.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/solvers.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/workspace.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

// --- Global allocation counter ---------------------------------------------
//
// Replacement global operator new/delete backed by malloc/free, counting
// every allocation in the process. ASan intercepts the underlying malloc, so
// its poisoning and leak detection still work; we only add the counter. The
// zero-allocation tests sample this counter at each solver operator callback
// and assert the deltas between consecutive callbacks are zero once warm.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded > 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dls {
namespace {

Vec random_vec(std::size_t n, Rng& rng) {
  Vec x(n);
  for (double& v : x) v = rng.next_double() * 2.0 - 1.0;
  return x;
}

Vec random_rhs(std::size_t n, Rng& rng) {
  Vec b = random_vec(n, rng);
  project_mean_zero(b);
  return b;
}

// --- 1. CSR bit-identity over a family × seed corpus. -----------------------

struct NamedGraph {
  std::string name;
  Graph g;
};

std::vector<NamedGraph> corpus(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedGraph> out;
  out.push_back({"path", make_path(257)});
  out.push_back({"star", make_star(129)});
  out.push_back({"grid", make_grid(9, 13)});
  out.push_back({"torus", make_torus(8, 11)});
  out.push_back({"triangulated-grid", make_triangulated_grid(7, 9)});
  out.push_back({"binary-tree", make_balanced_binary_tree(127)});
  out.push_back({"weighted-grid", make_weighted_grid(10, 12, rng)});
  out.push_back({"expander", make_random_regular(96, 8, rng)});
  out.push_back({"erdos-renyi", make_erdos_renyi(80, 0.12, rng)});
  out.push_back({"pref-attach", make_preferential_attachment(90, 3, rng)});
  return out;
}

TEST(CsrKernels, BitIdenticalToAdjacencyAcrossCorpusAndThreads) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ThreadPool* pools[] = {nullptr, &pool1, &pool4};
  for (std::uint64_t seed : {7u, 42u}) {
    for (const NamedGraph& ng : corpus(seed)) {
      SCOPED_TRACE(ng.name + " seed=" + std::to_string(seed));
      const Graph& g = ng.g;
      LaplacianCsr csr(g);
      ASSERT_EQ(csr.num_nodes(), g.num_nodes());
      ASSERT_EQ(csr.num_entries(), 2 * g.num_edges());
      Rng rng(seed * 1000 + g.num_nodes());
      const Vec x = random_vec(g.num_nodes(), rng);
      // One canonical answer: the serial adjacency gather.
      const Vec reference = laplacian_apply(g, x);
      Vec y(g.num_nodes(), 0.0);
      for (ThreadPool* pool : pools) {
        csr.apply(x, y, pool);
        EXPECT_EQ(y, reference);
        EXPECT_EQ(laplacian_apply(g, x, pool), reference);
        // Fused apply+dot: same vector bits, and the quadratic form matches
        // the blocked reduction over the unfused result exactly.
        Vec y2(g.num_nodes(), 0.0);
        const double quad = csr.apply_dot(x, y2, pool);
        EXPECT_EQ(y2, reference);
        EXPECT_EQ(quad, blocked_dot(x, reference, pool));
      }
    }
  }
}

TEST(CsrKernels, DiagonalMatchesWeightedDegrees) {
  Rng rng(5);
  const Graph g = make_weighted_grid(6, 7, rng);
  const LaplacianCsr csr(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(csr.degree(v), g.weighted_degree(v));
  }
}

TEST(CsrKernels, RefreshWeightsMatchesFullRebuild) {
  Rng rng(11);
  Graph g = make_weighted_grid(8, 9, rng);
  LaplacianCsr csr(g);
  // Reweight every edge, then take the cheap refresh path and compare its
  // bits against a from-scratch rebuild.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, g.edge(e).weight * (0.5 + rng.next_double()));
  }
  csr.refresh_weights(g);
  const LaplacianCsr fresh(g);
  const Vec x = random_vec(g.num_nodes(), rng);
  Vec y_refresh(g.num_nodes()), y_fresh(g.num_nodes());
  csr.apply(x, y_refresh);
  fresh.apply(x, y_fresh);
  EXPECT_EQ(y_refresh, y_fresh);
  EXPECT_EQ(y_refresh, laplacian_apply(g, x));
}

TEST(CsrKernels, ApplyAllocatesNothing) {
  Rng rng(17);
  const Graph g = make_weighted_grid(12, 12, rng);
  const LaplacianCsr csr(g);
  const Vec x = random_vec(g.num_nodes(), rng);
  Vec y(g.num_nodes(), 0.0);
  csr.apply(x, y);  // warm: y already sized
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 8; ++i) {
    csr.apply(x, y);
    csr.apply_dot(x, y);
  }
  EXPECT_EQ(alloc_count(), before);
}

// --- 2. Fused-vs-unfused bit-identity. --------------------------------------

TEST(FusedKernels, AxpyDotMatchesSeparateKernelsBitwise) {
  Rng rng(23);
  // Straddle several 4096-entry blocks so the blocked paths genuinely fold
  // multiple partials.
  const std::size_t n = 3 * kKernelBlock + 123;
  const Vec x = random_vec(n, rng);
  const Vec y0 = random_vec(n, rng);
  const double alpha = -0.3728;

  Vec y_fused = y0;
  const double rr_fused = axpy_dot(alpha, x, y_fused);
  Vec y_ref = y0;
  axpy(alpha, x, y_ref);
  EXPECT_EQ(y_fused, y_ref);
  EXPECT_EQ(rr_fused, dot(y_ref, y_ref));
}

TEST(FusedKernels, XpayMatchesElementwiseBitwise) {
  Rng rng(29);
  const std::size_t n = 2 * kKernelBlock + 77;
  const Vec x = random_vec(n, rng);
  const Vec y0 = random_vec(n, rng);
  const double beta = 0.6181;

  Vec y_fused = y0;
  xpay(x, beta, y_fused);
  Vec y_ref = y0;
  for (std::size_t i = 0; i < n; ++i) y_ref[i] = x[i] + beta * y_ref[i];
  EXPECT_EQ(y_fused, y_ref);
}

TEST(FusedKernels, BlockedVariantsBitIdenticalAcrossThreads) {
  Rng rng(31);
  const std::size_t n = 4 * kKernelBlock + 999;
  const Vec x = random_vec(n, rng);
  const Vec y0 = random_vec(n, rng);
  const double alpha = 0.77, beta = -0.41;

  // The null-pool blocked results are the single reference (the blocked
  // reduction's block-partial fold differs in the last bits from the plain
  // sequential axpy_dot for n > kKernelBlock — by design; what the blocked
  // kernels promise is fused ≡ unfused and null-pool ≡ every pool).
  Vec y_axpy = y0;
  const double rr_ref = blocked_axpy_dot(alpha, x, y_axpy, nullptr);
  Vec y_xpay = y0;
  xpay(x, beta, y_xpay);
  // The vector update itself is elementwise, so it matches the plain fused
  // kernel exactly.
  {
    Vec y_plain = y0;
    axpy_dot(alpha, x, y_plain);
    EXPECT_EQ(y_axpy, y_plain);
  }

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ThreadPool* pools[] = {nullptr, &pool1, &pool4};
  for (ThreadPool* pool : pools) {
    Vec y = y0;
    EXPECT_EQ(blocked_axpy_dot(alpha, x, y, pool), rr_ref);
    EXPECT_EQ(y, y_axpy);
    // Unfused pair on the same pool folds the same bits.
    Vec y2 = y0;
    blocked_axpy(alpha, x, y2, pool);
    EXPECT_EQ(y2, y_axpy);
    EXPECT_EQ(blocked_dot(y2, y2, pool), rr_ref);

    Vec y3 = y0;
    blocked_xpay(x, beta, y3, pool);
    EXPECT_EQ(y3, y_xpay);

    Vec d(n);
    blocked_sub_into(x, y0, d, pool);
    EXPECT_EQ(d, sub(x, y0));
  }
}

// --- 3. SolveWorkspace semantics. -------------------------------------------

TEST(Workspace, AcquireZeroesAndScratchResizes) {
  SolveWorkspace ws;
  {
    WorkspaceLease a = ws.acquire(5);
    ASSERT_EQ(a->size(), 5u);
    for (double v : *a) EXPECT_EQ(v, 0.0);
    for (double& v : *a) v = 3.5;
  }
  // The recycled buffer comes back zeroed from acquire()...
  {
    WorkspaceLease a = ws.acquire(5);
    for (double v : *a) EXPECT_EQ(v, 0.0);
    for (double& v : *a) v = 2.0;
  }
  // ...and merely resized from acquire_scratch().
  WorkspaceLease s = ws.acquire_scratch(3);
  EXPECT_EQ(s->size(), 3u);
  EXPECT_EQ(ws.pooled_buffers(), 1u);
}

TEST(Workspace, FreeListReusesBuffersWithStableAddresses) {
  SolveWorkspace ws;
  Vec* first = nullptr;
  {
    WorkspaceLease a = ws.acquire_scratch(64);
    first = &*a;
  }
  EXPECT_EQ(ws.buffer_allocations(), 1u);
  {
    // LIFO reuse: the same backing vector comes straight back.
    WorkspaceLease b = ws.acquire_scratch(64);
    EXPECT_EQ(&*b, first);
  }
  EXPECT_EQ(ws.buffer_allocations(), 1u);
  // Two concurrent leases force a second buffer; releasing both leaves a
  // free list of two and no further allocations ever.
  {
    WorkspaceLease a = ws.acquire_scratch(64);
    WorkspaceLease b = ws.acquire_scratch(64);
    EXPECT_NE(&*a, &*b);
  }
  EXPECT_EQ(ws.buffer_allocations(), 2u);
  {
    WorkspaceLease a = ws.acquire_scratch(64);
    WorkspaceLease b = ws.acquire_scratch(64);
  }
  EXPECT_EQ(ws.buffer_allocations(), 2u);
  EXPECT_EQ(ws.pooled_buffers(), 2u);
}

TEST(Workspace, CountersTrackAcquiresAndGrowth) {
  SolveWorkspace ws;
  EXPECT_EQ(ws.acquires(), 0u);
  { WorkspaceLease a = ws.acquire_scratch(10); }
  EXPECT_EQ(ws.acquires(), 1u);
  EXPECT_EQ(ws.buffer_allocations(), 1u);
  EXPECT_EQ(ws.capacity_grows(), 1u);  // cold buffer grew 0 -> 10
  // Same-size reacquire: no growth.
  { WorkspaceLease a = ws.acquire_scratch(10); }
  EXPECT_EQ(ws.acquires(), 2u);
  EXPECT_EQ(ws.capacity_grows(), 1u);
  // Bigger reacquire on the recycled buffer: one growth, no new buffer.
  { WorkspaceLease a = ws.acquire_scratch(1000); }
  EXPECT_EQ(ws.acquires(), 3u);
  EXPECT_EQ(ws.buffer_allocations(), 1u);
  EXPECT_EQ(ws.capacity_grows(), 2u);
  // Smaller never grows.
  { WorkspaceLease a = ws.acquire(8); }
  EXPECT_EQ(ws.capacity_grows(), 2u);
}

TEST(Workspace, MirrorsCountersIntoGlobalMetrics) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::uint64_t acquires0 = reg.counter("mem.alloc.ws.acquires").value();
  const std::uint64_t buffers0 = reg.counter("mem.alloc.ws.buffers").value();
  const std::uint64_t grows0 =
      reg.counter("mem.alloc.ws.capacity_grows").value();
  SolveWorkspace ws;
  { WorkspaceLease a = ws.acquire_scratch(16); }
  { WorkspaceLease a = ws.acquire_scratch(16); }
  { WorkspaceLease a = ws.acquire_scratch(32); }
  EXPECT_EQ(reg.counter("mem.alloc.ws.acquires").value(), acquires0 + 3);
  EXPECT_EQ(reg.counter("mem.alloc.ws.buffers").value(), buffers0 + 1);
  EXPECT_EQ(reg.counter("mem.alloc.ws.capacity_grows").value(), grows0 + 2);
}

TEST(Workspace, LeaseMoveTransfersOwnershipAndReleaseIsIdempotent) {
  SolveWorkspace ws;
  WorkspaceLease a = ws.acquire_scratch(4);
  Vec* buf = &*a;
  WorkspaceLease b = std::move(a);
  EXPECT_FALSE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(&*b, buf);
  b.release();
  EXPECT_FALSE(b.valid());
  b.release();  // idempotent
  // The buffer went back exactly once: a single free-list entry.
  WorkspaceLease c = ws.acquire_scratch(4);
  EXPECT_EQ(&*c, buf);
  EXPECT_EQ(ws.buffer_allocations(), 1u);
}

// --- 4. Zero-allocation steady state. ---------------------------------------
//
// The contract from solvers.hpp: after a first solve warms the workspace's
// free list, the inner iterations of every workspace-backed kernel perform
// zero heap allocations. We pin it by sampling the global allocation counter
// at each operator callback of a *second* solve against the same workspace
// and asserting all consecutive deltas are zero — everything a loop iteration
// does (axpy_dot, xpay, dot, project_mean_zero, watchdog checks on a healthy
// run) must be allocation-free. The watchdog stays enabled: the guards
// themselves must not allocate either.

class AllocMarks {
 public:
  AllocMarks() { marks_.reserve(1 << 14); }  // recording must not allocate
  void record() { marks_.push_back(alloc_count()); }
  void clear() { marks_.clear(); }
  std::size_t size() const { return marks_.size(); }

  void expect_steady() const {
    ASSERT_GE(marks_.size(), 3u) << "solver made too few operator calls";
    for (std::size_t i = 1; i < marks_.size(); ++i) {
      EXPECT_EQ(marks_[i], marks_[i - 1])
          << "heap allocation between operator callbacks " << i - 1 << " and "
          << i;
    }
  }

 private:
  std::vector<std::uint64_t> marks_;
};

TEST(ZeroAllocSteadyState, ConjugateGradientInnerIterations) {
  Rng rng(41);
  const Graph g = make_weighted_grid(12, 13, rng);
  const LaplacianCsr csr(g);
  const Vec b = random_rhs(g.num_nodes(), rng);
  SolveOptions options;
  options.tolerance = 1e-10;
  SolveWorkspace ws;
  AllocMarks marks;
  const InplaceOperator op = [&](const Vec& x, Vec& y) {
    marks.record();
    csr.apply(x, y);
  };
  const SolveResult warm = conjugate_gradient(op, b, options, ws);
  ASSERT_TRUE(warm.converged);
  const std::uint64_t buffers = ws.buffer_allocations();
  const std::uint64_t grows = ws.capacity_grows();

  marks.clear();
  const SolveResult result = conjugate_gradient(op, b, options, ws);
  ASSERT_TRUE(result.converged);
  marks.expect_steady();
  // The warm workspace handed out only recycled, right-sized buffers.
  EXPECT_EQ(ws.buffer_allocations(), buffers);
  EXPECT_EQ(ws.capacity_grows(), grows);
  // And the arena changed nothing numerically.
  EXPECT_EQ(result.x, warm.x);
  EXPECT_EQ(result.iterations, warm.iterations);
}

TEST(ZeroAllocSteadyState, PreconditionedCgInnerIterations) {
  Rng rng(43);
  const Graph g = make_random_regular(120, 6, rng);
  const LaplacianCsr csr(g);
  const Vec b = random_rhs(g.num_nodes(), rng);
  SolveOptions options;
  options.tolerance = 1e-10;
  SolveWorkspace ws;
  AllocMarks marks;
  const InplaceOperator op = [&](const Vec& x, Vec& y) {
    marks.record();
    csr.apply(x, y);
  };
  // Jacobi preconditioner: allocation-free by construction, and both
  // callbacks sample the counter so the z-update path is covered too.
  const InplaceOperator precond = [&](const Vec& r, Vec& z) {
    marks.record();
    z.resize(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      z[i] = r[i] / csr.degree(static_cast<NodeId>(i));
    }
  };
  const SolveResult warm = preconditioned_cg(op, precond, b, options, ws);
  ASSERT_TRUE(warm.converged);
  const std::uint64_t buffers = ws.buffer_allocations();

  marks.clear();
  const SolveResult result = preconditioned_cg(op, precond, b, options, ws);
  ASSERT_TRUE(result.converged);
  marks.expect_steady();
  EXPECT_EQ(ws.buffer_allocations(), buffers);
  EXPECT_EQ(result.x, warm.x);
}

TEST(ZeroAllocSteadyState, CsrCgConvenienceWrapper) {
  Rng rng(53);
  const Graph g = make_grid(10, 10);
  const LaplacianCsr csr(g);
  const Vec b = random_rhs(g.num_nodes(), rng);
  SolveOptions options;
  SolveWorkspace ws;
  const SolveResult warm = solve_laplacian_cg(csr, b, options, ws);
  ASSERT_TRUE(warm.converged);
  const std::uint64_t buffers = ws.buffer_allocations();
  const SolveResult again = solve_laplacian_cg(csr, b, options, ws);
  EXPECT_EQ(ws.buffer_allocations(), buffers);
  EXPECT_EQ(again.x, warm.x);
}

}  // namespace
}  // namespace dls
