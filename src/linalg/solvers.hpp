// Sequential reference solvers for Laplacian systems Lx = b: the numerical
// ground truth against which the distributed solvers are validated
// (EXPERIMENTS.md records distributed-vs-reference errors).
#pragma once

#include <functional>

#include "graph/graph.hpp"
#include "linalg/csr.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/workspace.hpp"
#include "resilience/watchdog.hpp"

namespace dls {

/// y = A x for the abstract operators the iterative kernels run against.
using LinearOperator = std::function<Vec(const Vec&)>;

/// In-place operator form: writes A x into caller storage (resizing it), so
/// steady-state iterations allocate nothing. The workspace-backed kernels
/// below run against this; the return-by-value API adapts onto it.
using InplaceOperator = std::function<void(const Vec& x, Vec& y)>;

struct SolveResult {
  Vec x;
  std::size_t iterations = 0;
  double residual_norm = 0.0;  // final ‖b − Lx‖₂ / ‖b‖₂
  bool converged = false;
  /// Numerical-watchdog trace: empty on a healthy run (on which the iterates
  /// are bit-identical to a watchdog-less build of these kernels).
  WatchdogReport watchdog;
};

struct SolveOptions {
  double tolerance = 1e-8;        // relative ℓ₂ residual target
  std::size_t max_iterations = 0; // 0 => 10·n + 100
  /// NaN/Inf guards, stagnation/divergence detection and budgeted
  /// remediation (restart, refinement pass). Enabled by default with
  /// thresholds generous enough that healthy solves never trip.
  WatchdogConfig watchdog;
};

// The workspace-backed kernels are the single implementation: scratch
// vectors (rhs / residual / search direction / matvec output) are leased from
// `ws` once per call, so after the first solve warms the free list the inner
// iterations perform zero heap allocations (pinned by the steady-state tests
// in test_kernels.cpp). Results are bit-identical to the historical
// allocate-per-iteration kernels — the fused axpy_dot / xpay updates preserve
// each accumulator's fold order exactly (vector_ops.hpp).

/// Conjugate gradient on the mean-zero subspace (handles the PSD kernel of a
/// connected Laplacian). `op` must be symmetric PSD with kernel span{1}.
SolveResult conjugate_gradient(const InplaceOperator& op, const Vec& b,
                               const SolveOptions& options, SolveWorkspace& ws);

/// CG against a prebuilt CSR operator (serial apply; bit-identical to the
/// Graph overload below, which builds the CSR view internally).
SolveResult solve_laplacian_cg(const LaplacianCsr& csr, const Vec& b,
                               const SolveOptions& options, SolveWorkspace& ws);

/// Preconditioned CG: `precond` applies an approximate pseudo-inverse of L.
SolveResult preconditioned_cg(const InplaceOperator& op,
                              const InplaceOperator& precond, const Vec& b,
                              const SolveOptions& options, SolveWorkspace& ws);

// Return-by-value convenience API: adapts `op` onto the in-place kernels
// with a throwaway workspace. Same bits, per-call allocations.

SolveResult conjugate_gradient(const LinearOperator& op, const Vec& b,
                               const SolveOptions& options = {});

/// CG specialized to a graph Laplacian (flattens `g` to CSR once).
SolveResult solve_laplacian_cg(const Graph& g, const Vec& b,
                               const SolveOptions& options = {});

SolveResult preconditioned_cg(const LinearOperator& op,
                              const LinearOperator& precond, const Vec& b,
                              const SolveOptions& options = {});

}  // namespace dls
