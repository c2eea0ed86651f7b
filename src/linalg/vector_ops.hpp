// Dense vector helpers for the Laplacian solvers. Vectors over graph nodes
// are plain std::vector<double>; for a connected graph the Laplacian's kernel
// is the all-ones vector, so solvers work in the mean-zero subspace.
//
// Every reduction kernel here also exists in a *blocked* form that may fan
// out across a ThreadPool. The blocked kernels follow one determinism rule:
// block boundaries are fixed (kKernelBlock entries, independent of the pool
// or thread count), each block's partial is accumulated left-to-right, and
// the partials are combined in block-index order. The floating-point result
// is therefore a pure function of the inputs — a null pool, a 1-thread pool
// and an N-thread pool all produce the same bits — and for inputs of at most
// kKernelBlock entries it equals the plain sequential loop exactly.
#pragma once

#include <cstddef>
#include <vector>

namespace dls {

class ThreadPool;

using Vec = std::vector<double>;

/// Fixed block length of the deterministic blocked reductions. Chosen large
/// enough that per-block scheduling overhead is negligible and small enough
/// that a million-node vector still exposes hundreds of blocks of
/// parallelism.
inline constexpr std::size_t kKernelBlock = 4096;

double dot(const Vec& a, const Vec& b);
double norm2(const Vec& a);
/// y += alpha * x
void axpy(double alpha, const Vec& x, Vec& y);
/// a *= s
void scale(Vec& a, double s);
Vec add(const Vec& a, const Vec& b);
Vec sub(const Vec& a, const Vec& b);

/// r = a - b written into caller storage (r is resized; its capacity is
/// reused, so steady-state callers allocate nothing).
void sub_into(const Vec& a, const Vec& b, Vec& r);

// --- Fused kernels (docs/KERNELS.md) --------------------------------------
//
// Each fused kernel is bit-identical to the two-pass composition it replaces:
// per element the update lands before the reduction reads it, and every
// accumulator folds the same values in the same order as the unfused pair.

/// Fused axpy + self-dot: y += alpha·x, returns Σ y_i² over the *updated* y.
/// Bit-identical to axpy(alpha, x, y) followed by dot(y, y) — the CG residual
/// update + convergence check in one pass.
double axpy_dot(double alpha, const Vec& x, Vec& y);

/// y = x + beta·y — the CG search-direction update p = z + βp, in place.
void xpay(const Vec& x, double beta, Vec& y);

/// Subtract the mean, projecting onto the space orthogonal to 1 (the
/// Laplacian's range for a connected graph).
void project_mean_zero(Vec& a);

// --- Deterministic blocked kernels (thread-count-invariant fp results) ----

/// Σ a_i b_i over fixed blocks, partials combined in block order. With
/// `pool == nullptr` the blocks run serially; either way the bits match.
double blocked_dot(const Vec& a, const Vec& b, ThreadPool* pool = nullptr);
/// Range variant for sub-vectors (used by the Cholesky substitution rows).
double blocked_dot_range(const double* a, const double* b, std::size_t n,
                         ThreadPool* pool = nullptr);
double blocked_sum(const Vec& a, ThreadPool* pool = nullptr);
double blocked_norm2(const Vec& a, ThreadPool* pool = nullptr);
/// Element-wise kernels: each block writes only its own entries, so the
/// result is trivially thread-count-invariant.
void blocked_axpy(double alpha, const Vec& x, Vec& y, ThreadPool* pool = nullptr);
void blocked_scale(Vec& a, double s, ThreadPool* pool = nullptr);
Vec blocked_sub(const Vec& a, const Vec& b, ThreadPool* pool = nullptr);
/// Allocation-free blocked_sub: writes into `r` (resized, capacity reused).
void blocked_sub_into(const Vec& a, const Vec& b, Vec& r,
                      ThreadPool* pool = nullptr);
/// Fused blocked axpy + self-dot: bit-identical to blocked_axpy followed by
/// blocked_dot(y, y) for every pool (same blocks, same per-block order, same
/// ordered combine).
double blocked_axpy_dot(double alpha, const Vec& x, Vec& y,
                        ThreadPool* pool = nullptr);
/// Blocked y = x + beta·y; element-wise, trivially thread-count-invariant.
void blocked_xpay(const Vec& x, double beta, Vec& y,
                  ThreadPool* pool = nullptr);
/// project_mean_zero with a blocked mean reduction + blocked subtraction.
void project_mean_zero(Vec& a, ThreadPool* pool);

}  // namespace dls
