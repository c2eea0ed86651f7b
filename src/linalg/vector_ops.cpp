#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace dls {

double dot(const Vec& a, const Vec& b) {
  DLS_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, const Vec& x, Vec& y) {
  DLS_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(Vec& a, double s) {
  for (double& v : a) v *= s;
}

Vec add(const Vec& a, const Vec& b) {
  DLS_REQUIRE(a.size() == b.size(), "add: size mismatch");
  Vec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] + b[i];
  return r;
}

Vec sub(const Vec& a, const Vec& b) {
  DLS_REQUIRE(a.size() == b.size(), "sub: size mismatch");
  Vec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

void sub_into(const Vec& a, const Vec& b, Vec& r) {
  DLS_REQUIRE(a.size() == b.size(), "sub_into: size mismatch");
  r.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
}

double axpy_dot(double alpha, const Vec& x, Vec& y) {
  DLS_REQUIRE(x.size() == y.size(), "axpy_dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
    sum += y[i] * y[i];
  }
  return sum;
}

void xpay(const Vec& x, double beta, Vec& y) {
  DLS_REQUIRE(x.size() == y.size(), "xpay: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] + beta * y[i];
}

void project_mean_zero(Vec& a) {
  if (a.empty()) return;
  double mean = 0.0;
  for (double v : a) mean += v;
  mean /= static_cast<double>(a.size());
  for (double& v : a) v -= mean;
}

namespace {

inline std::size_t num_blocks(std::size_t n) {
  return n == 0 ? 0 : (n - 1) / kKernelBlock + 1;
}

/// Runs body(block) for every fixed-size block. A single block (or a null
/// pool) runs inline — there is nothing to fan out and the parallel_for setup
/// cost would dominate.
void for_each_block(std::size_t n, ThreadPool* pool,
                    const std::function<void(std::size_t)>& body) {
  const std::size_t blocks = num_blocks(n);
  if (blocks <= 1 || pool == nullptr) {
    for (std::size_t b = 0; b < blocks; ++b) body(b);
    return;
  }
  pool->parallel_for(blocks, body);
}

/// Blocked reduction skeleton: per-block left-to-right partials, combined in
/// block-index order. The combine is serial regardless of the pool, which is
/// exactly what makes the result thread-count-invariant.
template <typename PerBlock>
double blocked_reduce(std::size_t n, ThreadPool* pool, PerBlock per_block) {
  const std::size_t blocks = num_blocks(n);
  if (blocks <= 1) return blocks == 0 ? 0.0 : per_block(0, n);
  std::vector<double> partials(blocks, 0.0);
  for_each_block(n, pool, [&](std::size_t b) {
    const std::size_t lo = b * kKernelBlock;
    const std::size_t hi = std::min(n, lo + kKernelBlock);
    partials[b] = per_block(lo, hi - lo);
  });
  double sum = 0.0;
  for (double p : partials) sum += p;  // ordered combine
  return sum;
}

}  // namespace

double blocked_dot_range(const double* a, const double* b, std::size_t n,
                         ThreadPool* pool) {
  return blocked_reduce(n, pool, [&](std::size_t lo, std::size_t len) {
    double sum = 0.0;
    for (std::size_t i = 0; i < len; ++i) sum += a[lo + i] * b[lo + i];
    return sum;
  });
}

double blocked_dot(const Vec& a, const Vec& b, ThreadPool* pool) {
  DLS_REQUIRE(a.size() == b.size(), "blocked_dot: size mismatch");
  return blocked_dot_range(a.data(), b.data(), a.size(), pool);
}

double blocked_sum(const Vec& a, ThreadPool* pool) {
  return blocked_reduce(a.size(), pool, [&](std::size_t lo, std::size_t len) {
    double sum = 0.0;
    for (std::size_t i = 0; i < len; ++i) sum += a[lo + i];
    return sum;
  });
}

double blocked_norm2(const Vec& a, ThreadPool* pool) {
  return std::sqrt(blocked_dot(a, a, pool));
}

void blocked_axpy(double alpha, const Vec& x, Vec& y, ThreadPool* pool) {
  DLS_REQUIRE(x.size() == y.size(), "blocked_axpy: size mismatch");
  for_each_block(x.size(), pool, [&](std::size_t b) {
    const std::size_t lo = b * kKernelBlock;
    const std::size_t hi = std::min(x.size(), lo + kKernelBlock);
    for (std::size_t i = lo; i < hi; ++i) y[i] += alpha * x[i];
  });
}

void blocked_scale(Vec& a, double s, ThreadPool* pool) {
  for_each_block(a.size(), pool, [&](std::size_t b) {
    const std::size_t lo = b * kKernelBlock;
    const std::size_t hi = std::min(a.size(), lo + kKernelBlock);
    for (std::size_t i = lo; i < hi; ++i) a[i] *= s;
  });
}

Vec blocked_sub(const Vec& a, const Vec& b, ThreadPool* pool) {
  DLS_REQUIRE(a.size() == b.size(), "blocked_sub: size mismatch");
  Vec r(a.size());
  for_each_block(a.size(), pool, [&](std::size_t blk) {
    const std::size_t lo = blk * kKernelBlock;
    const std::size_t hi = std::min(a.size(), lo + kKernelBlock);
    for (std::size_t i = lo; i < hi; ++i) r[i] = a[i] - b[i];
  });
  return r;
}

void blocked_sub_into(const Vec& a, const Vec& b, Vec& r, ThreadPool* pool) {
  DLS_REQUIRE(a.size() == b.size(), "blocked_sub_into: size mismatch");
  r.resize(a.size());
  for_each_block(a.size(), pool, [&](std::size_t blk) {
    const std::size_t lo = blk * kKernelBlock;
    const std::size_t hi = std::min(a.size(), lo + kKernelBlock);
    for (std::size_t i = lo; i < hi; ++i) r[i] = a[i] - b[i];
  });
}

double blocked_axpy_dot(double alpha, const Vec& x, Vec& y, ThreadPool* pool) {
  DLS_REQUIRE(x.size() == y.size(), "blocked_axpy_dot: size mismatch");
  return blocked_reduce(x.size(), pool, [&](std::size_t lo, std::size_t len) {
    double sum = 0.0;
    for (std::size_t i = lo; i < lo + len; ++i) {
      y[i] += alpha * x[i];
      sum += y[i] * y[i];
    }
    return sum;
  });
}

void blocked_xpay(const Vec& x, double beta, Vec& y, ThreadPool* pool) {
  DLS_REQUIRE(x.size() == y.size(), "blocked_xpay: size mismatch");
  for_each_block(x.size(), pool, [&](std::size_t b) {
    const std::size_t lo = b * kKernelBlock;
    const std::size_t hi = std::min(x.size(), lo + kKernelBlock);
    for (std::size_t i = lo; i < hi; ++i) y[i] = x[i] + beta * y[i];
  });
}

void project_mean_zero(Vec& a, ThreadPool* pool) {
  if (a.empty()) return;
  const double mean = blocked_sum(a, pool) / static_cast<double>(a.size());
  for_each_block(a.size(), pool, [&](std::size_t b) {
    const std::size_t lo = b * kKernelBlock;
    const std::size_t hi = std::min(a.size(), lo + kKernelBlock);
    for (std::size_t i = lo; i < hi; ++i) a[i] -= mean;
  });
}

}  // namespace dls
