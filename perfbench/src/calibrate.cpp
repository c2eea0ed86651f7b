#include "calibrate.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <ctime>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSide = 48;
constexpr std::size_t kCgIterations = 60;
constexpr std::size_t kMapEntries = std::size_t{1} << 13;
constexpr std::size_t kLabels = 4096;

/// Unit-weight 5-point grid Laplacian in CSR form (off-diagonals only; the
/// diagonal is the row length).
struct GridCsr {
  std::vector<std::uint32_t> row_ptr{0};
  std::vector<std::uint32_t> col;

  GridCsr() {
    for (std::size_t i = 0; i < kSide; ++i) {
      for (std::size_t j = 0; j < kSide; ++j) {
        const std::size_t v = i * kSide + j;
        if (i > 0) col.push_back(static_cast<std::uint32_t>(v - kSide));
        if (j > 0) col.push_back(static_cast<std::uint32_t>(v - 1));
        if (j + 1 < kSide) col.push_back(static_cast<std::uint32_t>(v + 1));
        if (i + 1 < kSide) col.push_back(static_cast<std::uint32_t>(v + kSide));
        row_ptr.push_back(static_cast<std::uint32_t>(col.size()));
      }
    }
  }

  void apply(const std::vector<double>& x, std::vector<double>& y) const {
    for (std::size_t v = 0; v + 1 < row_ptr.size(); ++v) {
      double acc = static_cast<double>(row_ptr[v + 1] - row_ptr[v]) * x[v];
      for (std::uint32_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
        acc -= x[col[k]];
      }
      y[v] = acc;
    }
  }
};

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// Fixed-count CG on a mean-zero right-hand side; returns ‖r‖² so the work
/// cannot be optimised away.
double cg_sweeps(const GridCsr& csr) {
  const std::size_t n = kSide * kSide;
  std::vector<double> x(n, 0.0), r(n), p(n), ap(n);
  for (std::size_t v = 0; v < n; ++v) {
    r[v] = static_cast<double>(v % 7) - 3.0;
  }
  p = r;
  double rr = dot(r, r);
  for (std::size_t it = 0; it < kCgIterations && rr > 0.0; ++it) {
    csr.apply(p, ap);
    const double alpha = rr / dot(p, ap);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double next = dot(r, r);
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + (next / rr) * p[i];
    rr = next;
  }
  return rr + x[0];
}

/// Inserts and looks up splitmix-scattered keys.
std::uint64_t map_churn() {
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kMapEntries; ++i) {
    map.emplace(derive_seed(0xca11, i), i);
  }
  for (std::size_t i = 0; i < kMapEntries; ++i) {
    sum += map.find(derive_seed(0xca11, i))->second;
  }
  return sum;
}

/// Appends heap-allocated labels, as a round ledger does per charge.
std::size_t label_appends() {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < kLabels; ++i) {
    labels.emplace_back("calibrate/label-");
    labels.back().push_back(static_cast<char>('a' + i % 26));
  }
  return labels.size() + labels.back().size();
}

/// On-CPU seconds of the calling thread: a sample the scheduler interrupted
/// still reads the host's speed.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One kernel run, about 2.5 ms at nominal speed.
double calibration_kernel_s() {
  static const GridCsr csr;
  volatile double sink = 0.0;
  const double t0 = thread_cpu_seconds();
  sink = sink + cg_sweeps(csr);
  sink = sink + static_cast<double>(map_churn());
  sink = sink + static_cast<double>(label_appends());
  return thread_cpu_seconds() - t0;
}

/// Median of five kernel runs on the calling thread.
double one_thread_sample_s() {
  std::array<double, 5> runs{};
  for (double& r : runs) r = calibration_kernel_s();
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

}  // namespace

double calibration_sample_s(std::size_t threads) {
  if (threads <= 1) return one_thread_sample_s();
  std::vector<double> samples(threads, 0.0);
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < threads; ++i) {
    workers.emplace_back([&samples, i] { samples[i] = one_thread_sample_s(); });
  }
  for (std::thread& w : workers) w.join();
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(threads);
}

double HostSpeed::mark() {
  const double now = calibration_sample_s();
  const double mean = samples_.empty() ? now : 0.5 * (samples_.back() + now);
  samples_.push_back(now);
  return mean;
}

}  // namespace perfbench
