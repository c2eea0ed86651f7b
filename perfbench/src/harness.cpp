#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "linalg/solvers.hpp"

namespace perfbench {

double Samples::sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::string Samples::describe(const std::string& unit) const {
  std::ostringstream out;
  out.precision(6);
  out << "median " << median() << " " << unit;
  // The highest percentile with at least ten samples beyond it.
  for (const int p : {99, 95, 90, 75}) {
    const double beyond =
        static_cast<double>(values_.size()) * (100 - p) / 100.0;
    if (beyond >= 10.0) {
      out << ", p" << p << " " << quantile(p / 100.0) << " " << unit;
      break;
    }
  }
  out << " (n=" << values_.size() << ")";
  return out.str();
}

void MetricSink::set(const std::string& name, double value,
                     const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void MetricSink::scale_times(std::size_t from, double factor) {
  for (std::size_t i = from; i < entries_.size(); ++i) {
    if (entries_[i].unit == "s" || entries_[i].unit == "ns") {
      entries_[i].value *= factor;
    }
  }
}

void MetricSink::set_timing(const std::string& name, const Samples& s,
                            const std::string& unit) {
  set(name, s.median(), unit);
  note(name + ": " + s.describe(unit));
}

std::size_t WallSpans::open(std::string name) {
  const std::size_t parent = stack_.empty() ? kRoot : stack_.back();
  spans_.push_back({std::move(name), parent, seconds_since(origin_), 0.0});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void WallSpans::close(std::size_t id) {
  spans_[id].end = seconds_since(origin_);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double WallSpans::duration(std::size_t id) const {
  return spans_[id].end - spans_[id].start;
}

std::vector<std::string> WallSpans::render() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  std::vector<std::size_t> depth(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::size_t p = spans_[i].parent;
    if (p == kRoot) continue;
    child_time[p] += duration(i);
    depth[i] = depth[p] + 1;  // parents precede children
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-*s%-*s total %9.4f s  self %9.4f s",
                  static_cast<int>(2 * depth[i]), "",
                  static_cast<int>(44 - 2 * depth[i]), spans_[i].name.c_str(),
                  duration(i), duration(i) - child_time[i]);
    lines.emplace_back(buf);
  }
  return lines;
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t index) {
  std::uint64_t z = root + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Vec random_rhs(std::size_t n, dls::Rng& rng) {
  Vec b(n);
  for (double& v : b) v = rng.next_double() * 2.0 - 1.0;
  dls::project_mean_zero(b);
  return b;
}

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_kb("VmHWM") / 1024.0; }
double current_rss_mb() { return status_kb("VmRSS") / 1024.0; }

SolutionChecker::SolutionChecker(const Graph& g, double tolerance)
    : csr_(g), tolerance_(tolerance) {}

void SolutionChecker::refresh(const Graph& g) { csr_.refresh_weights(g); }

SolutionCheck SolutionChecker::check(const Vec& b, const Vec& x) {
  SolutionCheck out;
  rhs_ = b;
  dls::project_mean_zero(rhs_);
  const double b_norm = dls::norm2(rhs_);
  csr_.apply(x, lx_);
  dls::sub_into(rhs_, lx_, diff_);
  dls::project_mean_zero(diff_);
  out.residual = b_norm > 0 ? dls::norm2(diff_) / b_norm : 0.0;

  dls::SolveOptions reference;
  reference.tolerance = 1e-12;
  const dls::SolveResult ref = dls::solve_laplacian_cg(csr_, rhs_, reference, ws_);
  dls::sub_into(x, ref.x, diff_);
  dls::project_mean_zero(diff_);
  const double err2 = csr_.apply_dot(diff_, ldiff_);
  const double ref2 = csr_.apply_dot(ref.x, ldiff_);
  out.energy_error = ref2 > 0 ? std::sqrt(std::max(err2, 0.0) / ref2) : 0.0;

  worst_residual_ = std::max(worst_residual_, out.residual);
  worst_energy_ = std::max(worst_energy_, out.energy_error);
  // On the high-κ weighted grid CG can stagnate near 3e-12 and never reach
  // 1e-12; a reference far tighter than the solver's target still judges x.
  out.ok = ref.residual_norm <= kReferenceLimit &&
           std::isfinite(out.residual) && std::isfinite(out.energy_error) &&
           out.residual <= kResidualSlack * tolerance_ &&
           out.energy_error <= kEnergyLimit;
  return out;
}

}  // namespace perfbench
