#include "linalg/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dls {

namespace {

std::size_t default_max_iters(std::size_t n, const SolveOptions& options) {
  return options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;
}

/// Non-finite right-hand side: nothing downstream can repair it, so fail
/// typed immediately (the incident is already on `wd`'s report).
SolveResult poisoned_input(std::size_t n, NumericalWatchdog& wd) {
  SolveResult result;
  result.x.assign(n, 0.0);
  result.residual_norm = std::numeric_limits<double>::infinity();
  result.watchdog = wd.report();
  return result;
}

/// One iterative-refinement pass: recompute the *true* residual (not the
/// recurrence-accumulated one, which the anomaly may have poisoned), solve
/// the correction with the watchdog off (no recursive refinement), and fold
/// it back in. Applied only when a signal fired during the main loop — the
/// steady state never reaches this, so its allocations are acceptable.
template <typename Solver>
void refine_on_anomaly(const InplaceOperator& op, const Vec& rhs,
                       double b_norm, const SolveOptions& options,
                       NumericalWatchdog& wd, SolveResult& result,
                       Solver solver) {
  if (!options.watchdog.enabled || !options.watchdog.refine_on_anomaly ||
      !wd.triggered() || !all_finite(result.x)) {
    return;
  }
  Vec ax;
  op(result.x, ax);
  project_mean_zero(ax);
  if (!all_finite(ax)) return;
  const Vec res = sub(rhs, ax);
  SolveOptions refine_options = options;
  refine_options.watchdog.enabled = false;
  refine_options.max_iterations =
      std::max<std::size_t>(result.iterations, 16);
  const SolveResult correction = solver(op, res, refine_options);
  if (!all_finite(correction.x)) return;
  axpy(1.0, correction.x, result.x);
  wd.note_refinement();
  op(result.x, ax);
  project_mean_zero(ax);
  result.residual_norm = norm2(sub(rhs, ax)) / b_norm;
  result.converged = result.residual_norm <= options.tolerance;
}

}  // namespace

SolveResult conjugate_gradient(const InplaceOperator& op, const Vec& b,
                               const SolveOptions& options,
                               SolveWorkspace& ws) {
  SolveResult result;
  const std::size_t n = b.size();
  NumericalWatchdog wd(options.watchdog);
  WorkspaceLease rhs_l = ws.acquire_scratch(n);
  Vec& rhs = *rhs_l;
  rhs = b;
  project_mean_zero(rhs);
  if (wd.check_vector(rhs, 0) != WatchdogSignal::kNone) {
    return poisoned_input(n, wd);
  }
  const double b_norm = norm2(rhs);
  result.x.assign(n, 0.0);
  if (b_norm == 0.0) {
    result.converged = true;
    return result;
  }
  WorkspaceLease r_l = ws.acquire_scratch(n);
  WorkspaceLease p_l = ws.acquire_scratch(n);
  WorkspaceLease ap_l = ws.acquire_scratch(n);
  Vec& r = *r_l;
  Vec& p = *p_l;
  Vec& ap = *ap_l;
  r = rhs;
  p = r;
  double rr = dot(r, r);
  // Remediation: drop the (possibly poisoned) Krylov state and restart the
  // recurrence from the current iterate — or from zero if the iterate itself
  // went non-finite.
  const auto hard_restart = [&]() {
    if (!all_finite(result.x)) result.x.assign(n, 0.0);
    op(result.x, ap);
    project_mean_zero(ap);
    if (!all_finite(ap)) {
      result.x.assign(n, 0.0);
      ap.assign(n, 0.0);
    }
    sub_into(rhs, ap, r);
    p = r;
    rr = dot(r, r);
    wd.reset_residual_tracking();
  };
  const std::size_t max_iters = default_max_iters(n, options);
  for (std::size_t it = 0; it < max_iters; ++it) {
    op(p, ap);
    project_mean_zero(ap);
    if (wd.check_vector(ap, it) != WatchdogSignal::kNone) {
      if (!wd.allow_restart()) break;
      hard_restart();
      continue;
    }
    const double pap = dot(p, ap);
    if (wd.check_scalar(pap, it) != WatchdogSignal::kNone) {
      if (!wd.allow_restart()) break;
      hard_restart();
      continue;
    }
    if (pap <= 0.0) break;  // operator not PD on this subspace — stop cleanly
    const double alpha = rr / pap;
    axpy(alpha, p, result.x);
    const double rr_new = axpy_dot(-alpha, ap, r);
    result.iterations = it + 1;
    if (std::sqrt(rr_new) <= options.tolerance * b_norm) {
      result.converged = true;
      rr = rr_new;
      break;
    }
    const WatchdogSignal signal =
        wd.observe_residual(std::sqrt(rr_new) / b_norm, it);
    if (signal != WatchdogSignal::kNone) {
      if (!wd.allow_restart()) break;
      hard_restart();
      continue;
    }
    const double beta = rr_new / rr;
    rr = rr_new;
    xpay(r, beta, p);
  }
  result.residual_norm = std::sqrt(std::max(rr, 0.0)) / b_norm;
  refine_on_anomaly(op, rhs, b_norm, options, wd, result,
                    [&ws](const InplaceOperator& o, const Vec& rhs2,
                          const SolveOptions& opts) {
                      return conjugate_gradient(o, rhs2, opts, ws);
                    });
  result.watchdog = wd.report();
  return result;
}

SolveResult solve_laplacian_cg(const LaplacianCsr& csr, const Vec& b,
                               const SolveOptions& options,
                               SolveWorkspace& ws) {
  return conjugate_gradient(
      [&csr](const Vec& x, Vec& y) { csr.apply(x, y); }, b, options, ws);
}

SolveResult preconditioned_cg(const InplaceOperator& op,
                              const InplaceOperator& precond, const Vec& b,
                              const SolveOptions& options,
                              SolveWorkspace& ws) {
  SolveResult result;
  const std::size_t n = b.size();
  NumericalWatchdog wd(options.watchdog);
  WorkspaceLease rhs_l = ws.acquire_scratch(n);
  Vec& rhs = *rhs_l;
  rhs = b;
  project_mean_zero(rhs);
  if (wd.check_vector(rhs, 0) != WatchdogSignal::kNone) {
    return poisoned_input(n, wd);
  }
  const double b_norm = norm2(rhs);
  result.x.assign(n, 0.0);
  if (b_norm == 0.0) {
    result.converged = true;
    return result;
  }
  WorkspaceLease r_l = ws.acquire_scratch(n);
  WorkspaceLease z_l = ws.acquire_scratch(n);
  WorkspaceLease p_l = ws.acquire_scratch(n);
  WorkspaceLease ap_l = ws.acquire_scratch(n);
  Vec& r = *r_l;
  Vec& z = *z_l;
  Vec& p = *p_l;
  Vec& ap = *ap_l;
  r = rhs;
  precond(r, z);
  project_mean_zero(z);
  p = z;
  double rz = dot(r, z);
  // Remediation: recompute the true residual, re-precondition, and reset the
  // search direction to steepest descent in the preconditioned metric.
  const auto hard_restart = [&]() {
    if (!all_finite(result.x)) result.x.assign(n, 0.0);
    op(result.x, ap);
    project_mean_zero(ap);
    if (!all_finite(ap)) {
      result.x.assign(n, 0.0);
      ap.assign(n, 0.0);
    }
    sub_into(rhs, ap, r);
    precond(r, z);
    project_mean_zero(z);
    if (!all_finite(z)) z = r;  // preconditioner itself is sick — drop it
    p = z;
    rz = dot(r, z);
    wd.reset_residual_tracking();
  };
  const std::size_t max_iters = default_max_iters(n, options);
  for (std::size_t it = 0; it < max_iters; ++it) {
    op(p, ap);
    project_mean_zero(ap);
    if (wd.check_vector(ap, it) != WatchdogSignal::kNone) {
      if (!wd.allow_restart()) break;
      hard_restart();
      continue;
    }
    const double pap = dot(p, ap);
    if (wd.check_scalar(pap, it) != WatchdogSignal::kNone) {
      if (!wd.allow_restart()) break;
      hard_restart();
      continue;
    }
    if (pap <= 0.0) break;
    const double alpha = rz / pap;
    axpy(alpha, p, result.x);
    const double r_norm = std::sqrt(axpy_dot(-alpha, ap, r));
    result.iterations = it + 1;
    if (r_norm <= options.tolerance * b_norm) {
      result.converged = true;
      break;
    }
    const WatchdogSignal residual_signal =
        wd.observe_residual(r_norm / b_norm, it);
    if (residual_signal != WatchdogSignal::kNone) {
      if (!wd.allow_restart()) break;
      hard_restart();
      continue;
    }
    precond(r, z);
    project_mean_zero(z);
    if (wd.check_vector(z, it) != WatchdogSignal::kNone) {
      if (!wd.allow_restart()) break;
      hard_restart();
      continue;
    }
    const double rz_new = dot(r, z);
    if (rz == 0.0) break;
    const double beta = rz_new / rz;
    if (wd.observe_beta(beta, it) != WatchdogSignal::kNone) {
      if (!wd.allow_restart()) break;
      hard_restart();
      continue;
    }
    rz = rz_new;
    xpay(z, beta, p);
  }
  result.residual_norm = norm2(r) / b_norm;
  refine_on_anomaly(op, rhs, b_norm, options, wd, result,
                    [&precond, &ws](const InplaceOperator& o, const Vec& rhs2,
                                    const SolveOptions& opts) {
                      return preconditioned_cg(o, precond, rhs2, opts, ws);
                    });
  result.watchdog = wd.report();
  return result;
}

// --- Return-by-value adapters -----------------------------------------------

namespace {

InplaceOperator adapt(const LinearOperator& op) {
  return [&op](const Vec& x, Vec& y) { y = op(x); };
}

}  // namespace

SolveResult conjugate_gradient(const LinearOperator& op, const Vec& b,
                               const SolveOptions& options) {
  SolveWorkspace ws;
  return conjugate_gradient(adapt(op), b, options, ws);
}

SolveResult solve_laplacian_cg(const Graph& g, const Vec& b,
                               const SolveOptions& options) {
  LaplacianCsr csr(g);
  SolveWorkspace ws;
  return solve_laplacian_cg(csr, b, options, ws);
}

SolveResult preconditioned_cg(const LinearOperator& op,
                              const LinearOperator& precond, const Vec& b,
                              const SolveOptions& options) {
  SolveWorkspace ws;
  return preconditioned_cg(adapt(op), adapt(precond), b, options, ws);
}

}  // namespace dls
