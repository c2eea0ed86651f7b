// Quickstart: solve a Laplacian system on a 16×16 grid network with the
// shortcut-based distributed solver (Theorem 2) and print what it cost.
//
//   ./quickstart [--rows 16] [--cols 16] [--eps 1e-8] [--seed 7]
#include <iostream>

#include "graph/generators.hpp"
#include "laplacian/recursive_solver.hpp"
#include "linalg/solvers.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace dls;
  const Flags flags(argc, argv, {"rows", "cols", "eps", "seed"});
  const std::size_t rows = static_cast<std::size_t>(flags.get_int("rows", 16));
  const std::size_t cols = static_cast<std::size_t>(flags.get_int("cols", 16));
  const double eps = flags.get_double("eps", 1e-8);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 7)));

  // 1. The communication network doubles as the system matrix: L(grid).
  const Graph g = make_grid(rows, cols);
  std::cout << "network: " << g.describe() << "\n";

  // 2. A right-hand side in range(L): inject current at one corner, extract
  //    at the opposite corner.
  Vec b(g.num_nodes(), 0.0);
  b.front() = 1.0;
  b.back() = -1.0;

  // 3. Pick the model: the shortcut PA oracle = (Supported-)CONGEST.
  ShortcutPaOracle oracle(g, rng);
  LaplacianSolverOptions options;
  options.tolerance = eps;
  DistributedLaplacianSolver solver(oracle, rng, options);

  // 4. Solve and report.
  const LaplacianSolveReport report = solver.solve(b);
  std::cout << "converged:          " << (report.converged ? "yes" : "no") << "\n"
            << "relative residual:  " << report.relative_residual << "\n"
            << "outer iterations:   " << report.outer_iterations << "\n"
            << "PA oracle calls:    " << report.pa_calls << "\n"
            << "CONGEST rounds:     " << report.local_rounds << "\n"
            << "chain levels:       " << solver.num_levels() << "\n";

  // 5. Cross-check against a sequential CG reference.
  SolveOptions ref_options;
  ref_options.tolerance = 1e-12;
  const SolveResult ref = solve_laplacian_cg(g, b, ref_options);
  std::cout << "vs sequential CG (L-norm error): "
            << relative_error_in_l_norm(g, report.x, ref.x) << "\n";
  return report.converged ? 0 : 1;
}
