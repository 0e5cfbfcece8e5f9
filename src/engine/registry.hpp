// String-keyed solver registry: the single place experiment drivers resolve
// algorithm names, so adding a workload to every bench/CLI is one
// registration instead of a new bespoke driver loop.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/solver.hpp"

namespace ps::engine {

/// Owns Solver instances under unique string keys ("family.variant").
class SolverRegistry {
 public:
  SolverRegistry() = default;
  SolverRegistry(SolverRegistry&&) = default;
  SolverRegistry& operator=(SolverRegistry&&) = default;

  /// Registers `solver` under `name`; replaces any previous registration.
  void add(const std::string& name, std::unique_ptr<Solver> solver);

  /// Convenience: register a plain trial function, with an optional
  /// parameter check (Solver::check_params).
  void add_fn(const std::string& name, FunctionSolver::TrialFn fn,
              FunctionSolver::CheckFn check = nullptr);

  /// The solver registered under `name`, or nullptr when unknown.
  const Solver* find(const std::string& name) const;
  bool contains(const std::string& name) const { return find(name) != nullptr; }
  std::size_t size() const { return solvers_.size(); }

  /// All registered names, sorted.
  std::vector<std::string> names() const;
  /// names() joined with ", " — for error messages listing valid keys.
  std::string names_joined() const;

  /// A registry preloaded with adapters for every algorithm family in the
  /// library (see builtin_solvers.cpp for the catalogue and their
  /// parameters).
  static SolverRegistry with_builtins();

 private:
  std::map<std::string, std::unique_ptr<Solver>> solvers_;
};

/// Registers the built-in adapters into `registry` (exposed separately so
/// callers can layer their own solvers on top or override a built-in).
void register_builtin_solvers(SolverRegistry& registry);

/// Registers the bench-derived adapter families (ablation.*, core.bicriteria,
/// setcover.*, prize.*, dp.*, frontier.*, hiring.*, the extended secretary
/// variants, micro.*). Called by register_builtin_solvers; exposed for
/// callers that want only these on top of a custom base registry.
void register_bench_solvers(SolverRegistry& registry);

}  // namespace ps::engine
