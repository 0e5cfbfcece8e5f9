#include "engine/registry.hpp"

namespace ps::engine {

void SolverRegistry::add(const std::string& name,
                         std::unique_ptr<Solver> solver) {
  solvers_[name] = std::move(solver);
}

void SolverRegistry::add_fn(const std::string& name,
                            FunctionSolver::TrialFn fn,
                            FunctionSolver::CheckFn check) {
  add(name,
      std::make_unique<FunctionSolver>(std::move(fn), std::move(check)));
}

const Solver* SolverRegistry::find(const std::string& name) const {
  const auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const auto& [name, solver] : solvers_) out.push_back(name);
  return out;
}

std::string SolverRegistry::names_joined() const {
  std::string out;
  for (const auto& [name, solver] : solvers_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

SolverRegistry SolverRegistry::with_builtins() {
  SolverRegistry registry;
  register_builtin_solvers(registry);
  return registry;
}

}  // namespace ps::engine
