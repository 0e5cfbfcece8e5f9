// The Solver interface every algorithm family plugs into the experiment
// engine through. A solver owns one whole trial — interpret the scenario's
// parameters, generate an instance, run the algorithm, report metrics — so
// the registry and sweep runner stay agnostic of problem domains.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/scenario.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace ps::engine {

/// Metrics of one independent trial. `objective` is the solver's primary
/// quantity (value captured, energy cost, success indicator, ...);
/// `reference` is the comparator for ratio reporting (offline optimum,
/// utility upper bound, ...) with 0 meaning "no reference available";
/// `cost` is the secondary resource reading (energy/budget spent) where the
/// objective is a value, and `oracle_calls` is the paper's complexity
/// currency.
///
/// Beyond the four core readings, a trial can report any number of *named*
/// metrics (evals saved, frontier points, gap counts, 0/1 indicators, ...).
/// Each named metric gets its own streaming accumulator in the aggregated
/// ScenarioResult, and the emission layer writes the union of metric columns
/// across scenarios deterministically. A metric absent from some trials is
/// fine — its accumulator simply has a smaller count (useful for
/// conditional readings like "min value given all k were hired").
struct TrialResult {
  double objective = 0.0;
  double reference = 0.0;
  double cost = 0.0;
  double oracle_calls = 0.0;
  bool feasible = true;
  /// Named metrics in emission order; names are unique within one trial.
  std::vector<std::pair<std::string, double>> metrics;

  /// Appends (or overwrites, if `name` was already set) a named metric.
  void set_metric(const std::string& name, double value) {
    for (auto& [existing, slot] : metrics) {
      if (existing == name) {
        slot = value;
        return;
      }
    }
    metrics.emplace_back(name, value);
  }

  /// Pointer to the metric's value, or nullptr when the trial did not
  /// report it.
  const double* metric(const std::string& name) const {
    for (const auto& [existing, value] : metrics) {
      if (existing == name) return &value;
    }
    return nullptr;
  }
};

/// One registered algorithm adapter. Implementations must be safe to call
/// concurrently from multiple threads (the sweep runner fans trials across
/// a pool); all trial-local state lives on the stack or behind the RNGs.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Runs one independent trial. `instance_rng` is derived from the
  /// parameters only — every solver swept over the same parameters and
  /// trial index draws the identical instance from it. `algo_rng` is salted
  /// with the solver name and feeds the algorithm's own coins.
  virtual TrialResult run_trial(const ParamMap& params,
                                util::Rng& instance_rng,
                                util::Rng& algo_rng) const = 0;

  /// Usage error for parameters no trial can run with (an exhaustive
  /// reference too large to enumerate, ...). The front ends that take
  /// parameters from outside — Session for ad-hoc sweeps, SolveService for
  /// generator requests — ask before running a scenario, so run_trial may
  /// treat these as preconditions.
  virtual Status check_params(const ParamMap& params) const {
    (void)params;
    return Status();
  }
};

/// Adapter for registering a plain function (the common case).
class FunctionSolver final : public Solver {
 public:
  using TrialFn =
      std::function<TrialResult(const ParamMap&, util::Rng&, util::Rng&)>;
  using CheckFn = std::function<Status(const ParamMap&)>;

  explicit FunctionSolver(TrialFn fn, CheckFn check = nullptr)
      : fn_(std::move(fn)), check_(std::move(check)) {}

  TrialResult run_trial(const ParamMap& params, util::Rng& instance_rng,
                        util::Rng& algo_rng) const override {
    return fn_(params, instance_rng, algo_rng);
  }

  Status check_params(const ParamMap& params) const override {
    return check_ ? check_(params) : Status();
  }

 private:
  TrialFn fn_;
  CheckFn check_;
};

}  // namespace ps::engine
