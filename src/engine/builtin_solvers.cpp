// The built-in solver catalogue: one adapter per algorithm family, each
// owning the whole trial (generate instance from the parameter bag, run the
// algorithm, report metrics). Registered names, grouped by family:
//
//   submodular.greedy / .lazy / .stochastic
//       Cardinality-constrained maximization over a random weighted
//       coverage function. Params: items, elements, cover, max_weight, k,
//       epsilon (stochastic only). reference = total element weight.
//
//   core.setcover
//       Greedy Set Cover via the Lemma 2.1.2 framework. Params: elements,
//       sets, set_size. reference = exact minimum (brute force) when
//       sets <= 16, else 0.
//
//   core.budgeted
//       maximize_with_budget over singleton candidates with random costs
//       against a coverage utility. Params: items, elements, cover,
//       target_frac, lazy. objective/cost = greedy cost to reach the
//       utility target.
//
//   secretary.classic
//       Dynkin's 1/e rule; objective is the 0/1 "hired the best" indicator
//       (mean = success probability), reference = 1. Params: n,
//       observe_frac (0 selects the optimal threshold).
//
//   secretary.submodular / secretary.knapsack
//       Section 3.2 / 3.4 online algorithms over random coverage utilities;
//       reference = the offline greedy comparator on the same instance.
//
//   power.greedy / power.always_on / power.per_job
//       The Theorem 2.2.1 scheduler and the two practical baselines on
//       random feasible instances under RestartCostModel. Params: jobs,
//       processors, horizon, windows, window_length, alpha (0 = draw
//       uniformly from [0.5, 3] per trial), vs_opt (1 = brute-force OPT as
//       reference; rejected unless processors * horizon <= 22). Sizes
//       below 1 and more jobs than processors * horizon are rejected.
//
//   budget.value
//       Dual budget scheduler: maximize value under an energy allowance.
//       Params: jobs, processors, horizon, windows, window_length,
//       min_value, max_value, alpha, budget. reference = total workload
//       value, cost = energy actually spent.
//
//   powerdown.break_even / .randomized / .eager / .never
//       Online power-down policies over a gap workload. Params: gaps,
//       alpha, dist (0 exponential with mean alpha, 1 short uniform,
//       2 long uniform, 3 adversarial gap = alpha+). reference = offline
//       optimum, so mean ratio is the empirical competitive ratio.
//
// All instance material is drawn from the instance RNG (shared across
// solvers per trial); only algorithm coins (stochastic sampling, the
// randomized power-down threshold, secretary coin flips) come from the
// algorithm RNG.
#include <cmath>
#include <memory>
#include <vector>

#include "core/budgeted_maximization.hpp"
#include "engine/registry.hpp"
#include "engine/reference_cache.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/budget_scheduler.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/generators.hpp"
#include "scheduling/power_scheduler.hpp"
#include "scheduling/powerdown.hpp"
#include "secretary/classic.hpp"
#include "secretary/knapsack_secretary.hpp"
#include "secretary/submodular_secretary.hpp"
#include "submodular/additive.hpp"
#include "submodular/coverage.hpp"
#include "submodular/facility_location.hpp"
#include "submodular/greedy.hpp"

namespace ps::engine {
namespace {

// ---------------------------------------------------------------------------
// submodular.*: offline cardinality-constrained maximization

submodular::CoverageFunction random_coverage(const ParamMap& params,
                                             util::Rng& rng,
                                             int default_items = 60) {
  return submodular::CoverageFunction::random(
      params.get_int("items", default_items), params.get_int("elements", 120),
      params.get_int("cover", 6), params.get("max_weight", 1.0), rng);
}

/// The Solver::check_params of a solver drawing random_coverage(params,
/// rng, default_items).
FunctionSolver::CheckFn check_coverage(int default_items = 60) {
  return [default_items](const ParamMap& params) {
    return check_coverage_generator(params.get_int("items", default_items),
                                    params.get_int("elements", 120),
                                    params.get_int("cover", 6));
  };
}

TrialResult from_greedy(const submodular::GreedyResult& result,
                        double reference) {
  TrialResult out;
  out.objective = result.value;
  out.reference = reference;
  out.cost = static_cast<double>(result.order.size());
  out.oracle_calls = static_cast<double>(result.oracle_calls);
  return out;
}

void register_submodular(SolverRegistry& registry) {
  registry.add_fn("submodular.greedy", [](const ParamMap& params,
                                          util::Rng& instance_rng,
                                          util::Rng&) {
    const auto f = random_coverage(params, instance_rng);
    return from_greedy(
        submodular::greedy_max_cardinality(f, params.get_int("k", 10)),
        f.total_weight());
  }, check_coverage());
  registry.add_fn("submodular.lazy", [](const ParamMap& params,
                                        util::Rng& instance_rng, util::Rng&) {
    const auto f = random_coverage(params, instance_rng);
    return from_greedy(
        submodular::lazy_greedy_max_cardinality(f, params.get_int("k", 10)),
        f.total_weight());
  }, check_coverage());
  registry.add_fn("submodular.stochastic", [](const ParamMap& params,
                                              util::Rng& instance_rng,
                                              util::Rng& algo_rng) {
    const auto f = random_coverage(params, instance_rng);
    return from_greedy(submodular::stochastic_greedy_max_cardinality(
                           f, params.get_int("k", 10),
                           params.get("epsilon", 0.1), algo_rng),
                       f.total_weight());
  }, check_coverage());
}

// ---------------------------------------------------------------------------
// core.*: the budgeted-maximization framework (Lemma 2.1.2)

void register_core(SolverRegistry& registry) {
  registry.add_fn("core.setcover", [](const ParamMap& params,
                                      util::Rng& instance_rng, util::Rng&) {
    const int num_sets = params.get_int("sets", 12);
    const auto instance = scheduling::random_set_cover(
        params.get_int("elements", 24), num_sets, params.get_int("set_size", 6),
        instance_rng);
    const auto result =
        core::solve_set_cover(instance.num_elements, instance.sets);
    TrialResult out;
    out.objective = result.cost;
    out.cost = result.cost;
    out.feasible = result.covered_all;
    if (num_sets <= 16) {
      const int exact = scheduling::exact_min_set_cover(instance);
      if (exact >= 0) out.reference = exact;
    }
    return out;
  });

  registry.add_fn("core.budgeted", [](const ParamMap& params,
                                      util::Rng& instance_rng, util::Rng&) {
    const auto f = random_coverage(params, instance_rng, /*default_items=*/40);
    std::vector<core::CandidateSet> candidates(
        static_cast<std::size_t>(f.ground_size()));
    for (int i = 0; i < f.ground_size(); ++i) {
      candidates[static_cast<std::size_t>(i)].items = {i};
      candidates[static_cast<std::size_t>(i)].cost =
          instance_rng.uniform_double(0.5, 2.0);
      candidates[static_cast<std::size_t>(i)].id = i;
    }
    core::BudgetedMaximizationOptions options;
    options.lazy = params.get_int("lazy", 1) != 0;
    const double target = params.get("target_frac", 0.8) * f.total_weight();
    const auto result = core::maximize_with_budget(f, candidates, target,
                                                   options);
    TrialResult out;
    out.objective = result.cost;
    out.cost = result.cost;
    out.oracle_calls = static_cast<double>(result.gain_evaluations);
    out.feasible = result.reached_target;
    return out;
  }, check_coverage(/*default_items=*/40));
}

// ---------------------------------------------------------------------------
// secretary.*: online algorithms over random arrival orders

void register_secretary(SolverRegistry& registry) {
  registry.add_fn("secretary.classic", [](const ParamMap& params,
                                          util::Rng& instance_rng,
                                          util::Rng&) {
    const int n = params.get_int("n", 100);
    const auto order = instance_rng.permutation(n);
    std::vector<double> values(order.begin(), order.end());
    const double frac = params.get("observe_frac", 0.0);
    const auto result =
        frac > 0.0 ? secretary::run_classic_secretary(
                         values, static_cast<int>(frac * n))
                   : secretary::run_classic_secretary(values);
    TrialResult out;
    out.objective = result.picked_best ? 1.0 : 0.0;
    out.reference = 1.0;
    return out;
  });

  // objective selects the function family (0 = weighted coverage,
  // 1 = facility location, 2 = additive) so one solver covers the E7
  // cross-objective comparison; reference = the offline lazy greedy (same
  // picks as plain greedy, far fewer oracle calls).
  registry.add_fn("secretary.submodular", [](const ParamMap& params,
                                             util::Rng& instance_rng,
                                             util::Rng&) {
    const int n = params.get_int("items", 40);
    const int k = params.get_int("k", 5);
    std::unique_ptr<submodular::SetFunction> f;
    switch (params.get_int("objective", 0)) {
      case 1:
        f = std::make_unique<submodular::FacilityLocationFunction>(
            submodular::FacilityLocationFunction::random(
                n, params.get_int("elements", 25),
                params.get("max_weight", 5.0), instance_rng));
        break;
      case 2: {
        std::vector<double> weights(static_cast<std::size_t>(n));
        for (double& w : weights) w = instance_rng.uniform_double(0.0, 10.0);
        f = std::make_unique<submodular::AdditiveFunction>(weights);
        break;
      }
      default: {
        ParamMap coverage_params = params;
        coverage_params.set("items", n);
        f = std::make_unique<submodular::CoverageFunction>(
            random_coverage(coverage_params, instance_rng));
        break;
      }
    }
    const auto order = instance_rng.permutation(n);
    const auto result = secretary::monotone_submodular_secretary(*f, k, order);
    TrialResult out;
    out.objective = result.value;
    out.reference = submodular::lazy_greedy_max_cardinality(*f, k).value;
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    return out;
  }, [](const ParamMap& params) {
    // Objectives 1 and 2 draw no coverage function.
    const int objective = params.get_int("objective", 0);
    if (objective == 1 || objective == 2) return Status();
    return check_coverage(/*default_items=*/40)(params);
  });

  registry.add_fn("secretary.knapsack", [](const ParamMap& params,
                                           util::Rng& instance_rng,
                                           util::Rng& algo_rng) {
    const int n = params.get_int("items", 40);
    ParamMap coverage_params = params;
    coverage_params.set("items", n);
    const auto f = random_coverage(coverage_params, instance_rng);
    std::vector<double> weights(static_cast<std::size_t>(n));
    for (double& w : weights) w = instance_rng.uniform_double(0.5, 1.5);
    const double capacity = params.get("capacity", 4.0);
    const auto order = instance_rng.permutation(n);
    const auto result = secretary::knapsack_submodular_secretary(
        f, weights, capacity, order, algo_rng);
    TrialResult out;
    out.objective = result.value;
    out.reference =
        secretary::offline_knapsack_greedy(f, weights, capacity).value;
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    return out;
  }, check_coverage(/*default_items=*/40));
}

// ---------------------------------------------------------------------------
// power.* / budget.value: the scheduling pipeline

scheduling::RandomInstanceParams instance_params(const ParamMap& params) {
  scheduling::RandomInstanceParams out;
  out.num_jobs = params.get_int("jobs", 8);
  out.num_processors = params.get_int("processors", 2);
  out.horizon = params.get_int("horizon", 12);
  out.windows_per_job = params.get_int("windows", 2);
  out.window_length = params.get_int("window_length", 3);
  out.min_value = params.get("min_value", 1.0);
  out.max_value = params.get("max_value", 1.0);
  return out;
}

/// alpha == 0 draws a fresh restart cost per trial, matching the randomized
/// cost models of the approximation-ratio experiments.
double resolve_alpha(const ParamMap& params, util::Rng& instance_rng) {
  const double alpha = params.get("alpha", 2.0);
  return alpha > 0.0 ? alpha : instance_rng.uniform_double(0.5, 3.0);
}

/// Shared trial shape of the three power schedulers: generate a feasible
/// instance, run `solve`, optionally price the brute-force optimum in as
/// the reference.
template <typename Solve>
TrialResult power_trial(const ParamMap& params, util::Rng& instance_rng,
                        const Solve& solve) {
  const auto instance =
      scheduling::random_feasible_instance(instance_params(params),
                                           instance_rng);
  const double alpha = resolve_alpha(params, instance_rng);
  const scheduling::RestartCostModel model(alpha);
  TrialResult out = solve(instance, model);
  out.cost = out.objective;
  if (params.get_int("vs_opt", 0) != 0) {
    const double opt_cost = power_opt_reference(instance, alpha);
    if (opt_cost >= 0.0) {
      out.reference = opt_cost;
      // Theorem 2.2.1's guarantee, alongside the measured ratio.
      out.set_metric("bound_2log2n",
                     2.0 * std::log2(params.get("jobs", 8.0) + 1.0));
    } else {
      out.feasible = false;
    }
  }
  return out;
}

/// The generator must be able to draw a feasible instance; vs_opt also
/// prices the brute-force optimum, so the slot grid must fit it.
Status check_power_params(const ParamMap& params) {
  const auto gen = instance_params(params);
  if (Status status = check_feasible_generator(gen); !status.ok()) {
    return status;
  }
  if (params.get_int("vs_opt", 0) == 0) return Status();
  return check_brute_force_grid("vs_opt", gen.num_processors, gen.horizon);
}

/// budget.value's generator: instance_params with its own defaults.
scheduling::RandomInstanceParams budget_instance_params(
    const ParamMap& params) {
  ParamMap generator_params = params;
  if (!params.has("jobs")) generator_params.set("jobs", 20);
  if (!params.has("processors")) generator_params.set("processors", 3);
  if (!params.has("horizon")) generator_params.set("horizon", 16);
  if (!params.has("max_value")) generator_params.set("max_value", 12.0);
  return instance_params(generator_params);
}

void register_scheduling(SolverRegistry& registry) {
  registry.add_fn("power.greedy", [](const ParamMap& params,
                                     util::Rng& instance_rng, util::Rng&) {
    return power_trial(params, instance_rng,
                       [](const scheduling::SchedulingInstance& instance,
                          const scheduling::CostModel& model) {
                         const auto result =
                             scheduling::schedule_all_jobs(instance, model);
                         TrialResult out;
                         out.objective = result.schedule.energy_cost;
                         out.feasible = result.feasible;
                         out.oracle_calls =
                             static_cast<double>(result.gain_evaluations);
                         return out;
                       });
  }, check_power_params);
  registry.add_fn("power.always_on", [](const ParamMap& params,
                                        util::Rng& instance_rng, util::Rng&) {
    return power_trial(params, instance_rng,
                       [](const scheduling::SchedulingInstance& instance,
                          const scheduling::CostModel& model) {
                         TrialResult out;
                         const auto schedule =
                             scheduling::schedule_always_on(instance, model);
                         out.feasible = schedule.has_value();
                         if (schedule) out.objective = schedule->energy_cost;
                         return out;
                       });
  }, check_power_params);
  registry.add_fn("power.per_job", [](const ParamMap& params,
                                      util::Rng& instance_rng, util::Rng&) {
    return power_trial(params, instance_rng,
                       [](const scheduling::SchedulingInstance& instance,
                          const scheduling::CostModel& model) {
                         TrialResult out;
                         const auto schedule =
                             scheduling::schedule_per_job_naive(instance,
                                                                model);
                         out.feasible = schedule.has_value();
                         if (schedule) out.objective = schedule->energy_cost;
                         return out;
                       });
  }, check_power_params);

  registry.add_fn("budget.value", [](const ParamMap& params,
                                     util::Rng& instance_rng, util::Rng&) {
    const auto instance = scheduling::random_instance(
        budget_instance_params(params), instance_rng);
    const scheduling::RestartCostModel model(
        resolve_alpha(params, instance_rng));
    const auto result = scheduling::schedule_max_value_with_energy_budget(
        instance, model, params.get("budget", 10.0));
    TrialResult out;
    out.objective = result.value;
    out.reference = instance.total_value();
    out.cost = result.budget_used;
    // Independent feasibility check (admissible slots, no collisions,
    // intervals cover assignments, cost consistent): a buggy schedule must
    // not inflate the frontier.
    out.feasible = scheduling::validate_schedule(result.schedule, instance,
                                                 model, false)
                       .ok;
    return out;
  }, [](const ParamMap& params) {
    return check_random_generator(budget_instance_params(params));
  });
}

// ---------------------------------------------------------------------------
// powerdown.*: online power-down policies

std::vector<double> powerdown_gaps(const ParamMap& params,
                                   util::Rng& instance_rng, double alpha) {
  const std::size_t count =
      static_cast<std::size_t>(params.get_int("gaps", 2000));
  const int dist = params.get_int("dist", 0);
  std::vector<double> gaps(count);
  for (double& gap : gaps) {
    switch (dist) {
      case 0:  // exponential with mean alpha
        gap = instance_rng.exponential(1.0 / alpha);
        break;
      case 1:  // short gaps: sleeping never pays off
        gap = instance_rng.uniform_double(0.0, 0.4 * alpha);
        break;
      case 2:  // long gaps: sleeping always pays off
        gap = instance_rng.uniform_double(4.0 * alpha, 6.0 * alpha);
        break;
      default:  // adversarial: just past the break-even point
        gap = alpha * (1.0 + 1e-9);
        break;
    }
  }
  return gaps;
}

template <typename Policy>
void register_powerdown_policy(SolverRegistry& registry,
                               const std::string& name,
                               const Policy& policy) {
  registry.add_fn(name, [policy](const ParamMap& params,
                                 util::Rng& instance_rng, util::Rng& algo_rng) {
    const double alpha = params.get("alpha", 2.0);
    const auto gaps = powerdown_gaps(params, instance_rng, alpha);
    TrialResult out;
    out.objective = policy(gaps, alpha, algo_rng);
    out.cost = out.objective;
    out.reference = scheduling::powerdown_offline_cost(gaps, alpha);
    return out;
  });
}

void register_powerdown(SolverRegistry& registry) {
  register_powerdown_policy(
      registry, "powerdown.break_even",
      [](const std::vector<double>& gaps, double alpha, util::Rng&) {
        return scheduling::powerdown_break_even_cost(gaps, alpha);
      });
  register_powerdown_policy(
      registry, "powerdown.randomized",
      [](const std::vector<double>& gaps, double alpha, util::Rng& rng) {
        return scheduling::powerdown_randomized_cost(gaps, alpha, rng);
      });
  register_powerdown_policy(
      registry, "powerdown.eager",
      [](const std::vector<double>& gaps, double alpha, util::Rng&) {
        return scheduling::powerdown_eager_sleep_cost(gaps, alpha);
      });
  register_powerdown_policy(
      registry, "powerdown.never",
      [](const std::vector<double>& gaps, double alpha, util::Rng&) {
        return scheduling::powerdown_never_sleep_cost(gaps, alpha);
      });
}

}  // namespace

void register_builtin_solvers(SolverRegistry& registry) {
  register_submodular(registry);
  register_core(registry);
  register_secretary(registry);
  register_scheduling(registry);
  register_powerdown(registry);
  // The bench-derived families (ablations, bicriteria/prize sweeps, exact
  // DPs, hiring, the remaining secretary variants, micro primitives) live
  // in builtin_bench_solvers.cpp.
  register_bench_solvers(registry);
}

}  // namespace ps::engine
