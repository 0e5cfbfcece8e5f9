// The bench-derived solver families: every experiment that used to live in
// a bespoke bench/*.cpp driver loop, re-expressed as a registered adapter
// so the sweep runner, the preset catalogue, and the CLI can drive it.
// Registered names, grouped by family (see builtin_solvers.cpp for the
// original PR-1 catalogue):
//
//   ablation.lazy_vs_plain (A1)
//       Runs the Lemma 2.1.2 greedy twice — plain and lazy (CELF) candidate
//       evaluation — on one weighted-coverage instance. Params: items,
//       target_frac. objective/reference = lazy/plain gain evaluations, so
//       the ratio accumulator is the fraction of the pool the lazy path
//       touches; metrics report both counts, wall times, and an identical-
//       output indicator.
//
//   ablation.incremental_matching (A2)
//       Incremental matching oracle vs stateless recompute in the Theorem
//       2.2.1 scheduler (plain greedy so per-evaluation cost dominates).
//       Params: jobs. objective/reference = the two energy costs (ratio must
//       be 1); metrics carry both wall times and the speedup.
//
//   ablation.parallel_greedy (A3)
//       Thread scaling of the non-lazy evaluation sweep. Params: jobs,
//       threads (an algo param: sweeping it keeps the instance fixed).
//       objective = greedy cost (identical for every thread count); metric
//       sweep_ms is the in-trial wall time of the greedy.
//
//   ablation.candidate_pruning (A4)
//       Dominated-candidate pruning of the interval pool across cost models.
//       Params: cost_model (0 restart, 1 time-varying market with free
//       nights, 2 flat per interval). objective/reference = greedy cost
//       after/before pruning; metrics: pool sizes, removed count, both wall
//       times.
//
//   core.bicriteria (E2)
//       The Lemma 2.1.2 bicriteria trade-off on coverage instances with
//       brute-force-known optimum cost B. Params: sets, elements, cover,
//       max_weight, target_frac, eps (algo param). objective = greedy cost,
//       reference = B, so ratio tracks O(log 1/eps); metrics: utility_frac,
//       bound_2log2inveps.
//
//   setcover.pipeline / setcover.adversarial (E3)
//       Set-Cover-derived scheduling instances through the full pipeline vs
//       the exact cover optimum (params: elements, sets, set_size; metric
//       hn_bound), and the adversarial Θ(log n) family (param: k;
//       reference = OPT = 2; metrics: elements, ln_n).
//
//   prize.bicriteria (E4) / prize.value_floor (E5)
//       Theorem 2.3.1 / 2.3.3: prize-collecting bicriteria across eps (algo
//       param) and the exact value floor across value spreads. reference =
//       brute-force optimum among value>=Z schedules (reference-cached;
//       processors * horizon <= 22); metrics: value_frac + floor indicator / reached + measured spread.
//
//   dp.agreeable / dp.gap_frontier (E13)
//       Greedy vs the exact min-energy DP on agreeable one-processor
//       instances (params: jobs, alpha), and the Theorem .2.1 value-vs-gaps
//       frontier (params: jobs, gap_budget as algo param so every budget
//       sees the same instance).
//
//   frontier.primal_dual (E15)
//       schedule_value_at_least(Z) followed by the dual
//       max-value-under-energy-budget at the primal's own energy. Params:
//       jobs, zfrac (algo param). objective = dual value, reference =
//       primal value; metrics: primal energy/value, recovery indicator.
//
//   hiring.online / hiring.naive (E14)
//       Online processor hiring (Algorithm 1 over the matching utility) vs
//       hire-the-first-k. Params: processors, k. reference = offline greedy
//       (reference-cached and shared by both solvers per trial).
//
//   secretary.nonmonotone / secretary.nonmonotone_full (E8)
//       Algorithm 2 on random graph cuts vs running Algorithm 1 on the full
//       stream; reference = exact OPT by enumeration (reference-cached,
//       shared across the two solvers). Params: items, density, k.
//
//   secretary.matroid / secretary.matroid_intersection (E9)
//       Algorithm 3 across matroid classes (param matroid: 0 uniform k=4,
//       1 uniform k=12, 2 partition, 3 graphic, 4 transversal) and across
//       the number of simultaneous constraints (param l, an algo param —
//       every l sees the same function, matroids, and order).
//
//   secretary.multi_knapsack (E10)
//       The Lemma 3.4.1 reduction under l knapsack constraints; reference =
//       offline density greedy on the reduced knapsack; metric feasible_ok
//       verifies every chosen set against all l originals.
//
//   secretary.subadditive / secretary.oracle_attack (E11)
//       The O(sqrt n) mixture algorithm on hidden-good-set instances
//       (param root: n = root^2, k = root), and the value-oracle hardness
//       attack (metric found_opt stays 0 while ratio stays tiny).
//
//   secretary.bottleneck (E12)
//       Theorem 3.6.1's min-aggregate rule over values 1..n. objective =
//       the 0/1 "hired exactly the k best" indicator; conditional metric
//       min_given_k aggregates only over trials that hired k.
//
//   micro.* (P1-P3)
//       Throughput microbenchmarks of the primitives every experiment leans
//       on: hopcroft_karp, incremental_fill, weighted_fill, coverage_eval,
//       lazy_greedy, power_sched. objective = the primitive's output (a
//       determinism check); timing comes from the runner's wall clock.
//
// ablation.incremental_matching, ablation.parallel_greedy,
// ablation.candidate_pruning and micro.power_sched draw feasible instances
// and, like power.* and prize.*, reject sizes below 1 and more jobs than
// processors * horizon before any trial.
//
// All instance material is drawn from the instance RNG; only algorithm
// coins come from the algorithm RNG. Expensive comparators (brute force,
// exhaustive enumeration, offline greedy shared across solvers) go through
// cached_reference keyed by a stream fingerprint: one raw instance_rng()
// word drawn *before* the instance, which identifies the stream because the
// stream is a pure function of (instance params, trial).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/budgeted_maximization.hpp"
#include "engine/reference_cache.hpp"
#include "engine/registry.hpp"
#include "matching/bipartite_graph.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching_oracle.hpp"
#include "matroid/matroid.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/budget_scheduler.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/gap_dp.hpp"
#include "scheduling/generators.hpp"
#include "scheduling/intervals.hpp"
#include "scheduling/power_scheduler.hpp"
#include "scheduling/prize_collecting.hpp"
#include "scheduling/processor_selection.hpp"
#include "secretary/bottleneck.hpp"
#include "secretary/knapsack_secretary.hpp"
#include "secretary/matroid_secretary.hpp"
#include "secretary/subadditive.hpp"
#include "secretary/submodular_secretary.hpp"
#include "submodular/coverage.hpp"
#include "submodular/cut.hpp"
#include "submodular/facility_location.hpp"
#include "submodular/greedy.hpp"
#include "submodular/hidden_good_set.hpp"
#include "util/timer.hpp"

namespace ps::engine {
namespace {

/// Cache key for a reference derived from this trial's instance stream:
/// tag + the reference-defining parameter signature (the full bag minus the
/// solver's own algorithm knobs) + the stream fingerprint. The fingerprint
/// identifies only the realized RNG stream, so the signature must carry
/// every parameter that shapes the instance or the reference without
/// consuming the stream (a density threshold, a target fraction, a k).
/// Parameters left at their defaults are absent from the signature AND
/// constant, so the key stays correct; omitting the solver's own knobs is
/// what lets one brute force serve a whole knob sweep.
std::string reference_key(const char* tag, const ParamMap& params,
                          const std::vector<std::string>& algo_knobs,
                          std::uint64_t fingerprint) {
  return std::string(tag) + "|" + params.without(algo_knobs).signature() +
         "|" + std::to_string(fingerprint);
}

/// Request defaults of a solver that draws random_feasible_instance;
/// horizon 0 means 2 * jobs.
struct FeasibleDefaults {
  int jobs;
  int processors;
  int horizon;
  int window_length;
};

scheduling::RandomInstanceParams feasible_params(const ParamMap& params,
                                                 const FeasibleDefaults& d) {
  scheduling::RandomInstanceParams gen;
  gen.num_jobs = params.get_int("jobs", d.jobs);
  gen.num_processors = params.get_int("processors", d.processors);
  gen.horizon =
      params.get_int("horizon", d.horizon > 0 ? d.horizon : 2 * gen.num_jobs);
  gen.window_length = params.get_int("window_length", d.window_length);
  return gen;
}

/// The Solver::check_params of a solver drawing from feasible_params(d).
FunctionSolver::CheckFn check_feasible(FeasibleDefaults d) {
  return [d](const ParamMap& params) {
    return check_feasible_generator(feasible_params(params, d));
  };
}

/// The Solver::check_params of a solver drawing CoverageFunction::random
/// with items, elements and cover read from the params (and these
/// defaults).
FunctionSolver::CheckFn check_coverage_params(int items, int elements,
                                              int cover) {
  return [=](const ParamMap& params) {
    return check_coverage_generator(params.get_int("items", items),
                                    params.get_int("elements", elements),
                                    params.get_int("cover", cover));
  };
}

/// The same for a solver drawing `n` items of 8 elements each out of
/// 2 * n, `n` read from the param `size` (default `n`).
FunctionSolver::CheckFn check_coverage_sizes(const char* size, int n) {
  return [=](const ParamMap& params) {
    const int items = params.get_int(size, n);
    return check_coverage_generator(items, 2 * items, 8);
  };
}

constexpr FeasibleDefaults kIncrementalMatching{16, 3, 0, 4};
constexpr FeasibleDefaults kParallelGreedy{40, 3, 60, 5};
constexpr FeasibleDefaults kCandidatePruning{20, 3, 24, 4};
constexpr FeasibleDefaults kMicroPowerSched{16, 2, 0, 4};

// ---------------------------------------------------------------------------
// ablation.*: the A1-A4 ablations

void register_ablation(SolverRegistry& registry) {
  registry.add_fn("ablation.lazy_vs_plain", [](const ParamMap& params,
                                               util::Rng& instance_rng,
                                               util::Rng&) {
    const int m = params.get_int("items", 100);
    const auto f = submodular::CoverageFunction::random(m, 2 * m, 8, 2.0,
                                                        instance_rng);
    std::vector<core::CandidateSet> candidates;
    candidates.reserve(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      candidates.push_back(
          core::CandidateSet{{i}, instance_rng.uniform_double(0.5, 2.0), i});
    }
    const double x = params.get("target_frac", 0.9) *
                     f.value(submodular::ItemSet::full(f.ground_size()));

    core::BudgetedMaximizationOptions plain_opt;
    plain_opt.lazy = false;
    plain_opt.epsilon = 0.01;
    core::BudgetedMaximizationOptions lazy_opt = plain_opt;
    lazy_opt.lazy = true;

    util::Timer t1;
    const auto plain = core::maximize_with_budget(f, candidates, x, plain_opt);
    const double plain_ms = t1.milliseconds();
    util::Timer t2;
    const auto lazy = core::maximize_with_budget(f, candidates, x, lazy_opt);
    const double lazy_ms = t2.milliseconds();

    TrialResult out;
    out.objective = static_cast<double>(lazy.gain_evaluations);
    out.reference = static_cast<double>(plain.gain_evaluations);
    out.cost = lazy.cost;
    out.oracle_calls = static_cast<double>(plain.gain_evaluations +
                                           lazy.gain_evaluations);
    out.set_metric("plain_evals", static_cast<double>(plain.gain_evaluations));
    out.set_metric("lazy_evals", static_cast<double>(lazy.gain_evaluations));
    out.set_metric("evals_saved",
                   1.0 - static_cast<double>(lazy.gain_evaluations) /
                             static_cast<double>(plain.gain_evaluations));
    out.set_metric("same_output", plain.picked == lazy.picked ? 1.0 : 0.0);
    out.set_metric("plain_ms", plain_ms);
    out.set_metric("lazy_ms", lazy_ms);
    return out;
  }, check_coverage_sizes("items", 100));

  registry.add_fn("ablation.incremental_matching", [](const ParamMap& params,
                                                      util::Rng& instance_rng,
                                                      util::Rng&) {
    const auto gen = feasible_params(params, kIncrementalMatching);
    const auto instance = scheduling::random_feasible_instance(gen,
                                                               instance_rng);
    const scheduling::RestartCostModel model(params.get("alpha", 2.0));

    // Plain (full-sweep) greedy so that per-evaluation cost dominates —
    // that is the quantity this ablation isolates; lazy mode hides it by
    // making very few evaluations.
    scheduling::PowerSchedulerOptions fast;
    fast.use_incremental_oracle = true;
    fast.lazy = false;
    scheduling::PowerSchedulerOptions slow = fast;
    slow.use_incremental_oracle = false;

    util::Timer t1;
    const auto incremental = scheduling::schedule_all_jobs(instance, model,
                                                           fast);
    const double fast_ms = t1.milliseconds();
    util::Timer t2;
    const auto stateless = scheduling::schedule_all_jobs(instance, model,
                                                         slow);
    const double slow_ms = t2.milliseconds();

    TrialResult out;
    out.objective = incremental.schedule.energy_cost;
    out.reference = stateless.schedule.energy_cost;
    out.cost = incremental.schedule.energy_cost;
    out.oracle_calls = static_cast<double>(incremental.gain_evaluations);
    out.feasible = incremental.feasible && stateless.feasible;
    out.set_metric("incremental_ms", fast_ms);
    out.set_metric("stateless_ms", slow_ms);
    out.set_metric("speedup", fast_ms > 0.0 ? slow_ms / fast_ms : 0.0);
    out.set_metric("same_cost",
                   std::abs(incremental.schedule.energy_cost -
                            stateless.schedule.energy_cost) < 1e-9
                       ? 1.0
                       : 0.0);
    out.set_metric("candidates",
                   static_cast<double>(incremental.num_candidates));
    return out;
  }, check_feasible(kIncrementalMatching));

  registry.add_fn("ablation.parallel_greedy", [](const ParamMap& params,
                                                 util::Rng& instance_rng,
                                                 util::Rng&) {
    const auto gen = feasible_params(params, kParallelGreedy);
    const auto instance = scheduling::random_feasible_instance(gen,
                                                               instance_rng);
    const scheduling::RestartCostModel model(params.get("alpha", 2.0));
    const auto graph = instance.build_slot_job_graph();
    const auto pool = scheduling::generate_interval_pool(instance, model);

    core::BudgetedMaximizationOptions options;
    options.lazy = false;
    options.num_threads =
        static_cast<std::size_t>(std::max(1, params.get_int("threads", 1)));
    options.epsilon = 1.0 / (gen.num_jobs + 1.0);

    scheduling::MatchingOracleUtility utility(graph);
    util::Timer timer;
    const auto result = core::maximize_with_budget(utility, pool.candidates,
                                                   gen.num_jobs, options);
    const double ms = timer.milliseconds();

    TrialResult out;
    out.objective = result.cost;
    out.cost = result.cost;
    out.oracle_calls = static_cast<double>(result.gain_evaluations);
    out.feasible = result.reached_target;
    out.set_metric("sweep_ms", ms);
    out.set_metric("candidates", static_cast<double>(pool.candidates.size()));
    return out;
  }, check_feasible(kParallelGreedy));

  registry.add_fn("ablation.candidate_pruning", [](const ParamMap& params,
                                                   util::Rng& instance_rng,
                                                   util::Rng&) {
    const auto gen = feasible_params(params, kCandidatePruning);
    const auto instance = scheduling::random_feasible_instance(gen,
                                                               instance_rng);

    const scheduling::RestartCostModel restart(2.0);
    // Real markets clamp negative prices at zero: free night power means
    // extending an interval across the night costs nothing, creating
    // genuine domination among candidates.
    std::vector<double> prices(static_cast<std::size_t>(gen.horizon), 0.0);
    for (int t = 8; t < std::min(20, gen.horizon); ++t) {
      prices[static_cast<std::size_t>(t)] = 2.0;
    }
    const scheduling::TimeVaryingCostModel market(0.2, prices);
    const scheduling::FlatIntervalCostModel flat(1.0);
    const scheduling::CostModel* model = &restart;
    switch (params.get_int("cost_model", 0)) {
      case 1:
        model = &market;
        break;
      case 2:
        model = &flat;
        break;
      default:
        break;
    }

    const auto run_pool = [&](const scheduling::IntervalPool& pool) {
      const auto graph = instance.build_slot_job_graph();
      scheduling::MatchingOracleUtility utility(graph);
      core::BudgetedMaximizationOptions options;
      options.epsilon = 1.0 / (instance.num_jobs() + 1.0);
      util::Timer timer;
      const auto result = core::maximize_with_budget(
          utility, pool.candidates, instance.num_jobs(), options);
      return std::make_pair(result.cost, timer.milliseconds());
    };

    auto pool = scheduling::generate_interval_pool(instance, *model);
    const std::size_t size_before = pool.candidates.size();
    const auto before = run_pool(pool);
    const std::size_t removed = scheduling::prune_dominated_candidates(&pool);
    const auto after = run_pool(pool);

    TrialResult out;
    out.objective = after.first;
    out.reference = before.first;
    out.cost = after.first;
    out.set_metric("pool_before", static_cast<double>(size_before));
    out.set_metric("pool_after", static_cast<double>(pool.candidates.size()));
    out.set_metric("removed", static_cast<double>(removed));
    out.set_metric("ms_before", before.second);
    out.set_metric("ms_after", after.second);
    return out;
  }, check_feasible(kCandidatePruning));
}

// ---------------------------------------------------------------------------
// core.bicriteria (E2): the Lemma 2.1.2 bicriteria trade-off

/// Minimum candidate cost reaching utility x, by subset enumeration.
/// Requires at most 20 candidates.
double brute_force_min_cost(const submodular::SetFunction& f,
                            const std::vector<core::CandidateSet>& cands,
                            double x) {
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t pick = 0; pick < (1u << cands.size()); ++pick) {
    submodular::ItemSet items(f.ground_size());
    double cost = 0.0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if ((pick >> i) & 1u) {
        cost += cands[i].cost;
        for (int it : cands[i].items) items.insert(it);
      }
    }
    if (cost < best && f.value(items) >= x - 1e-9) best = cost;
  }
  return best;
}

void register_bicriteria(SolverRegistry& registry) {
  registry.add_fn("core.bicriteria", [](const ParamMap& params,
                                        util::Rng& instance_rng, util::Rng&) {
    const std::uint64_t fingerprint = instance_rng();
    const int sets = std::min(params.get_int("sets", 15), 20);
    const auto f = submodular::CoverageFunction::random(
        sets, params.get_int("elements", 18), params.get_int("cover", 5),
        params.get("max_weight", 3.0), instance_rng);
    std::vector<core::CandidateSet> candidates;
    candidates.reserve(static_cast<std::size_t>(sets));
    for (int s = 0; s < sets; ++s) {
      candidates.push_back(
          core::CandidateSet{{s}, instance_rng.uniform_double(0.5, 2.5), s});
    }
    const double x = params.get("target_frac", 0.95) *
                     f.value(submodular::ItemSet::full(f.ground_size()));
    // eps is this solver's algorithm knob, so every eps scenario draws this
    // instance from the same stream — one brute force serves the whole
    // sweep.
    const double opt_cost = cached_reference(
        reference_key("e2.opt", params, {"eps"}, fingerprint),
        [&] { return brute_force_min_cost(f, candidates, x); });

    const double eps = params.get("eps", 0.125);
    core::BudgetedMaximizationOptions options;
    options.epsilon = eps;
    const auto result = core::maximize_with_budget(f, candidates, x, options);

    TrialResult out;
    out.objective = result.cost;
    out.reference = opt_cost;
    out.cost = result.cost;
    out.oracle_calls = static_cast<double>(result.gain_evaluations);
    out.set_metric("utility_frac", result.utility / x);
    out.set_metric("bound_2log2inveps", 2.0 * std::log2(1.0 / eps));
    return out;
  }, [](const ParamMap& params) {
    return check_coverage_generator(
        std::min(params.get_int("sets", 15), 20),
        params.get_int("elements", 18), params.get_int("cover", 5));
  });
}

// ---------------------------------------------------------------------------
// setcover.* (E3): hardness through the scheduling pipeline

void register_setcover(SolverRegistry& registry) {
  registry.add_fn("setcover.pipeline", [](const ParamMap& params,
                                          util::Rng& instance_rng,
                                          util::Rng&) {
    const int elements = params.get_int("elements", 10);
    const auto sc = scheduling::random_set_cover(
        elements, params.get_int("sets", elements),
        params.get_int("set_size", 3), instance_rng);
    TrialResult out;
    const int opt = scheduling::exact_min_set_cover(sc);
    if (opt <= 0) {
      out.feasible = false;
      return out;
    }
    const auto instance = scheduling::set_cover_to_scheduling(sc);
    const scheduling::FlatIntervalCostModel model(1.0);
    scheduling::PowerSchedulerOptions options;
    options.intervals.only_full_horizon = true;
    const auto greedy = scheduling::schedule_all_jobs(instance, model,
                                                      options);
    if (!greedy.feasible) {
      out.feasible = false;
      return out;
    }
    out.objective = greedy.schedule.energy_cost;
    out.reference = static_cast<double>(opt);
    out.cost = greedy.schedule.energy_cost;
    out.oracle_calls = static_cast<double>(greedy.gain_evaluations);
    double harmonic = 0.0;
    for (int i = 1; i <= elements; ++i) harmonic += 1.0 / i;
    out.set_metric("hn_bound", harmonic);
    return out;
  });

  registry.add_fn("setcover.adversarial", [](const ParamMap& params,
                                             util::Rng&, util::Rng&) {
    const int k = params.get_int("k", 4);
    const auto sc = scheduling::adversarial_set_cover(k);
    const auto instance = scheduling::set_cover_to_scheduling(sc);
    const scheduling::FlatIntervalCostModel model(1.0);
    scheduling::PowerSchedulerOptions options;
    options.intervals.only_full_horizon = true;
    const auto greedy = scheduling::schedule_all_jobs(instance, model,
                                                      options);
    TrialResult out;
    out.objective = greedy.schedule.energy_cost;
    out.reference = 2.0;  // OPT of the adversarial family is always 2.
    out.cost = greedy.schedule.energy_cost;
    out.feasible = greedy.feasible;
    out.set_metric("elements", static_cast<double>(sc.num_elements));
    out.set_metric("ln_n", std::log(static_cast<double>(sc.num_elements)));
    return out;
  });
}

// ---------------------------------------------------------------------------
// prize.* (E4/E5): prize-collecting scheduling vs brute-force optima

scheduling::RandomInstanceParams prize_instance_params(const ParamMap& params,
                                                       double max_value) {
  scheduling::RandomInstanceParams gen;
  gen.num_jobs = params.get_int("jobs", 5);
  gen.num_processors = params.get_int("processors", 2);
  gen.horizon = params.get_int("horizon", 6);
  gen.window_length = params.get_int("window_length", 2);
  gen.min_value = 1.0;
  gen.max_value = max_value;
  return gen;
}

/// Draws feasible instances until one has a brute-force prize-collecting
/// optimum; returns (instance, Z, OPT). The retry loop consumes only the
/// instance stream, so it replays identically for every algo-param setting,
/// and the optima are reference-cached across those scenarios.
struct PrizeCase {
  scheduling::SchedulingInstance instance;
  double z = 0.0;
  double opt_cost = 0.0;
};

PrizeCase draw_prize_case(const ParamMap& params, util::Rng& instance_rng,
                          const scheduling::RestartCostModel& model,
                          double max_value, double zfrac, const char* tag) {
  for (;;) {
    const std::uint64_t fingerprint = instance_rng();
    auto instance = scheduling::random_feasible_instance(
        prize_instance_params(params, max_value), instance_rng);
    const double z = zfrac * instance.total_value();
    // eps is the only algorithm knob here: zfrac/alpha/spread all change
    // the optimum and stay in the key via the parameter signature.
    const double opt_cost = cached_reference(
        reference_key(tag, params, {"eps"}, fingerprint), [&] {
          const auto opt =
              scheduling::brute_force_min_cost_value(instance, model, z);
          return opt ? opt->energy_cost : -1.0;
        });
    if (opt_cost >= 0.0) return {std::move(instance), z, opt_cost};
  }
}

/// Both prize solvers draw feasible instances and price a brute-force
/// optimum on every trial.
Status check_prize_params(const ParamMap& params) {
  const auto gen = prize_instance_params(params, 1.0);
  if (Status status = check_feasible_generator(gen); !status.ok()) {
    return status;
  }
  return check_brute_force_grid("the brute-force optimum",
                                gen.num_processors, gen.horizon);
}

void register_prize(SolverRegistry& registry) {
  registry.add_fn("prize.bicriteria", [](const ParamMap& params,
                                         util::Rng& instance_rng,
                                         util::Rng&) {
    const scheduling::RestartCostModel model(params.get("alpha", 1.5));
    const auto c =
        draw_prize_case(params, instance_rng, model,
                        params.get("max_value", 6.0),
                        params.get("zfrac", 0.65), "e4.opt");
    const double eps = params.get("eps", 0.125);
    scheduling::PrizeCollectingOptions options;
    options.epsilon = eps;
    const auto result =
        scheduling::schedule_value_fraction(c.instance, model, c.z, options);

    TrialResult out;
    out.objective = result.schedule.energy_cost;
    out.reference = c.opt_cost;
    out.cost = result.schedule.energy_cost;
    out.set_metric("value_frac", result.value / c.z);
    out.set_metric("value_floor_ok",
                   result.value >= (1.0 - eps) * c.z - 1e-9 ? 1.0 : 0.0);
    out.set_metric("bound", 2.0 * std::log2(1.0 / eps) + 1.0);
    return out;
  }, check_prize_params);

  registry.add_fn("prize.value_floor", [](const ParamMap& params,
                                          util::Rng& instance_rng,
                                          util::Rng&) {
    const scheduling::RestartCostModel model(params.get("alpha", 1.0));
    const auto c =
        draw_prize_case(params, instance_rng, model,
                        params.get("spread", 10.0),
                        params.get("zfrac", 0.7), "e5.opt");
    const auto result =
        scheduling::schedule_value_at_least(c.instance, model, c.z);

    TrialResult out;
    out.objective = result.schedule.energy_cost;
    out.reference = c.opt_cost;
    out.cost = result.schedule.energy_cost;
    out.feasible = result.reached_target && result.value >= c.z - 1e-9;
    out.set_metric("measured_spread", c.instance.value_spread());
    return out;
  }, check_prize_params);
}

// ---------------------------------------------------------------------------
// dp.* (E13): exact DPs on agreeable one-interval instances

void register_dp(SolverRegistry& registry) {
  registry.add_fn("dp.agreeable", [](const ParamMap& params,
                                     util::Rng& instance_rng, util::Rng&) {
    const int n = params.get_int("jobs", 6);
    const int horizon = params.get_int("horizon", 30);
    const double alpha = params.get("alpha", 2.0);
    for (;;) {
      const auto jobs = scheduling::random_agreeable_jobs(
          n, horizon, 2, 6, 1.0, 1.0, instance_rng);
      const auto dp = scheduling::min_energy_schedule_all(jobs, horizon,
                                                          alpha);
      if (!dp.feasible) continue;
      const auto instance = scheduling::agreeable_to_instance(jobs, horizon);
      const scheduling::RestartCostModel model(alpha);
      const auto greedy = scheduling::schedule_all_jobs(instance, model);
      if (!greedy.feasible) continue;
      TrialResult out;
      out.objective = greedy.schedule.energy_cost;
      out.reference = dp.energy;
      out.cost = greedy.schedule.energy_cost;
      out.oracle_calls = static_cast<double>(greedy.gain_evaluations);
      out.set_metric("bound_2log2n",
                     2.0 * std::log2(static_cast<double>(n) + 1.0));
      return out;
    }
  });

  registry.add_fn("dp.gap_frontier", [](const ParamMap& params,
                                        util::Rng& instance_rng, util::Rng&) {
    const int horizon = params.get_int("horizon", 40);
    const auto jobs = scheduling::random_agreeable_jobs(
        params.get_int("jobs", 14), horizon, 1, 4, 1.0,
        params.get("max_value", 5.0), instance_rng);
    double total = 0.0;
    for (const auto& job : jobs) total += job.value;
    // gap_budget is an algo param: the whole frontier is traced on the one
    // instance this trial drew.
    const auto result = scheduling::max_value_with_gap_budget(
        jobs, horizon, params.get_int("gap_budget", 0));
    TrialResult out;
    out.objective = result.value;
    out.reference = total;
    out.set_metric("gaps_used", static_cast<double>(result.gaps_used));
    return out;
  });
}

// ---------------------------------------------------------------------------
// frontier.primal_dual (E15): the value/energy frontier from both axes

scheduling::RandomInstanceParams frontier_instance_params(
    const ParamMap& params) {
  scheduling::RandomInstanceParams gen;
  gen.num_jobs = params.get_int("jobs", 16);
  gen.num_processors = params.get_int("processors", 2);
  gen.horizon = params.get_int("horizon", 14);
  gen.windows_per_job = params.get_int("windows", 2);
  gen.window_length = params.get_int("window_length", 3);
  gen.min_value = 1.0;
  gen.max_value = params.get("max_value", 8.0);
  return gen;
}

void register_frontier(SolverRegistry& registry) {
  registry.add_fn("frontier.primal_dual", [](const ParamMap& params,
                                             util::Rng& instance_rng,
                                             util::Rng&) {
    const auto instance = scheduling::random_instance(
        frontier_instance_params(params), instance_rng);
    const scheduling::RestartCostModel model(params.get("alpha", 2.0));

    const double z = params.get("zfrac", 0.5) * instance.total_value();
    const auto primal = scheduling::schedule_value_at_least(instance, model,
                                                            z);
    TrialResult out;
    if (!primal.reached_target) {
      out.feasible = false;
      return out;
    }
    const auto dual = scheduling::schedule_max_value_with_energy_budget(
        instance, model, primal.schedule.energy_cost);
    out.objective = dual.value;
    out.reference = primal.value;
    out.cost = primal.schedule.energy_cost;
    out.set_metric("primal_value", primal.value);
    out.set_metric("primal_energy", primal.schedule.energy_cost);
    out.set_metric("dual_recovers",
                   dual.value >= 0.9 * primal.value ? 1.0 : 0.0);
    return out;
  }, [](const ParamMap& params) {
    return check_random_generator(frontier_instance_params(params));
  });
}

// ---------------------------------------------------------------------------
// hiring.* (E14): online processor hiring

scheduling::RandomInstanceParams hiring_instance_params(
    const ParamMap& params) {
  scheduling::RandomInstanceParams gen;
  gen.num_processors = params.get_int("processors", 8);
  gen.num_jobs = params.get_int("jobs", 2 * gen.num_processors);
  gen.horizon = params.get_int("horizon", 6);
  gen.windows_per_job = params.get_int("windows", 2);
  gen.window_length = params.get_int("window_length", 2);
  return gen;
}

void register_hiring(SolverRegistry& registry) {
  const auto hiring_trial = [](const ParamMap& params,
                               util::Rng& instance_rng, bool naive) {
    const std::uint64_t fingerprint = instance_rng();
    const int k = std::max(1, params.get_int("k", 2));
    const auto gen = hiring_instance_params(params);
    const int processors = gen.num_processors;
    const auto instance = scheduling::random_instance(gen, instance_rng);
    const auto order = instance_rng.permutation(processors);
    // Both solvers draw (fingerprint, instance, order) identically, so the
    // offline greedy comparator is computed once per trial and shared.
    const double offline = cached_reference(
        reference_key("e14.opt", params, {}, fingerprint), [&] {
          return scheduling::hire_processors_offline_greedy(instance, k)
              .jobs_covered;
        });

    TrialResult out;
    if (naive) {
      const scheduling::ProcessorCoverageFunction f(instance);
      submodular::ItemSet hired(processors);
      for (int i = 0; i < k && i < processors; ++i) hired.insert(order[i]);
      out.objective = f.value(hired);
    } else {
      out.objective =
          scheduling::hire_processors_online(instance, k, order).jobs_covered;
    }
    out.reference = offline;
    return out;
  };
  const auto check = [](const ParamMap& params) {
    return check_random_generator(hiring_instance_params(params));
  };
  registry.add_fn("hiring.online",
                  [hiring_trial](const ParamMap& params,
                                 util::Rng& instance_rng, util::Rng&) {
                    return hiring_trial(params, instance_rng, false);
                  }, check);
  registry.add_fn("hiring.naive",
                  [hiring_trial](const ParamMap& params,
                                 util::Rng& instance_rng, util::Rng&) {
                    return hiring_trial(params, instance_rng, true);
                  }, check);
}

// ---------------------------------------------------------------------------
// secretary.* extensions (E8-E12)

/// Offline comparator for constrained problems: greedy respecting the
/// constraint (a 1/2-approx for one matroid; good enough as a stable OPT~).
double constrained_offline_greedy(const submodular::SetFunction& f,
                                  const matroid::MatroidIntersection& c) {
  submodular::ItemSet chosen(f.ground_size());
  double value = f.value(chosen);
  for (;;) {
    int best = -1;
    double best_value = value;
    for (int i = 0; i < f.ground_size(); ++i) {
      if (chosen.contains(i) || !c.can_add(chosen, i)) continue;
      const double v = f.value(chosen.with(i));
      if (v > best_value) {
        best = i;
        best_value = v;
      }
    }
    if (best == -1) break;
    chosen.insert(best);
    value = best_value;
  }
  return value;
}

/// The four matroids of the E9 intersection series, built with a FIXED
/// consumption of the instance stream so that sweeping l (an algo param)
/// keeps function, matroids, and arrival order identical.
struct MatroidPool {
  matroid::UniformMatroid uniform;
  matroid::PartitionMatroid partition;
  matroid::TransversalMatroid transversal;
  matroid::GraphicMatroid graphic;

  static MatroidPool draw(int n, util::Rng& rng) {
    std::vector<int> class_of(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) class_of[static_cast<std::size_t>(i)] = i / 12;
    std::vector<std::vector<int>> resources(static_cast<std::size_t>(n));
    for (auto& r : resources) r = rng.sample_without_replacement(10, 2);
    std::vector<matroid::GraphicMatroid::Edge> edges;
    edges.reserve(static_cast<std::size_t>(n));
    for (int e = 0; e < n; ++e) {
      int u = rng.uniform_int(0, 11), v = rng.uniform_int(0, 11);
      if (u == v) v = (v + 1) % 12;
      edges.push_back({u, v});
    }
    return MatroidPool{matroid::UniformMatroid(n, 8),
                       matroid::PartitionMatroid(class_of, {3, 3, 3, 3}),
                       matroid::TransversalMatroid(10, resources),
                       matroid::GraphicMatroid(12, edges)};
  }
};

std::unique_ptr<matroid::Matroid> draw_matroid(int kind, int n,
                                               util::Rng& rng) {
  switch (kind) {
    case 1:
      return std::make_unique<matroid::UniformMatroid>(n, 12);
    case 2: {
      std::vector<int> class_of(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        class_of[static_cast<std::size_t>(i)] = i / 12;
      }
      return std::make_unique<matroid::PartitionMatroid>(
          class_of, std::vector<int>{2, 2, 2, 2});
    }
    case 3: {
      // Graphic matroid on 13 vertices: ground = n random edges, rank <= 12.
      std::vector<matroid::GraphicMatroid::Edge> edges;
      edges.reserve(static_cast<std::size_t>(n));
      for (int e = 0; e < n; ++e) {
        int u = rng.uniform_int(0, 12), v = rng.uniform_int(0, 12);
        if (u == v) v = (v + 1) % 13;
        edges.push_back({u, v});
      }
      return std::make_unique<matroid::GraphicMatroid>(13, edges);
    }
    case 4: {
      std::vector<std::vector<int>> resources(static_cast<std::size_t>(n));
      for (auto& r : resources) r = rng.sample_without_replacement(8, 2);
      return std::make_unique<matroid::TransversalMatroid>(8, resources);
    }
    default:
      return std::make_unique<matroid::UniformMatroid>(n, 4);
  }
}

void register_secretary_extensions(SolverRegistry& registry) {
  const auto nonmonotone_trial = [](const ParamMap& params,
                                    util::Rng& instance_rng,
                                    util::Rng* algo_rng) {
    const std::uint64_t fingerprint = instance_rng();
    const int n = std::min(params.get_int("items", 18), 24);
    const int k = params.get_int("k", 3);
    const auto f = submodular::GraphCutFunction::random(
        n, params.get("density", 0.3), params.get("max_weight", 5.0),
        instance_rng);
    const auto order = instance_rng.permutation(n);
    // Exact OPT by enumeration, shared by the split and full-stream solvers
    // (both draw the identical instance and fingerprint per trial).
    const double opt = cached_reference(
        reference_key("e8.opt", params, {}, fingerprint),
        [&] { return submodular::exhaustive_max_cardinality(f, k).value; });

    const auto result =
        algo_rng != nullptr
            ? secretary::submodular_secretary(f, k, order, *algo_rng)
            : secretary::monotone_submodular_secretary(f, k, order);
    TrialResult out;
    out.objective = result.value;
    out.reference = opt;
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    return out;
  };
  registry.add_fn("secretary.nonmonotone",
                  [nonmonotone_trial](const ParamMap& params,
                                      util::Rng& instance_rng,
                                      util::Rng& algo_rng) {
                    return nonmonotone_trial(params, instance_rng, &algo_rng);
                  });
  registry.add_fn("secretary.nonmonotone_full",
                  [nonmonotone_trial](const ParamMap& params,
                                      util::Rng& instance_rng, util::Rng&) {
                    return nonmonotone_trial(params, instance_rng, nullptr);
                  });

  registry.add_fn("secretary.matroid", [](const ParamMap& params,
                                          util::Rng& instance_rng,
                                          util::Rng& algo_rng) {
    const int n = params.get_int("items", 48);
    const auto f = submodular::CoverageFunction::random(
        n, params.get_int("elements", 40), params.get_int("cover", 5),
        params.get("max_weight", 2.0), instance_rng);
    const auto m =
        draw_matroid(params.get_int("matroid", 0), n, instance_rng);
    const matroid::MatroidIntersection constraint({m.get()});
    const auto order = instance_rng.permutation(n);
    const double offline = constrained_offline_greedy(f, constraint);
    const auto result = secretary::matroid_submodular_secretary(
        f, constraint, order, algo_rng);
    TrialResult out;
    out.objective = result.value;
    out.reference = offline;
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    out.set_metric("rank", static_cast<double>(m->rank()));
    return out;
  }, check_coverage_params(48, 40, 5));

  registry.add_fn("secretary.matroid_intersection",
                  [](const ParamMap& params, util::Rng& instance_rng,
                     util::Rng& algo_rng) {
    const int n = params.get_int("items", 48);
    const auto f = submodular::CoverageFunction::random(
        n, params.get_int("elements", 40), params.get_int("cover", 5),
        params.get("max_weight", 2.0), instance_rng);
    const auto pool = MatroidPool::draw(n, instance_rng);
    const auto order = instance_rng.permutation(n);
    const std::vector<const matroid::Matroid*> all{
        &pool.uniform, &pool.partition, &pool.transversal, &pool.graphic};
    const int l = std::clamp(params.get_int("l", 1), 1,
                             static_cast<int>(all.size()));
    const matroid::MatroidIntersection constraint(
        std::vector<const matroid::Matroid*>(all.begin(), all.begin() + l));
    const double offline = constrained_offline_greedy(f, constraint);
    const auto result = secretary::matroid_submodular_secretary(
        f, constraint, order, algo_rng);
    TrialResult out;
    out.objective = result.value;
    out.reference = offline;
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    return out;
  }, check_coverage_params(48, 40, 5));

  registry.add_fn("secretary.multi_knapsack", [](const ParamMap& params,
                                                 util::Rng& instance_rng,
                                                 util::Rng& algo_rng) {
    const int n = params.get_int("items", 50);
    const int l = std::max(1, params.get_int("l", 1));
    const auto f = submodular::CoverageFunction::random(
        n, params.get_int("elements", 45), params.get_int("cover", 5),
        params.get("max_weight", 2.0), instance_rng);
    std::vector<std::vector<double>> weights(
        static_cast<std::size_t>(l),
        std::vector<double>(static_cast<std::size_t>(n)));
    for (auto& row : weights) {
      for (auto& w : row) w = instance_rng.uniform_double(0.05, 0.5);
    }
    const std::vector<double> capacities(static_cast<std::size_t>(l), 1.0);
    const auto order = instance_rng.permutation(n);

    // Offline comparator on the reduced single knapsack (any feasible set
    // of the original fits it up to the Lemma 3.4.1 factor).
    std::vector<double> reduced(static_cast<std::size_t>(n), 0.0);
    for (const auto& row : weights) {
      for (int j = 0; j < n; ++j) {
        reduced[static_cast<std::size_t>(j)] =
            std::max(reduced[static_cast<std::size_t>(j)],
                     row[static_cast<std::size_t>(j)]);
      }
    }
    const auto offline = secretary::offline_knapsack_greedy(f, reduced, 1.0);

    const auto result = secretary::multi_knapsack_submodular_secretary(
        f, weights, capacities, order, algo_rng);
    TrialResult out;
    out.objective = result.value;
    out.reference = offline.value;
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    out.set_metric("feasible_ok",
                   secretary::fits_knapsacks(result.chosen, weights,
                                             capacities)
                       ? 1.0
                       : 0.0);
    return out;
  }, check_coverage_params(50, 45, 5));

  registry.add_fn("secretary.subadditive", [](const ParamMap& params,
                                              util::Rng& instance_rng,
                                              util::Rng& algo_rng) {
    const int root = std::max(2, params.get_int("root", 6));
    const int n = root * root;
    const auto f = submodular::HiddenGoodSetFunction::random(
        n, root, root, params.get("lambda", 2.0), instance_rng);
    const auto order = instance_rng.permutation(n);
    const auto result =
        secretary::subadditive_secretary(f, root, order, algo_rng);
    TrialResult out;
    out.objective = result.value;
    out.reference = f.optimum();
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    out.set_metric("sqrt_n", std::sqrt(static_cast<double>(n)));
    return out;
  });

  registry.add_fn("secretary.oracle_attack", [](const ParamMap& params,
                                                util::Rng& instance_rng,
                                                util::Rng& algo_rng) {
    const int root = std::max(2, params.get_int("root", 10));
    const int n = root * root;
    const auto f = submodular::HiddenGoodSetFunction::random(
        n, root, root, params.get("lambda", 8.0), instance_rng);
    const int queries = params.get_int("query_factor", 20) * n;
    const double best =
        secretary::random_query_attack(f, queries, root, algo_rng);
    TrialResult out;
    out.objective = best;
    out.reference = f.optimum();
    out.oracle_calls = static_cast<double>(queries);
    out.set_metric("found_opt", best >= f.optimum() ? 1.0 : 0.0);
    return out;
  });

  registry.add_fn("secretary.bottleneck", [](const ParamMap& params,
                                             util::Rng& instance_rng,
                                             util::Rng&) {
    const int n = params.get_int("n", 60);
    const int k = params.get_int("k", 3);
    std::vector<double> values(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      values[static_cast<std::size_t>(i)] = i + 1.0;  // distinct efficiencies
    }
    const auto order = instance_rng.permutation(n);
    const auto result = secretary::bottleneck_secretary(values, k, order);
    TrialResult out;
    // Mean objective = P[hired exactly the k best].
    out.objective = result.hired_k_best ? 1.0 : 0.0;
    out.reference = 1.0;
    out.set_metric("hired_k", result.hired_k ? 1.0 : 0.0);
    out.set_metric("floor_exp2k", std::exp(-2.0 * k));
    if (result.hired_k) {
      // Conditional metrics: aggregated only over trials that hired k.
      const double opt_min = static_cast<double>(n - k + 1);
      out.set_metric("min_given_k", result.min_value);
      out.set_metric("min_over_opt", result.min_value / opt_min);
    }
    return out;
  });
}

// ---------------------------------------------------------------------------
// micro.*: throughput of the primitives (the old google-benchmark suite)

void register_micro(SolverRegistry& registry) {
  registry.add_fn("micro.hopcroft_karp", [](const ParamMap& params,
                                            util::Rng& instance_rng,
                                            util::Rng&) {
    const int n = params.get_int("n", 256);
    const auto g =
        matching::BipartiteGraph::random_regular_x(n, n, 8, instance_rng);
    TrialResult out;
    out.objective = static_cast<double>(matching::hopcroft_karp(g).size);
    return out;
  });

  registry.add_fn("micro.incremental_fill", [](const ParamMap& params,
                                               util::Rng& instance_rng,
                                               util::Rng&) {
    const int n = params.get_int("n", 256);
    const auto g =
        matching::BipartiteGraph::random_regular_x(n, n, 8, instance_rng);
    const auto order = instance_rng.permutation(n);
    matching::IncrementalMatchingOracle oracle(g);
    for (int x : order) oracle.add_x(x);
    TrialResult out;
    out.objective = static_cast<double>(oracle.size());
    return out;
  });

  registry.add_fn("micro.weighted_fill", [](const ParamMap& params,
                                            util::Rng& instance_rng,
                                            util::Rng&) {
    const int n = params.get_int("n", 256);
    const auto g =
        matching::BipartiteGraph::random_regular_x(n, n, 8, instance_rng);
    std::vector<double> values(static_cast<std::size_t>(n));
    for (auto& v : values) v = instance_rng.uniform_double(1.0, 9.0);
    const auto order = instance_rng.permutation(n);
    matching::WeightedMatchingOracle oracle(g, values);
    for (int x : order) oracle.add_x(x);
    TrialResult out;
    out.objective = oracle.value();
    return out;
  });

  registry.add_fn("micro.coverage_eval", [](const ParamMap& params,
                                            util::Rng& instance_rng,
                                            util::Rng&) {
    const int n = params.get_int("n", 256);
    const int reps = std::max(1, params.get_int("reps", 200));
    const auto f = submodular::CoverageFunction::random(n, 2 * n, 8, 2.0,
                                                        instance_rng);
    submodular::ItemSet s(n);
    for (int i = 0; i < n; i += 3) s.insert(i);
    double sum = 0.0;
    for (int r = 0; r < reps; ++r) sum += f.value(s);
    TrialResult out;
    out.objective = sum / reps;
    out.oracle_calls = static_cast<double>(reps);
    return out;
  }, check_coverage_sizes("n", 256));

  registry.add_fn("micro.lazy_greedy", [](const ParamMap& params,
                                          util::Rng& instance_rng,
                                          util::Rng&) {
    const int n = params.get_int("n", 256);
    const auto f = submodular::CoverageFunction::random(n, 2 * n, 8, 2.0,
                                                        instance_rng);
    const auto result =
        submodular::lazy_greedy_max_cardinality(f, std::max(1, n / 8));
    TrialResult out;
    out.objective = result.value;
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    return out;
  }, check_coverage_sizes("n", 256));

  registry.add_fn("micro.greedy_coverage", [](const ParamMap& params,
                                              util::Rng& instance_rng,
                                              util::Rng&) {
    // Plain greedy end-to-end on a random coverage instance: every round
    // scans all remaining items, so this kernel is dominated by the
    // incremental value_with() oracle (see docs/performance.md).
    const int n = params.get_int("n", 128);
    const auto f = submodular::CoverageFunction::random(n, 2 * n, 8, 2.0,
                                                        instance_rng);
    const auto result =
        submodular::greedy_max_cardinality(f, std::max(1, n / 8));
    TrialResult out;
    out.objective = result.value;
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    return out;
  }, check_coverage_sizes("n", 128));

  registry.add_fn("micro.greedy_facility", [](const ParamMap& params,
                                              util::Rng& instance_rng,
                                              util::Rng&) {
    // Lazy greedy on a dense facility-location instance: stresses the
    // best/second-best incremental evaluator rather than bitmask unions.
    const int n = params.get_int("n", 64);
    const auto f = submodular::FacilityLocationFunction::random(
        n, 4 * n, 2.0, instance_rng);
    const auto result =
        submodular::lazy_greedy_max_cardinality(f, std::max(1, n / 8));
    TrialResult out;
    out.objective = result.value;
    out.oracle_calls = static_cast<double>(result.oracle_calls);
    return out;
  });

  registry.add_fn("micro.power_sched", [](const ParamMap& params,
                                          util::Rng& instance_rng,
                                          util::Rng&) {
    const auto gen = feasible_params(params, kMicroPowerSched);
    const auto instance = scheduling::random_feasible_instance(gen,
                                                               instance_rng);
    const scheduling::RestartCostModel model(2.0);
    const auto result = scheduling::schedule_all_jobs(instance, model);
    TrialResult out;
    out.objective = result.schedule.energy_cost;
    out.oracle_calls = static_cast<double>(result.gain_evaluations);
    out.feasible = result.feasible;
    return out;
  }, check_feasible(kMicroPowerSched));
}

}  // namespace

void register_bench_solvers(SolverRegistry& registry) {
  register_ablation(registry);
  register_bicriteria(registry);
  register_setcover(registry);
  register_prize(registry);
  register_dp(registry);
  register_frontier(registry);
  register_hiring(registry);
  register_secretary_extensions(registry);
  register_micro(registry);
}

}  // namespace ps::engine
