#include "scheduling/prize_collecting.hpp"

#include <algorithm>
#include <cassert>

namespace ps::scheduling {
namespace {
constexpr double kValueTol = 1e-9;

/// Builds the final schedule from a slot set: recompute the max-weight
/// matching over the awake slots, then cover exactly the assigned slots per
/// processor with the exact min-cost DP (never worse than the raw picks).
void finalize(const SchedulingInstance& instance, const CostModel& cost_model,
              const matching::BipartiteGraph& graph,
              const std::vector<double>& values,
              const submodular::ItemSet& awake_slots,
              PrizeCollectingResult* result) {
  matching::WeightedMatchingOracle oracle(graph, values);
  awake_slots.for_each([&](int slot) { oracle.add_x(slot); });

  result->schedule.assignment = oracle.match_y();
  result->value = oracle.value();
  cover_assignment(instance, cost_model, &result->schedule);
}

}  // namespace

PrizeCollectingResult schedule_value_fraction(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double value_target_z, const PrizeCollectingOptions& options) {
  const auto graph = instance.build_slot_job_graph();
  const auto values = instance.job_values();
  const IntervalPool pool =
      generate_interval_pool(instance, cost_model, options.intervals);

  core::BudgetedMaximizationOptions greedy_options;
  greedy_options.epsilon = options.epsilon;
  greedy_options.lazy = options.lazy;
  greedy_options.num_threads = options.num_threads;

  WeightedOracleUtility utility(graph, values);
  const auto greedy = core::maximize_with_budget(
      utility, pool.candidates, value_target_z, greedy_options);

  PrizeCollectingResult result;
  result.gain_evaluations = greedy.gain_evaluations;
  result.num_candidates = pool.candidates.size();

  submodular::ItemSet awake(instance.num_slots());
  for (int id : greedy.picked_ids) {
    const AwakeInterval& iv = pool.interval_for_id(id);
    for (int t = iv.start; t < iv.end; ++t) {
      awake.insert(instance.slot_index(iv.processor, t));
    }
  }
  finalize(instance, cost_model, graph, values, awake, &result);
  result.reached_target =
      result.value >= (1.0 - options.epsilon) * value_target_z - kValueTol;
  return result;
}

PrizeCollectingResult schedule_value_at_least(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double value_target_z, const PrizeCollectingOptions& options) {
  const int n = instance.num_jobs();
  const double vmin = instance.min_value();
  const double vmax = instance.max_value();

  // Theorem 2.3.3's ε: the residual ε·Z <= ε·n·vmax = vmin, so one more
  // positive-gain interval (gains are job values >= vmin) closes the gap.
  PrizeCollectingOptions fraction_options = options;
  fraction_options.epsilon =
      std::min(0.5, vmin / (static_cast<double>(n) * vmax));

  PrizeCollectingResult result = schedule_value_fraction(
      instance, cost_model, value_target_z, fraction_options);
  if (result.value >= value_target_z - kValueTol) {
    result.reached_target = true;
    return result;
  }

  // Completion step: among all intervals, repeatedly add the cheapest one
  // with positive value gain. The proof guarantees one round suffices when a
  // value-Z schedule exists; the loop is a defensive generalization that also
  // terminates cleanly on infeasible instances.
  const auto graph = instance.build_slot_job_graph();
  const auto values = instance.job_values();
  const IntervalPool pool =
      generate_interval_pool(instance, cost_model, options.intervals);

  submodular::ItemSet awake(instance.num_slots());
  for (const auto& iv : result.schedule.intervals) {
    for (int t = iv.start; t < iv.end; ++t) {
      awake.insert(instance.slot_index(iv.processor, t));
    }
  }
  matching::WeightedMatchingOracle oracle(graph, values);
  awake.for_each([&](int slot) { oracle.add_x(slot); });

  for (int round = 0; round < n && oracle.value() < value_target_z - kValueTol;
       ++round) {
    int best = -1;
    double best_cost = kInfiniteCost;
    for (std::size_t i = 0; i < pool.candidates.size(); ++i) {
      const auto& cand = pool.candidates[i];
      if (cand.cost >= best_cost) continue;
      if (oracle.gain_of(cand.items) > kValueTol) {
        best = static_cast<int>(i);
        best_cost = cand.cost;
      }
    }
    if (best == -1) break;  // no interval helps: Z is unreachable
    for (int slot : pool.candidates[static_cast<std::size_t>(best)].items) {
      oracle.add_x(slot);
      awake.insert(slot);
    }
  }

  finalize(instance, cost_model, graph, values, awake, &result);
  result.reached_target = result.value >= value_target_z - kValueTol;
  return result;
}

}  // namespace ps::scheduling
