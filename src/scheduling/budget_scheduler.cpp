#include "scheduling/budget_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "matching/matching_oracle.hpp"
#include "scheduling/baselines.hpp"

namespace ps::scheduling {
namespace {

/// Builds the final schedule from an awake slot set: max-weight matching,
/// then exact min-cost cover of the assigned slots (never exceeds the sum
/// of the picked candidates' costs, so the budget is respected).
void finalize_budget(const SchedulingInstance& instance,
                     const CostModel& cost_model,
                     const matching::BipartiteGraph& graph,
                     const std::vector<double>& values,
                     const submodular::ItemSet& awake,
                     BudgetScheduleResult* result) {
  matching::WeightedMatchingOracle oracle(graph, values);
  awake.for_each([&](int slot) { oracle.add_x(slot); });

  result->schedule.assignment = oracle.match_y();
  result->value = oracle.value();
  cover_assignment(instance, cost_model, &result->schedule);
  result->budget_used = result->schedule.energy_cost;
}

}  // namespace

BudgetScheduleResult schedule_max_value_with_energy_budget(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double energy_budget, const BudgetScheduleOptions& options) {
  assert(energy_budget >= 0.0);
  const auto graph = instance.build_slot_job_graph();
  const auto values = instance.job_values();
  const IntervalPool pool =
      generate_interval_pool(instance, cost_model, options.intervals);

  // Density greedy: spend tracks the SUM of picked candidate costs, an
  // upper bound on the final cover cost, so staying under budget here
  // guarantees the final schedule does too.
  matching::WeightedMatchingOracle oracle(graph, values);
  submodular::ItemSet awake(instance.num_slots());
  std::vector<char> picked(pool.candidates.size(), 0);
  double spent = 0.0;
  for (;;) {
    int best = -1;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < pool.candidates.size(); ++i) {
      if (picked[i]) continue;
      const auto& cand = pool.candidates[i];
      if (spent + cand.cost > energy_budget + 1e-12) continue;
      const double gain = oracle.gain_of(cand.items);
      if (gain <= 1e-12) continue;
      const double ratio = gain / cand.cost;
      if (best == -1 || ratio > best_ratio) {
        best = static_cast<int>(i);
        best_ratio = ratio;
      }
    }
    if (best == -1) break;
    picked[static_cast<std::size_t>(best)] = 1;
    const auto& cand = pool.candidates[static_cast<std::size_t>(best)];
    spent += cand.cost;
    for (int slot : cand.items) {
      oracle.add_x(slot);
      awake.insert(slot);
    }
  }

  // Partial enumeration guard: the single best affordable candidate.
  int best_single = -1;
  double best_single_gain = 0.0;
  {
    matching::WeightedMatchingOracle empty(graph, values);
    for (std::size_t i = 0; i < pool.candidates.size(); ++i) {
      const auto& cand = pool.candidates[i];
      if (cand.cost > energy_budget + 1e-12) continue;
      const double gain = empty.gain_of(cand.items);
      if (gain > best_single_gain) {
        best_single = static_cast<int>(i);
        best_single_gain = gain;
      }
    }
  }
  if (best_single != -1 && best_single_gain > oracle.value()) {
    awake = submodular::ItemSet(instance.num_slots());
    for (int slot :
         pool.candidates[static_cast<std::size_t>(best_single)].items) {
      awake.insert(slot);
    }
  }

  BudgetScheduleResult result;
  finalize_budget(instance, cost_model, graph, values, awake, &result);
  return result;
}

double brute_force_max_value_with_energy_budget(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double energy_budget) {
  const SlotSubsetCosts subsets(instance, cost_model);
  const auto graph = instance.build_slot_job_graph();
  const auto values = instance.job_values();
  matching::WeightedMatchingUtilityFunction utility(graph, values);

  double best = 0.0;
  submodular::ItemSet slots(instance.num_slots());
  subsets.for_each_mask(kInfiniteCost, [&](std::uint32_t mask, double cost) {
    if (cost > energy_budget + 1e-9 || !std::isfinite(cost)) return;
    subsets.to_item_set(mask, &slots);
    best = std::max(best, utility.value(slots));
  });
  return best;
}

}  // namespace ps::scheduling
