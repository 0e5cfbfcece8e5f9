// The dual of the prize-collecting problem: instead of "value at least Z at
// minimum energy", fix an ENERGY BUDGET E and maximize scheduled value.
// This is submodular maximization under a knapsack constraint — exactly the
// regime of the background results the paper builds on (Sviridenko [45],
// Section 3.4's offline comparator) — and rounds out the bicriteria story:
// sweeping E traces the same value/energy frontier from the other axis.
#pragma once

#include "scheduling/schedule.hpp"

namespace ps::scheduling {

struct BudgetScheduleOptions {
  IntervalGenerationOptions intervals;
};

struct BudgetScheduleResult {
  Schedule schedule;
  /// Value of the scheduled jobs.
  double value = 0.0;
  /// Energy actually spent (<= budget).
  double budget_used = 0.0;
};

/// Density greedy under the budget (pick the interval with the best value
/// gain per unit cost that still fits), combined with the best single
/// affordable interval — the classic partial-enumeration fix that makes the
/// greedy a constant-factor approximation for submodular knapsack.
BudgetScheduleResult schedule_max_value_with_energy_budget(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double energy_budget, const BudgetScheduleOptions& options = {});

/// Exact comparator by exhaustive enumeration (SlotSubsetCosts, at most
/// kMaxBruteForceSlots useful slots): maximum schedulable value over all
/// slot sets whose optimal interval cover fits the budget.
double brute_force_max_value_with_energy_budget(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double energy_budget);

}  // namespace ps::scheduling
