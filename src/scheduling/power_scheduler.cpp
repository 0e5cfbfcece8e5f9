#include "scheduling/power_scheduler.hpp"

#include "matching/hopcroft_karp.hpp"

namespace ps::scheduling {

void MatchingOracleUtility::gains_of(const core::CandidateSet* const* cands,
                                     std::size_t n, double* out) const {
  std::vector<const std::vector<int>*> lists(n);
  for (std::size_t j = 0; j < n; ++j) lists[j] = &cands[j]->items;
  std::vector<int> gains(n);
  oracle_.gains_of(lists.data(), n, gains.data());
  for (std::size_t j = 0; j < n; ++j) out[j] = gains[j];
}

PowerScheduleResult schedule_all_jobs(const SchedulingInstance& instance,
                                      const CostModel& cost_model,
                                      const PowerSchedulerOptions& options) {
  const int n = instance.num_jobs();
  const auto graph = instance.build_slot_job_graph();
  const IntervalPool pool =
      generate_interval_pool(instance, cost_model, options.intervals);

  core::BudgetedMaximizationOptions greedy_options;
  greedy_options.epsilon = options.epsilon > 0.0
                               ? options.epsilon
                               : 1.0 / (static_cast<double>(n) + 1.0);
  greedy_options.lazy = options.lazy;
  greedy_options.num_threads = options.num_threads;

  core::BudgetedMaximizationResult greedy;
  matching::MatchingUtilityFunction stateless(graph);
  if (options.use_incremental_oracle) {
    MatchingOracleUtility utility(graph);
    greedy = core::maximize_with_budget(utility, pool.candidates,
                                        static_cast<double>(n),
                                        greedy_options);
  } else {
    core::SetFunctionUtility utility(stateless);
    greedy = core::maximize_with_budget(utility, pool.candidates,
                                        static_cast<double>(n),
                                        greedy_options);
  }

  PowerScheduleResult result;
  result.utility = greedy.utility;
  result.gain_evaluations = greedy.gain_evaluations;
  result.num_candidates = pool.candidates.size();

  // Extract the placement with a fresh maximum matching over the awake slots
  // ("we just need to run the maximum bipartite matching algorithm to find
  // the appropriate schedule").
  submodular::ItemSet awake_slots(instance.num_slots());
  for (int id : greedy.picked_ids) {
    const AwakeInterval& iv = pool.interval_for_id(id);
    for (int t = iv.start; t < iv.end; ++t) {
      awake_slots.insert(instance.slot_index(iv.processor, t));
    }
  }
  const auto matching = matching::hopcroft_karp(graph, awake_slots);
  result.schedule.assignment.assign(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < n; ++j) {
    result.schedule.assignment[static_cast<std::size_t>(j)] =
        matching.match_y[static_cast<std::size_t>(j)];
  }
  result.feasible = matching.size == n;

  // Final polish: the raw picks may overlap (double-billing shared slots) or
  // stay awake in slots no job ended up using. Re-cover exactly the assigned
  // slots per processor with the exact min_cost_cover DP — never worse than
  // the raw picks under any cost model, so the O(B log n) guarantee is kept.
  cover_assignment(instance, cost_model, &result.schedule);
  return result;
}

}  // namespace ps::scheduling
