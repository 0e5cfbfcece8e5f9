// A concrete schedule (awake intervals + job placements) and its independent
// validator. Every scheduler in this library emits a Schedule, and every test
// and experiment validates it through validate_schedule so that correctness
// never rests on the scheduler's own bookkeeping.
#pragma once

#include <string>
#include <vector>

#include "scheduling/cost_model.hpp"
#include "scheduling/instance.hpp"
#include "scheduling/intervals.hpp"

namespace ps::scheduling {

/// A feasible (or claimed-feasible) output: which intervals are on, and
/// where each job runs.
struct Schedule {
  std::vector<AwakeInterval> intervals;
  /// assignment[j] = global slot index for job j, or -1 if unscheduled.
  std::vector<int> assignment;
  /// Σ cost of `intervals` (under the scheduler's cost model).
  double energy_cost = 0.0;

  int num_scheduled() const;
  /// Σ value of scheduled jobs.
  double scheduled_value(const SchedulingInstance& instance) const;
};

/// The final polish every scheduler ends with: replaces `intervals` and
/// `energy_cost` with the exact cover of the slots `assignment` uses — per
/// processor in order, its assigned times sorted and priced by
/// min_cost_cover. Never costlier than any awake set hosting the same
/// assignment, under every cost model.
void cover_assignment(const SchedulingInstance& instance,
                      const CostModel& cost_model, Schedule* schedule);

struct ValidationReport {
  bool ok = true;
  std::string message;
};

/// Checks, independently of any scheduler:
///  * every assigned slot is admissible for its job (in Job::allowed);
///  * no two jobs share a slot;
///  * every assigned slot lies under some chosen awake interval on the same
///    processor ("jobs are scheduled only during awake time slots");
///  * intervals are within [0, horizon) and well-formed;
///  * energy_cost equals the recomputed total interval cost (tolerance 1e-6);
///  * if `require_all_jobs`, every job is scheduled.
ValidationReport validate_schedule(const Schedule& schedule,
                                   const SchedulingInstance& instance,
                                   const CostModel& cost_model,
                                   bool require_all_jobs);

}  // namespace ps::scheduling
