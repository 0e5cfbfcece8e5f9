// The Theorem 2.2.1 scheduler: O(log n)-approximate power minimization for
// scheduling ALL jobs on parallel machines.
//
// Pipeline (Section 2.2): build the slot/job bipartite graph; treat each
// (processor, interval) pair as a candidate set of slots priced by the cost
// model; run the Lemma 2.1.2 greedy on the matching utility F (submodular by
// Lemma 2.2.2) with target x = n and ε = 1/(n+1), which forces utility
// exactly n because F is integer-valued; finally extract the actual job
// placement with a maximum bipartite matching over the chosen slots.
#pragma once

#include <cstddef>

#include "core/budgeted_maximization.hpp"
#include "matching/matching_oracle.hpp"
#include "scheduling/schedule.hpp"

namespace ps::scheduling {

/// IncrementalUtility over the cardinality matching oracle: a gain query
/// augments a thread-local scratch copy of the oracle, and a batch runs a
/// chain of candidates that extend one another on one copy
/// (IncrementalMatchingOracle::gains_of) — the fast path the Lemma 2.2.2
/// structure makes possible (ablation A2 compares against the stateless
/// recompute adapter).
class MatchingOracleUtility final : public core::IncrementalUtility {
 public:
  explicit MatchingOracleUtility(const matching::BipartiteGraph& graph)
      : oracle_(graph) {}

  double current() const override { return oracle_.size(); }
  double gain_of(const std::vector<int>& items) const override {
    return oracle_.gain_of(items);
  }
  void gains_of(const core::CandidateSet* const* cands, std::size_t n,
                double* out) const override;
  void commit(const std::vector<int>& items) override {
    for (int x : items) oracle_.add_x(x);
  }

  const matching::IncrementalMatchingOracle& oracle() const { return oracle_; }

 private:
  matching::IncrementalMatchingOracle oracle_;
};

struct PowerSchedulerOptions {
  /// ε for the greedy; 0 selects the Theorem 2.2.1 value 1/(n+1).
  double epsilon = 0.0;
  /// Lazy candidate evaluation (same output, fewer oracle calls).
  bool lazy = true;
  /// Threads for the non-lazy evaluation sweep.
  std::size_t num_threads = 1;
  /// Use the incremental matching oracle (fast path) instead of the
  /// stateless SetFunction recompute (reference path).
  bool use_incremental_oracle = true;
  /// Candidate pool generation knobs.
  IntervalGenerationOptions intervals;
};

struct PowerScheduleResult {
  Schedule schedule;
  /// Whether all jobs were scheduled.
  bool feasible = false;
  /// Greedy telemetry.
  double utility = 0.0;
  std::size_t gain_evaluations = 0;
  std::size_t num_candidates = 0;
};

/// Schedules all n jobs if possible. If some schedule of cost B exists, the
/// returned schedule costs O(B log n). `feasible` is false when even the
/// union of all finite-cost intervals cannot host every job.
PowerScheduleResult schedule_all_jobs(const SchedulingInstance& instance,
                                      const CostModel& cost_model,
                                      const PowerSchedulerOptions& options =
                                          {});

}  // namespace ps::scheduling
