// Awake intervals and candidate generation: each candidate of the Lemma
// 2.1.2 framework is "a pair of a machine and a time interval" contributing
// that machine's slots over the interval, priced by the cost model.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/budgeted_maximization.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/instance.hpp"

namespace ps::scheduling {

/// One awake interval [start, end) on a processor.
struct AwakeInterval {
  int processor = 0;
  int start = 0;
  int end = 0;  // exclusive

  int length() const { return end - start; }
  bool contains(int time) const { return start <= time && time < end; }
  std::string to_string() const;
  bool operator==(const AwakeInterval&) const = default;
};

/// Global slot indices covered by the interval.
std::vector<int> slots_of(const AwakeInterval& interval,
                          const SchedulingInstance& instance);

/// A priced candidate: the interval together with its CandidateSet encoding
/// for the greedy (items = covered slot indices, cost = model cost, id =
/// index into the pool).
struct IntervalPool {
  std::vector<AwakeInterval> intervals;
  std::vector<core::CandidateSet> candidates;

  const AwakeInterval& interval_for_id(int id) const {
    return intervals[static_cast<std::size_t>(id)];
  }
};

struct IntervalGenerationOptions {
  /// Cap on interval length (0 = horizon). The full pool has
  /// p · T·(T+1)/2 intervals; capping trades optimality for pool size.
  int max_length = 0;
  /// Generate only the p whole-horizon intervals [0, horizon) — the natural
  /// pool for the Theorem .1.2 Set-Cover regime, where interval cost is flat
  /// and waking a processor twice is never useful.
  bool only_full_horizon = false;
  /// Intervals with infinite or non-positive cost are always dropped.
  bool drop_infinite = true;
};

/// Enumerates every interval on every processor (subject to options) and
/// prices it. This realizes the paper's "explicitly given in the input"
/// candidate collection.
IntervalPool generate_interval_pool(const SchedulingInstance& instance,
                                    const CostModel& cost_model,
                                    const IntervalGenerationOptions& options =
                                        {});

/// Removes candidates dominated by another candidate: same processor,
/// covering interval (superset of slots), and cost no higher. Dominated
/// candidates can never be part of a unique optimum, and greedy never
/// benefits from them, so pruning preserves the output while shrinking the
/// pool (dramatic under flat costs, a no-op under strictly length-increasing
/// ones). Interval ids remain valid; returns the number removed.
std::size_t prune_dominated_candidates(IntervalPool* pool);

/// Total cost of a set of intervals under the model.
double total_cost(const std::vector<AwakeInterval>& intervals,
                  const CostModel& cost_model);

/// The cheapest single awake interval over every span of times on one
/// processor, tabulated once: cheapest(lo, hi) is the first minimum by
/// (cost, start, end) over the intervals [s, e) with s <= lo and e > hi —
/// the interval a scan of s ascending, then e ascending, keeps under strict
/// `<`. Construction makes horizon·(horizon+1)/2 cost-model calls and
/// O(horizon²) comparisons; memory is horizon² entries of 16 bytes (1 MiB
/// at horizon 256). Read-only afterwards, so threads may share one.
class CoverSpans {
 public:
  CoverSpans(int processor, int horizon, const CostModel& cost_model);

  int processor() const { return processor_; }
  int horizon() const { return horizon_; }

  /// Cost of the cheapest interval containing times lo..hi
  /// (0 <= lo <= hi < horizon), written to *out; kInfiniteCost when none
  /// is finite, in which case *out is meaningless.
  double cheapest(int lo, int hi, AwakeInterval* out) const;

 private:
  struct Span {
    double cost = kInfiniteCost;
    int start = 0;
    int end = 0;
  };

  std::size_t index(int lo, int hi) const {
    return static_cast<std::size_t>(lo) * static_cast<std::size_t>(horizon_) +
           static_cast<std::size_t>(hi);
  }
  const Span& at(int lo, int hi) const { return best_[index(lo, hi)]; }

  int processor_;
  int horizon_;
  std::vector<Span> best_;
};

/// Minimum-cost collection of intervals on spans.processor() covering all
/// of `required_times` (sorted, within [0, horizon)), by the
/// consecutive-group DP: any interval covers a consecutive run of required
/// slots, so an optimal cover partitions them into runs, each priced by one
/// table lookup — O(m²) for m required times. Exact for every cost model.
/// Returns the chosen intervals; total cost in *cost (kInfiniteCost if no
/// finite cover exists).
std::vector<AwakeInterval> min_cost_cover(const CoverSpans& spans,
                                          const std::vector<int>& required_times,
                                          double* cost);

}  // namespace ps::scheduling
