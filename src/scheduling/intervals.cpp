#include "scheduling/intervals.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace ps::scheduling {

std::string AwakeInterval::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "P%d[%d,%d)", processor, start, end);
  return buf;
}

std::vector<int> slots_of(const AwakeInterval& interval,
                          const SchedulingInstance& instance) {
  std::vector<int> slots;
  slots.reserve(static_cast<std::size_t>(interval.length()));
  for (int t = interval.start; t < interval.end; ++t) {
    slots.push_back(instance.slot_index(interval.processor, t));
  }
  return slots;
}

IntervalPool generate_interval_pool(const SchedulingInstance& instance,
                                    const CostModel& cost_model,
                                    const IntervalGenerationOptions& options) {
  const int horizon = instance.horizon();
  const int max_len =
      options.max_length > 0 ? std::min(options.max_length, horizon) : horizon;

  IntervalPool pool;
  for (int p = 0; p < instance.num_processors(); ++p) {
    for (int start = 0; start < horizon; ++start) {
      if (options.only_full_horizon && start != 0) break;
      const int min_end = options.only_full_horizon ? horizon : start + 1;
      for (int end = min_end; end <= std::min(start + max_len, horizon);
           ++end) {
        const double c = cost_model.cost(p, start, end);
        if (options.drop_infinite && (!std::isfinite(c) || c <= 0.0)) continue;
        const AwakeInterval interval{p, start, end};
        const int id = static_cast<int>(pool.intervals.size());
        pool.candidates.push_back(
            core::CandidateSet{slots_of(interval, instance), c, id});
        pool.intervals.push_back(interval);
      }
    }
  }
  return pool;
}

std::size_t prune_dominated_candidates(IntervalPool* pool) {
  assert(pool != nullptr);
  const auto& intervals = pool->intervals;
  auto dominates = [&](const core::CandidateSet& a,
                       const core::CandidateSet& b) {
    // Does candidate a dominate candidate b?
    const AwakeInterval& ia = intervals[static_cast<std::size_t>(a.id)];
    const AwakeInterval& ib = intervals[static_cast<std::size_t>(b.id)];
    if (ia.processor != ib.processor) return false;
    if (ia.start > ib.start || ia.end < ib.end) return false;
    if (a.cost > b.cost) return false;
    // Break exact ties (same span, same cost) by id so only one survives.
    if (ia.start == ib.start && ia.end == ib.end && a.cost == b.cost) {
      return a.id < b.id;
    }
    return true;
  };

  std::vector<core::CandidateSet> kept;
  kept.reserve(pool->candidates.size());
  for (const auto& cand : pool->candidates) {
    bool dominated = false;
    for (const auto& other : pool->candidates) {
      if (other.id != cand.id && dominates(other, cand)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(cand);
  }
  const std::size_t removed = pool->candidates.size() - kept.size();
  pool->candidates = std::move(kept);
  return removed;
}

double total_cost(const std::vector<AwakeInterval>& intervals,
                  const CostModel& cost_model) {
  double total = 0.0;
  for (const auto& iv : intervals) {
    total += cost_model.cost(iv.processor, iv.start, iv.end);
  }
  return total;
}

CoverSpans::CoverSpans(int processor, int horizon,
                       const CostModel& cost_model)
    : processor_(processor),
      horizon_(horizon),
      best_(static_cast<std::size_t>(horizon) *
            static_cast<std::size_t>(horizon)) {
  // best(lo, hi) is the first (cost, start, end) minimum over the intervals
  // [s, e) with s <= lo < hi < e: those of best(lo - 1, hi), those of
  // best(lo, hi + 1), and [lo, hi + 1) itself. Sweeping lo up and hi down
  // fills each entry from two finished neighbours.
  auto before = [](const Span& a, const Span& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.start != b.start ? a.start < b.start : a.end < b.end;
  };
  for (int lo = 0; lo < horizon; ++lo) {
    for (int hi = horizon - 1; hi >= lo; --hi) {
      double c = cost_model.cost(processor, lo, hi + 1);
      // A NaN never won the old strict-< scan; as +inf it never wins here.
      if (std::isnan(c)) c = kInfiniteCost;
      Span best{c, lo, hi + 1};
      if (hi + 1 < horizon && before(at(lo, hi + 1), best)) {
        best = at(lo, hi + 1);
      }
      if (lo > 0 && before(at(lo - 1, hi), best)) best = at(lo - 1, hi);
      best_[index(lo, hi)] = best;
    }
  }
}

double CoverSpans::cheapest(int lo, int hi, AwakeInterval* out) const {
  const Span& span = at(lo, hi);
  *out = AwakeInterval{processor_, span.start, span.end};
  return span.cost;
}

std::vector<AwakeInterval> min_cost_cover(const CoverSpans& spans,
                                          const std::vector<int>& required_times,
                                          double* cost) {
  assert(cost != nullptr);
  if (required_times.empty()) {
    *cost = 0.0;
    return {};
  }
  assert(std::is_sorted(required_times.begin(), required_times.end()));
  const auto m = required_times.size();

  // dp[i]: cheapest cover of required slots 0..i-1, whose last interval
  // covers slots split[i]..i-1.
  std::vector<double> dp(m + 1, kInfiniteCost);
  std::vector<std::size_t> split(m + 1, 0);
  std::vector<AwakeInterval> chosen_span(m + 1);
  dp[0] = 0.0;
  for (std::size_t i = 1; i <= m; ++i) {
    const int hi = required_times[i - 1];
    for (std::size_t j = 0; j < i; ++j) {
      if (!std::isfinite(dp[j])) continue;
      AwakeInterval span;
      const double c = spans.cheapest(required_times[j], hi, &span);
      if (dp[j] + c < dp[i]) {
        dp[i] = dp[j] + c;
        split[i] = j;
        chosen_span[i] = span;
      }
    }
  }

  *cost = dp[m];
  std::vector<AwakeInterval> result;
  if (!std::isfinite(dp[m])) return result;
  for (std::size_t i = m; i > 0; i = split[i]) {
    result.push_back(chosen_span[i]);
  }
  std::reverse(result.begin(), result.end());
  return result;
}

}  // namespace ps::scheduling
