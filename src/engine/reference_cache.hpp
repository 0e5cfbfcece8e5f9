// Process-wide memo for expensive per-instance reference values (brute-force
// optima, exact DPs, exhaustive enumerations). The engine derives every
// trial's instance stream from the parameters only, so an N-solver
// comparison — or an algorithm-knob sweep whose knob is an algo_param —
// draws the *same* instance many times; without this cache each scenario
// would recompute the exponential comparator from scratch. Generalizes the
// one-off memoization the power-scheduler vs_opt path started with.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "util/status.hpp"

namespace ps::scheduling {
class SchedulingInstance;
struct RandomInstanceParams;
}  // namespace ps::scheduling

namespace ps::engine {

/// Returns the cached value under `key`, computing it with `compute` (and
/// storing the result) on a miss. Thread-safe; `compute` runs outside the
/// lock, so concurrent first requests for one key may compute it twice —
/// harmless for deterministic references.
///
/// Keys must uniquely identify the instance AND the reference semantics.
/// Where the instance has a serializer, use it; otherwise draw one raw
/// `instance_rng()` word *before* generating the instance and use it as a
/// stream fingerprint (the stream is a pure function of the instance
/// parameters and trial index, so the first word identifies it).
double cached_reference(const std::string& key,
                        const std::function<double()>& compute);

/// Exact all-jobs optimum (brute_force_min_cost_all_jobs under
/// RestartCostModel(alpha)) memoized under "power.opt|" + serialized
/// instance + "|" + %.17g alpha — the one key a sweep's vs_opt trials and a
/// served vs_opt request share, so either one warms the other. Returns -1
/// when the instance has no full schedule.
double power_opt_reference(const scheduling::SchedulingInstance& instance,
                           double alpha);

/// Usage error unless a processors x horizon slot grid is within
/// scheduling::kMaxBruteForceSlots — the Solver::check_params of every
/// solver whose trials price an exhaustive optimum on a generated instance
/// (its useful slots are a subset of the grid). `what` names the reference
/// in the message.
Status check_brute_force_grid(const std::string& what, int processors,
                              int horizon);

/// Usage error, naming the values, unless random_feasible_instance can draw
/// from `gen`: jobs, processors, horizon and window_length at least 1, and
/// no more jobs than the processors * horizon slots it plants them in. The
/// Solver::check_params of every solver that generates feasible instances.
Status check_feasible_generator(const scheduling::RandomInstanceParams& gen);

/// Usage error, with scheduling::random_instance_violation's text, unless
/// random_instance can draw from `gen`. The Solver::check_params of every
/// solver that generates random instances.
Status check_random_generator(const scheduling::RandomInstanceParams& gen);

struct ReferenceCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// Snapshot of the global cache's hit/miss counters (for tests and tuning).
ReferenceCacheStats reference_cache_stats();

/// Drops every cached value and zeroes the counters (tests only).
void clear_reference_cache();

}  // namespace ps::engine
