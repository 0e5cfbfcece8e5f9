// Parallel scenario-sweep executor: fans (scenario, trial) work items
// across a util::ThreadPool, records per-trial results into index-addressed
// slots, and then aggregates serially in trial order — so every statistic
// except wall time is bit-identical for any thread count. An optional
// scenario cache keyed by (solver, parameter signature, seed, trial count)
// lets repeated sweeps and multi-sweep presets skip recomputation entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/registry.hpp"
#include "engine/scenario.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ps::engine {

/// Aggregated metrics of one scenario. Infeasible trials (solver could not
/// produce a solution, or no reference existed where one was requested) are
/// counted but excluded from the accumulators, so means stay comparable
/// across solvers. By default the accumulators are streaming-only (no
/// per-sample retention — a 100k-trial sweep must not buffer every reading),
/// so only mean/stddev/min/max/ci95 are available. With
/// SweepOptions::keep_samples (the `--tails` path) every deterministic
/// accumulator retains its per-trial samples, unlocking exact p50/p95/p99
/// percentiles; `samples_kept()` on an accumulator reports which mode a
/// result was aggregated (or cache-loaded) under. wall_ms never retains
/// samples — it is the one non-deterministic reading.
struct ScenarioResult {
  ScenarioSpec spec;
  util::Accumulator objective{/*keep_samples=*/false};
  /// objective / reference over trials with a positive reference — the
  /// empirical approximation / competitive ratio.
  util::Accumulator ratio{/*keep_samples=*/false};
  util::Accumulator cost{/*keep_samples=*/false};
  util::Accumulator oracle_calls{/*keep_samples=*/false};
  /// One streaming accumulator per named metric the solver reported,
  /// ordered by name. A metric reported by only some trials has a smaller
  /// count — that is how conditional readings aggregate.
  std::map<std::string, util::Accumulator> metrics;
  /// Wall time per trial; the one non-deterministic reading, excluded from
  /// CSV output unless asked for.
  util::Accumulator wall_ms{/*keep_samples=*/false};
  std::size_t infeasible = 0;
  std::size_t trials_run = 0;
};

/// Stable cache identity of a scenario: solver, full parameter signature,
/// the algo-param names (they change seed derivation), base seed, and trial
/// count.
std::string scenario_cache_key(const ScenarioSpec& spec);

/// Thread-safe map from scenario_cache_key to a completed ScenarioResult.
/// Lets a second invocation of the same scenario — another sweep in the same
/// preset, a repeated preset run, a multi-solver comparison re-using a
/// baseline — skip all trials. An insert under an existing key replaces the
/// entry: aggregates for a given key are deterministic, so the only real
/// upgrade is a recomputed result that now carries retained samples where
/// the old entry had none (a `--tails` run over a streaming-era cache).
///
/// The key identifies the scenario by solver NAME, not implementation: a
/// caller that overrides a registered solver (see register_builtin_solvers)
/// and runs against the same cache would be served the old implementation's
/// results. Use a private ScenarioCache (or clear()) when swapping solver
/// implementations under unchanged names.
class ScenarioCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };

  /// The process-wide cache used when SweepOptions::cache is null.
  static ScenarioCache& global();

  /// The cached result, or nullptr (counting a miss).
  std::shared_ptr<const ScenarioResult> find(const std::string& key);
  void insert(const std::string& key,
              std::shared_ptr<const ScenarioResult> result);

  /// The cached result without touching the hit/miss counters — for
  /// serialization and merge paths that probe rather than consume.
  std::shared_ptr<const ScenarioResult> peek(const std::string& key) const;

  /// All entries sorted by key — the deterministic iteration order used by
  /// ScenarioCacheStore::save.
  std::vector<std::pair<std::string, std::shared_ptr<const ScenarioResult>>>
  snapshot() const;

  Stats stats() const;
  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const ScenarioResult>>
      entries_;
  Stats stats_;
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial.
  std::size_t num_threads = 1;
  /// When true, scenarios are served from / recorded into the scenario
  /// cache, and duplicate scenarios within one run() execute only once.
  /// Off by default so that determinism tests re-running a sweep exercise
  /// the real computation.
  bool use_cache = false;
  /// Cache to use when use_cache is set; null = ScenarioCache::global().
  ScenarioCache* cache = nullptr;
  /// When true (the `--tails` path), aggregate with per-trial sample
  /// retention so exact p50/p95/p99 percentiles are available on every
  /// deterministic accumulator (wall_ms stays streaming-only). Cache
  /// entries without samples do not satisfy a keep_samples run — they are
  /// treated as misses and recomputed, and the recomputed entry (identical
  /// aggregates, now with samples) replaces them.
  bool keep_samples = false;
  /// With keep_samples: bound per-accumulator retention to at most this many
  /// readings via a per-scenario seeded reservoir (Algorithm R over the
  /// trial-order stream, seeded from the scenario cache key — deterministic
  /// for any thread count). 0 (the default) keeps every reading. Streaming
  /// statistics are unaffected; percentiles become order statistics of the
  /// retained subset. Mixing capped and uncapped runs over one cache file
  /// yields whichever retention wrote the entry first — keep a cache file to
  /// a single cap.
  std::size_t tails_cap = 0;
  /// Progress callback, invoked from worker threads after every completed
  /// trial with monotone running totals (cache-served and duplicate
  /// scenarios count as done from the start). Throttling is the callee's
  /// job — obs::ProgressMeter rate-limits itself — and the callback must be
  /// thread-safe. Null (the default) costs the hot loop nothing.
  std::function<void(std::size_t scenarios_done, std::size_t scenarios_total,
                     std::uint64_t trials_done, std::uint64_t trials_total)>
      progress;
};

/// Runs scenarios against a registry. Unknown solver names abort with a
/// message listing the registered keys (validate with
/// SolverRegistry::contains first for a graceful path).
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  std::vector<ScenarioResult> run(
      const SolverRegistry& registry,
      const std::vector<ScenarioSpec>& scenarios) const;

  std::vector<ScenarioResult> run(const SolverRegistry& registry,
                                  const SweepPlan& plan) const {
    return run(registry, plan.expand());
  }

 private:
  SweepOptions options_;
};

/// Runs one scenario's trials serially on the calling thread and aggregates
/// exactly the way SweepRunner::run does — same seed derivation, same
/// accumulator order — so the returned ScenarioResult is bit-identical to
/// the corresponding entry of a sweep over the same spec, for any sweep
/// thread count. This is the request path's engine primitive: SolveService
/// answers one scheduling request with one inline scenario, no thread pool
/// spin-up. The solver must exist in `registry` (callers validate; an
/// unknown name aborts like SweepRunner::run). Instrumented with the same
/// sweep.trials.run / sweep.trial.*_ns instruments, gated on obs::enabled().
ScenarioResult run_scenario_inline(const SolverRegistry& registry,
                                   const ScenarioSpec& spec);

/// Assembles the results of `scenarios` — the full plan, in plan order —
/// entirely from `cache`, without running a single trial. This is the
/// shard-merge path: per-shard processes each compute a disjoint subset of
/// the plan and persist their caches (ScenarioCacheStore); loading those
/// files into one cache and calling this yields the same ScenarioResult
/// sequence, and therefore byte-identical results_table/write_results_csv
/// output, as a single-process unsharded run. Returns false — after naming
/// the missing scenarios on stderr — when the cache does not cover the
/// plan (a shard leg missing from the union).
bool merge_scenario_results(const std::vector<ScenarioSpec>& scenarios,
                            const ScenarioCache& cache,
                            std::vector<ScenarioResult>& out);

/// Sorted union of the metric names appearing across `results` — the
/// deterministic column order shared by results_table and write_results_csv.
std::vector<std::string> metric_name_union(
    const std::vector<ScenarioResult>& results);

/// One row per scenario: solver, parameter signature, trial counts, the
/// objective / ratio / oracle summaries, then one mean column per named
/// metric in the union (blank where a scenario never reported the metric).
/// When any result retained samples (`--tails`), objective p50/p95/p99
/// columns join the summaries. `include_timing` appends the
/// (non-deterministic) mean wall-time column.
util::Table results_table(const std::vector<ScenarioResult>& results,
                          const std::string& caption,
                          bool include_timing = false);

/// The aggregated CSV as cell rows — row 0 is the header — in exactly the
/// schema docs/csv-schema.md specifies; results_csv_text joins them.
std::vector<std::vector<std::string>> results_csv_rows(
    const std::vector<ScenarioResult>& results, bool include_timing = false);

/// The aggregated CSV rendered to one string (RFC-4180 escaping, trailing
/// newline) — the bytes write_results_csv puts in the file. This is what
/// lets the report sink render figures without a CSV file round-trip.
std::string results_csv_text(const std::vector<ScenarioResult>& results,
                             bool include_timing = false);

/// Writes one aggregated row per scenario with the union of parameter names
/// as columns, the core statistics, and one `m_<name>` column per named
/// metric in the union. When any result retained samples (`--tails`), the
/// percentile block documented in docs/csv-schema.md joins the schema —
/// with retention off the emitted bytes are identical to what pre-tails
/// builds produced. Deterministic for fixed scenarios (wall-time columns
/// only with `include_timing`); statistics undefined for the trial count —
/// the ci95 column, say, needs two samples — emit empty cells, never
/// NaN. Written with util::write_file_if_changed: a file that already holds
/// these bytes is left untouched. Returns false — after printing a
/// diagnostic with the path to stderr — when the file cannot be written;
/// callers must treat that as fatal rather than shipping no results file.
bool write_results_csv(const std::vector<ScenarioResult>& results,
                       const std::string& path, bool include_timing = false);

}  // namespace ps::engine
