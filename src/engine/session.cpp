#include "engine/session.hpp"

#include <cstdio>
#include <iterator>
#include <memory>
#include <utility>

#include "engine/cache_store.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace ps::engine {
namespace {

/// The first scenario whose solver rejects its parameters, as a usage
/// error — checked over the whole plan, so every shard of it agrees.
/// Ad-hoc plans only: a preset's parameters are compiled in, never taken
/// from the command line.
Status check_scenarios(const SolverRegistry& registry,
                       const std::vector<ScenarioSpec>& scenarios) {
  for (const auto& spec : scenarios) {
    const Solver* solver = registry.find(spec.solver);
    if (solver == nullptr) continue;
    if (Status status = solver->check_params(spec.params); !status.ok()) {
      return Status::usage("scenario " + spec.label() + ": " +
                           status.message());
    }
  }
  return Status();
}

}  // namespace

Session::Session(RunConfig config)
    : config_(std::move(config)),
      registry_(SolverRegistry::with_builtins()) {}

Session::~Session() = default;

void Session::add_sink(std::unique_ptr<ResultSink> sink) {
  sinks_.push_back(std::move(sink));
}

std::size_t Session::num_scenarios() const {
  std::size_t total = 0;
  for (const auto& unit : units_) total += unit.scenarios.size();
  return total;
}

Status Session::prepare_units() {
  if (preset_ != nullptr) {
    // Expand every sweep up front and shard over the concatenated grid with
    // global indices, so a shard can cut across sweep boundaries and the
    // union over shards is exactly the whole preset.
    std::size_t global_index = 0;
    for (const auto& preset_sweep : preset_->sweeps) {
      SweepPlan plan = preset_sweep.plan;
      if (config_.trials > 0) plan.trials = config_.trials;
      if (config_.seed_given) plan.seed = config_.seed;
      if (units_.empty()) effective_seed_ = plan.seed;
      std::vector<ScenarioSpec> scenarios = plan.expand();
      if (config_.shard_count > 1) {
        std::vector<ScenarioSpec> mine;
        for (auto& spec : scenarios) {
          if (global_index++ % config_.shard_count == config_.shard_index) {
            mine.push_back(std::move(spec));
          }
        }
        scenarios = std::move(mine);
      }
      units_.push_back({preset_sweep.caption, std::move(scenarios)});
    }
    return Status();
  }

  SweepPlan plan = config_.plan;
  if (config_.trials > 0) plan.trials = config_.trials;
  if (config_.seed_given) plan.seed = config_.seed;
  if (plan.trials <= 0) {
    return Status::usage("--trials must be positive");
  }
  for (const auto& name : plan.solvers) {
    if (!registry_.contains(name)) {
      return Status::usage("unknown solver '" + name +
                           "'\nregistered: " + registry_.names_joined());
    }
  }
  // An algo param that names nothing in the plan would silently change
  // nothing but the cache key — reject the typo instead of falling through.
  for (const auto& name : plan.algo_params) {
    bool found = plan.base_params.has(name);
    for (const auto& axis : plan.axes) found |= axis.name == name;
    if (!found) {
      return Status::usage("--algo-param '" + name +
                           "' names no --grid axis or --param of the sweep");
    }
  }
  std::vector<ScenarioSpec> scenarios = plan.expand();
  if (Status status = check_scenarios(registry_, scenarios); !status.ok()) {
    return status;
  }
  if (config_.shard_count > 1) {
    scenarios = shard_scenarios(scenarios, config_.shard_index,
                                config_.shard_count);
  }
  effective_seed_ = plan.seed;
  effective_trials_ = plan.trials;
  units_.push_back({"sweep results (seed " + std::to_string(plan.seed) + ")",
                    std::move(scenarios)});
  return Status();
}

Status Session::prepare() {
  if (prepared_) return Status();

  if (config_.shard_count == 0 ||
      config_.shard_index >= config_.shard_count) {
    return Status::usage(
        "bad shard " + std::to_string(config_.shard_index) + "/" +
        std::to_string(config_.shard_count) + " (want I/N with 0 <= I < N)");
  }
  if (!config_.merge_files.empty() && config_.shard_count != 1) {
    return Status::usage(
        "merge mode assembles the full plan and cannot be combined with a "
        "shard selection");
  }
  if (config_.trials < 0) {
    return Status::usage("--trials must be positive");
  }
  if (config_.tails_cap > 0 && !config_.tails) {
    return Status::usage("--tails-cap requires --tails");
  }

  if (!config_.preset.empty()) {
    preset_ = find_bench_preset(config_.preset);
    if (preset_ == nullptr) {
      return Status::usage("unknown preset '" + config_.preset +
                           "'\navailable presets: " + preset_names_joined());
    }
  } else if (config_.plan.solvers.empty()) {
    return Status::usage(
        "nothing to run: pass a preset or an ad-hoc solver list\n"
        "registered solvers: " + registry_.names_joined() +
        "\navailable presets: " + preset_names_joined());
  }

  if (Status status = prepare_units(); !status.ok()) return status;

  sweep_options_.num_threads =
      config_.num_threads >= 0 ? static_cast<std::size_t>(config_.num_threads)
      : preset_ != nullptr     ? preset_->default_threads
                               : 0;
  // Ad-hoc plans never touch the process-global cache (determinism tests
  // re-running a sweep must exercise the real computation); presets opt out
  // via use_cache. A file-scoped cache below overrides either way.
  sweep_options_.use_cache = preset_ != nullptr && config_.use_cache;
  sweep_options_.cache = nullptr;
  sweep_options_.keep_samples = config_.tails;
  sweep_options_.tails_cap = config_.tails_cap;

  // Creating the cache file's parent directory is CacheFileSink::prepare's
  // job — a cache_file with no sink attached must not leave directories
  // behind as a side effect.
  if (!config_.cache_file.empty() || !config_.merge_files.empty()) {
    if (!setup_file_cache(config_.cache_file, config_.merge_files,
                          file_cache_, sweep_options_)) {
      // The loaders already printed the precise diagnostic with the path.
      return Status::runtime(
          config_.merge_files.empty()
              ? "FAILED to load scenario cache '" + config_.cache_file + "'"
              : "FAILED to load one or more merge cache files");
    }
  }

  timing_ = (preset_ != nullptr && preset_->timing) || config_.timing;
  prepared_ = true;
  return Status();
}

Status Session::run() {
  // Phase spans mirror the run structure: resolve-plan -> (run -> sink) per
  // sweep unit -> report. They cost nothing unless metrics or tracing are
  // on, and they only ever write to the obs registry / trace recorder, so
  // the primary outputs stay byte-identical either way.
  obs::PhaseTimer resolve_span("session.resolve_plan");
  const Status prep_status = prepare();
  resolve_span.stop();
  if (!prep_status.ok()) return prep_status;

  SinkContext context;
  context.preset = preset_;
  context.seed = effective_seed_;
  context.timing = timing_;
  context.file_cache = sweep_options_.cache != nullptr ? &file_cache_ : nullptr;
  context.cache_file = config_.cache_file;

  for (const auto& sink : sinks_) {
    if (Status status = sink->prepare(context); !status.ok()) return status;
  }

  const bool merge_mode = !config_.merge_files.empty();
  if (config_.verbose) {
    if (merge_mode) {
      std::fprintf(stderr,
                   "merge: assembling %zu scenario(s) from %zu cache "
                   "file(s)\n",
                   num_scenarios(), config_.merge_files.size());
    } else if (preset_ == nullptr) {
      const std::string threads_text =
          sweep_options_.num_threads == 0
              ? "hardware"
              : std::to_string(sweep_options_.num_threads);
      std::fprintf(stderr,
                   "sweep: %zu scenario(s) x %d trial(s), %s threads",
                   num_scenarios(), effective_trials_, threads_text.c_str());
      if (config_.shard_count > 1) {
        std::fprintf(stderr, "  [shard %zu/%zu]", config_.shard_index,
                     config_.shard_count);
      }
      std::fprintf(stderr, "\n");
    }
  }

  // Session-wide progress totals: the per-unit runner reports only the
  // trials it actually executes, so the offsets advance by each unit's
  // planned size once the unit completes (cache-served trials show up as a
  // jump rather than never completing).
  std::unique_ptr<obs::ProgressMeter> meter;
  std::size_t scenario_offset = 0;
  std::uint64_t trials_offset = 0;
  SweepOptions run_options = sweep_options_;
  if (config_.progress && !merge_mode) {
    std::uint64_t total_trials = 0;
    for (const auto& unit : units_) {
      for (const auto& spec : unit.scenarios) {
        if (spec.trials > 0) {
          total_trials += static_cast<std::uint64_t>(spec.trials);
        }
      }
    }
    meter = std::make_unique<obs::ProgressMeter>(num_scenarios(),
                                                 total_trials);
    run_options.progress = [&meter, &scenario_offset, &trials_offset](
                               std::size_t scenarios_done, std::size_t,
                               std::uint64_t trials_done, std::uint64_t) {
      meter->on_progress(scenario_offset + scenarios_done,
                         trials_offset + trials_done);
    };
  }

  const SweepRunner runner(run_options);
  std::vector<ScenarioResult> all;
  Status deferred;
  bool first = true;
  for (std::size_t i = 0; i < units_.size(); ++i) {
    std::vector<ScenarioResult> results;
    if (merge_mode) {
      if (!merge_scenario_results(units_[i].scenarios, file_cache_,
                                  results)) {
        // merge_scenario_results already named the missing scenarios.
        return Status::runtime(
            "merge cache files do not cover the plan (missing scenarios "
            "listed above)");
      }
      if (config_.tails) {
        // A tails merge can only emit percentile columns when every shard
        // retained its samples; a streaming-only entry would silently
        // produce empty percentile cells, so fail loudly instead.
        for (const auto& result : results) {
          if (!result.objective.samples_kept()) {
            return Status::runtime(
                "--tails merge: cached entry for scenario " +
                result.spec.label() +
                " carries no samples — rerun the shards with --tails");
          }
        }
      }
    } else {
      obs::PhaseTimer run_span("session.run");
      results = runner.run(registry_, units_[i].scenarios);
      run_span.stop();
      scenario_offset += units_[i].scenarios.size();
      for (const auto& spec : units_[i].scenarios) {
        if (spec.trials > 0) {
          trials_offset += static_cast<std::uint64_t>(spec.trials);
        }
      }
    }
    SweepBatch batch;
    batch.preset = preset_;
    batch.sweep_index = i;
    batch.first = first;
    batch.caption = units_[i].caption;
    batch.timing = timing_;
    batch.results = &results;
    obs::PhaseTimer sink_span("session.sink");
    for (const auto& sink : sinks_) {
      if (Status status = sink->consume(batch);
          !status.ok() && deferred.ok()) {
        deferred = status;
      }
    }
    sink_span.stop();
    all.insert(all.end(), std::make_move_iterator(results.begin()),
               std::make_move_iterator(results.end()));
    first = false;
  }
  if (meter != nullptr) meter->finish(scenario_offset, trials_offset);

  context.all_results = &all;
  obs::PhaseTimer report_span("session.report");
  for (const auto& sink : sinks_) {
    if (Status status = sink->finish(context); !status.ok()) return status;
  }
  report_span.stop();
  return deferred;
}

}  // namespace ps::engine
