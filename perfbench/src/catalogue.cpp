// Workload `catalogue`: every preset of bench_presets() at its default plan,
// trials and seed, each run through a Session with CSV and SVG-report sinks
// — what reproducing the paper costs a user. Presets that default to
// hardware concurrency run at a fixed 4 threads; presets pinned to 1
// thread keep 1. The global scenario and reference caches are cleared
// before every cold pass, so it computes rather than replays (`cold_s`).
// The warm pass that follows clears only the scenario cache: every trial
// runs again, but each brute-force optimum comes from the reference cache
// the cold pass filled (`warm_s`), so cold minus warm is what pricing the
// references costs. The seed only permutes the order presets run in; the
// paper's inputs stay fixed.
//
// Traced mode adds a serial replay of every trial the pass computes,
// through Solver::run_trial with the scenario's derived seeds, and passes
// whose sinks and prepare() are timed from outside.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common.hpp"
#include "engine/bench_presets.hpp"
#include "engine/reference_cache.hpp"
#include "engine/session.hpp"
#include "report/csv_table.hpp"
#include "report/report_builder.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ps::engine::BenchPreset;

constexpr int kThreads = 4;

int preset_threads(const BenchPreset& preset) {
  return preset.default_threads == 0 ? kThreads
                                     : static_cast<int>(preset.default_threads);
}

std::string family_of(const std::string& solver) {
  return solver.substr(0, solver.find('.'));
}

/// Empties the global scenario cache and, unless `keep_reference`, the
/// reference cache.
void clear_global_caches(bool keep_reference = false) {
  ps::engine::ScenarioCache::global().clear();
  if (!keep_reference) ps::engine::clear_reference_cache();
}

/// Timings of one preset within a pass (the sink/prepare fields are only
/// filled by timed passes).
struct PresetTiming {
  bool ok = false;
  std::uint64_t wall_ns = 0;  // Session construction through run()
  std::uint64_t run_ns = 0;
  std::uint64_t prepare_ns = 0;
  std::uint64_t csv_ns = 0;
  std::uint64_t report_ns = 0;
};

struct Pass {
  double wall_s = 0.0;
  std::vector<PresetTiming> presets;  // in catalogue order
};

/// One full catalogue pass in `order`, after clearing the global caches
/// (all of them when `cold`, all but the reference cache otherwise).
/// `threads` < 0 keeps each preset's benchmark thread count; 1
/// forces serial. CSVs land in `dir` as <preset>.csv, reports in
/// `dir`/report. `between`, when given, runs after each preset, and its
/// time is left out of the pass's wall time.
Pass run_pass(const std::vector<std::size_t>& order, int threads, bool cold,
              bool timed, const ScratchDir& dir,
              const std::function<void()>& between = nullptr) {
  const auto& presets = ps::engine::bench_presets();
  Pass pass;
  pass.presets.resize(presets.size());
  // A preset that fails to write must not be checked against a stale CSV.
  for (const auto& preset : presets) {
    std::filesystem::remove(dir.file(preset.name + ".csv"));
  }
  clear_global_caches(/*keep_reference=*/!cold);
  QuietStdout quiet;
  std::uint64_t between_ns = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t index : order) {
    const std::uint64_t preset_start = now_ns();
    const BenchPreset& preset = presets[index];
    PresetTiming& timing = pass.presets[index];
    ps::engine::RunConfig config;
    config.preset = preset.name;
    config.num_threads = threads < 0 ? preset_threads(preset) : threads;
    ps::engine::Session session(config);
    auto csv = std::make_unique<ps::engine::CsvSink>(
        dir.file(preset.name + ".csv"));
    auto report =
        std::make_unique<ps::engine::SvgReportSink>(dir.file("report"));
    if (timed) {
      session.add_sink(std::make_unique<TimedSink>(std::move(csv),
                                                   &timing.csv_ns));
      session.add_sink(std::make_unique<TimedSink>(std::move(report),
                                                   &timing.report_ns));
      const std::uint64_t prepare_start = now_ns();
      timing.ok = session.prepare().ok();
      timing.prepare_ns = now_ns() - prepare_start;
    } else {
      session.add_sink(std::move(csv));
      session.add_sink(std::move(report));
      timing.ok = true;
    }
    const std::uint64_t run_start = now_ns();
    timing.ok = session.run().ok() && timing.ok;
    timing.run_ns = now_ns() - run_start;
    timing.wall_ns = now_ns() - preset_start;
    if (between) {
      const std::uint64_t between_start = now_ns();
      between();
      between_ns += now_ns() - between_start;
    }
  }
  pass.wall_s = static_cast<double>(now_ns() - start - between_ns) / 1e9;
  return pass;
}

std::map<std::string, std::string> read_csvs(const ScratchDir& dir) {
  std::map<std::string, std::string> out;
  for (const auto& preset : ps::engine::bench_presets()) {
    out[preset.name] = deterministic_csv(read_file(dir.file(preset.name + ".csv")));
  }
  return out;
}

/// Counts every preset of `pass` as one operation: it must have succeeded
/// and its deterministic CSV must equal the serial reference.
void check_pass(const Pass& pass, const ScratchDir& dir,
                const std::map<std::string, std::string>& reference,
                Report& report) {
  const auto csvs = read_csvs(dir);
  const auto& presets = ps::engine::bench_presets();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const std::string& name = presets[i].name;
    const std::string& csv = csvs.at(name);
    const bool ok = pass.presets[i].ok && !csv.empty() &&
                    csv == reference.at(name);
    report.attempt(ok, "catalogue preset " + name +
                           (pass.presets[i].ok ? " CSV differs from the serial run"
                                               : " run failed"));
  }
}

/// The wall time of one pass, in seconds, as the sum over presets of each
/// preset's median time across `passes`: a preset that a neighbour on a
/// shared host slowed in one pass does not move the figure. A run makes
/// three to five passes, so the median of an even count is the mean of
/// the middle two; an order statistic would read the slower of them and
/// make the figure depend on whether the host allowed an odd or an even
/// number of passes.
double typical_pass_s(const std::vector<Pass>& passes) {
  double total_ns = 0.0;
  for (std::size_t i = 0; i < ps::engine::bench_presets().size(); ++i) {
    std::vector<double> ns;
    for (const Pass& pass : passes) {
      ns.push_back(static_cast<double>(pass.presets[i].wall_ns));
    }
    std::sort(ns.begin(), ns.end());
    const std::size_t mid = ns.size() / 2;
    total_ns += ns.size() % 2 == 1 ? ns[mid] : (ns[mid - 1] + ns[mid]) / 2.0;
  }
  return total_ns / 1e9;
}

/// Builds the builtin registry and constructs and prepare()s a Session per
/// preset — all a pass does before its first trial. Seconds, or -1 when a
/// Session fails to prepare.
double setup_once() {
  const std::uint64_t start = now_ns();
  std::vector<std::unique_ptr<ps::engine::Session>> sessions;
  for (const auto& preset : ps::engine::bench_presets()) {
    ps::engine::RunConfig config;
    config.preset = preset.name;
    config.num_threads = preset_threads(preset);
    sessions.push_back(std::make_unique<ps::engine::Session>(config));
    if (!sessions.back()->prepare().ok()) return -1.0;
  }
  return seconds_since(start);
}

/// Per-preset and per-family readings of the serial trial replay.
struct Replay {
  std::map<std::string, std::vector<double>> family_trial_ns;
  std::map<std::string, double> family_oracle_calls;
  std::vector<double> preset_trial_ns;    // sum per preset
  std::vector<double> preset_longest_ns;  // longest trial per preset
  std::size_t reference_hits = 0;
  std::size_t reference_misses = 0;
  double miss_trial_ns = 0.0;
  double total_trial_ns = 0.0;
};

/// Replays, serially and in pass order, every trial a cache-cleared pass
/// computes (scenarios the global cache would serve are skipped, exactly
/// as the Session's sweep runner skips them).
Replay replay_trials(const std::vector<std::size_t>& order) {
  const auto& presets = ps::engine::bench_presets();
  const auto registry = ps::engine::SolverRegistry::with_builtins();
  Replay replay;
  replay.preset_trial_ns.assign(presets.size(), 0.0);
  replay.preset_longest_ns.assign(presets.size(), 0.0);
  clear_global_caches();
  std::set<std::string> computed;
  for (std::size_t index : order) {
    for (const auto& sweep : presets[index].sweeps) {
      for (const auto& spec : sweep.plan.expand()) {
        if (!computed.insert(ps::engine::scenario_cache_key(spec)).second) {
          continue;
        }
        const ps::engine::Solver* solver = registry.find(spec.solver);
        if (solver == nullptr) continue;  // the passes' Sessions fail on it
        const std::string family = family_of(spec.solver);
        for (int t = 0; t < spec.trials; ++t) {
          ps::util::Rng instance_rng(spec.instance_seed(t));
          ps::util::Rng algo_rng(spec.algo_seed(t));
          const auto before = ps::engine::reference_cache_stats();
          const std::uint64_t start = now_ns();
          const auto result =
              solver->run_trial(spec.params, instance_rng, algo_rng);
          const double ns = static_cast<double>(now_ns() - start);
          const auto after = ps::engine::reference_cache_stats();
          replay.family_trial_ns[family].push_back(ns);
          replay.family_oracle_calls[family] += result.oracle_calls;
          replay.preset_trial_ns[index] += ns;
          replay.preset_longest_ns[index] =
              std::max(replay.preset_longest_ns[index], ns);
          replay.reference_hits += after.hits - before.hits;
          replay.reference_misses += after.misses - before.misses;
          if (after.misses > before.misses) replay.miss_trial_ns += ns;
          replay.total_trial_ns += ns;
        }
      }
    }
  }
  return replay;
}

void report_replay(const Replay& replay, Report& report) {
  for (const auto& family : catalogue_families()) {
    const auto it = replay.family_trial_ns.find(family);
    // A family whose scenarios all repeat earlier ones runs no trial; its
    // metrics then go missing, which fails the run.
    if (it == replay.family_trial_ns.end()) continue;
    const std::string stem = "solver." + family + ".";
    double total_ns = 0.0;
    for (double ns : it->second) total_ns += ns;
    const double calls = replay.family_oracle_calls.at(family);
    report.add(stem + "trial_ns.p50", percentile(it->second, 0.5));
    report.add(stem + "trial_ns.p99", percentile(it->second, 0.99));
    report.add(stem + "oracle_calls", calls);
    report.add(stem + "ns_per_oracle_call", calls > 0 ? total_ns / calls : 0.0);
  }
  report.add("reference.hits", static_cast<double>(replay.reference_hits));
  report.add("reference.misses", static_cast<double>(replay.reference_misses));
  report.add("reference.miss_trial_share",
             replay.miss_trial_ns / replay.total_trial_ns);
}

/// Re-renders every preset's figure report from the pass's CSV through
/// build_preset_report; total nanoseconds, or 0 on failure.
double rebuild_reports(const ScratchDir& dir) {
  std::uint64_t total = 0;
  for (const auto& preset : ps::engine::bench_presets()) {
    ps::report::CsvTable table;
    if (!ps::report::CsvTable::parse(read_file(dir.file(preset.name + ".csv")),
                                     table)) {
      return 0.0;
    }
    const std::uint64_t start = now_ns();
    if (!ps::report::build_preset_report(preset, table,
                                         dir.file("rebuilt-report"))) {
      return 0.0;
    }
    total += now_ns() - start;
  }
  return static_cast<double>(total);
}

}  // namespace

void run_catalogue(const Args& args, Report& report) {
  const auto& presets = ps::engine::bench_presets();
  std::vector<std::size_t> order(presets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  ps::util::Rng rng(args.seed);
  rng.shuffle(order);

  ScratchDir dir("catalogue");
  run_pass(order, /*threads=*/1, /*cold=*/true, /*timed=*/false, dir);
  const auto reference = read_csvs(dir);

  if (!args.trace) {
    // Set-up is timed once after every preset of every pass: the host's
    // speed drifts over seconds, and each preset adds a point in time.
    SetupSampler setup;
    const auto sample_setup = [&] {
      if (!setup.sample(1, setup_once)) {
        report.fail_check("a catalogue Session failed to prepare");
      }
    };
    std::vector<Pass> cold_passes, warm_passes;
    // The process's peak grows with every pass (freed memory is not all
    // returned), so it is read after a fixed amount of work: the serial
    // reference pass and the first cold+warm pair. Reading it at the end
    // would make it depend on how many passes the host allowed.
    double rss_mb = 0.0;
    const std::uint64_t start = now_ns();
    do {
      cold_passes.push_back(run_pass(order, -1, /*cold=*/true,
                                     /*timed=*/false, dir, sample_setup));
      check_pass(cold_passes.back(), dir, reference, report);
      warm_passes.push_back(
          run_pass(order, -1, /*cold=*/false, /*timed=*/false, dir));
      check_pass(warm_passes.back(), dir, reference, report);
      if (warm_passes.size() == 1) rss_mb = peak_rss_mb();
    } while (seconds_since(start) < args.seconds);
    std::fprintf(stderr, "perfbench: catalogue cold passes (s):");
    for (const Pass& pass : cold_passes) std::fprintf(stderr, " %.3f", pass.wall_s);
    std::fprintf(stderr, "\nperfbench: catalogue warm passes (s):");
    for (const Pass& pass : warm_passes) std::fprintf(stderr, " %.3f", pass.wall_s);
    std::fprintf(stderr, "\n");
    report.add("setup_s", setup.median_s());
    report.add("cold_s", typical_pass_s(cold_passes));
    report.add("warm_s", typical_pass_s(warm_passes));
    report.add("peak_rss_mb", rss_mb);
    return;
  }

  const Replay replay = replay_trials(order);
  report_replay(replay, report);

  // Plain and timed passes alternate; the timed ones give the layer
  // readings, the pair gives the tracing overhead.
  std::vector<double> plain_walls, timed_walls, efficiency, longest_share,
      prepare_ns, csv_ns, report_ns, build_ns;
  const std::uint64_t start = now_ns();
  do {
    const Pass plain = run_pass(order, -1, /*cold=*/true, /*timed=*/false, dir);
    plain_walls.push_back(plain.wall_s);
    check_pass(plain, dir, reference, report);

    const Pass timed = run_pass(order, -1, /*cold=*/true, /*timed=*/true, dir);
    timed_walls.push_back(timed.wall_s);
    check_pass(timed, dir, reference, report);
    double trial_ns = 0, capacity_ns = 0, compute_ns = 0, longest_ns = 0;
    double prepare = 0, csv = 0, svg = 0;
    for (std::size_t i = 0; i < presets.size(); ++i) {
      const PresetTiming& t = timed.presets[i];
      const double compute = static_cast<double>(t.run_ns) -
                             static_cast<double>(t.csv_ns + t.report_ns);
      trial_ns += replay.preset_trial_ns[i];
      capacity_ns += preset_threads(presets[i]) * compute;
      compute_ns += compute;
      longest_ns += replay.preset_longest_ns[i];
      prepare += static_cast<double>(t.prepare_ns);
      csv += static_cast<double>(t.csv_ns);
      svg += static_cast<double>(t.report_ns);
    }
    efficiency.push_back(trial_ns / capacity_ns);
    longest_share.push_back(longest_ns / compute_ns);
    prepare_ns.push_back(prepare);
    csv_ns.push_back(csv);
    report_ns.push_back(svg);
    const double rebuilt = rebuild_reports(dir);
    if (rebuilt <= 0) report.fail_check("build_preset_report failed");
    build_ns.push_back(rebuilt);
  } while (seconds_since(start) < args.seconds);

  report.add("sweep.efficiency", median(efficiency));
  report.add("sweep.longest_trial_share", median(longest_share));
  report.add("session.prepare_ns", median(prepare_ns));
  report.add("sink.csv_ns", median(csv_ns));
  report.add("sink.report_ns", median(report_ns));
  report.add("report.build_ns", median(build_ns));
  const double plain = median(plain_walls);
  report.add("trace.overhead_share", (median(timed_walls) - plain) / plain);
}

}  // namespace perfbench
