// Workload `dispatch_tails`: Dispatcher::run on preset e6 with tails on —
// 280k trials, 4 shards, 2 workers x 2 threads — once COLD into a fresh
// artifact directory (trials, sample retention, v2 saves) and once WARM over
// that directory (fingerprint, v2 loads, merge and sinks, zero trials run).
// The seed overrides e6's base seed. Both merged CSVs must equal an
// unsharded Session run of the same plan, and the warm pass must reuse
// every shard and launch none.
//
// Traced mode adds passes with timed sinks, cold passes without tails, and
// direct timings of ScenarioCacheStore, compute_source_fingerprint,
// build_preset_report and a merge-mode Session with a cache-file sink.
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common.hpp"
#include "dispatch/dispatcher.hpp"
#include "dispatch/fingerprint.hpp"
#include "engine/cache_store.hpp"
#include "engine/session.hpp"
#include "report/csv_table.hpp"
#include "report/report_builder.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kWorkers = 2;
constexpr int kThreadsPerShard = 2;
/// Set-ups timed before every cold+warm pair.
constexpr int kSetupBatch = 20;
constexpr int kFingerprintRepeats = 5;

ps::engine::RunConfig base_config(std::uint64_t seed, bool tails) {
  ps::engine::RunConfig config;
  config.preset = "e6";
  config.seed = seed;
  config.seed_given = true;
  config.tails = tails;
  config.num_threads = kThreadsPerShard;
  return config;
}

struct PassResult {
  bool ok = false;
  double seconds = 0.0;
  ps::dispatch::DispatchReport report;
  std::uint64_t csv_ns = 0;
  std::uint64_t report_ns = 0;
};

/// One Dispatcher::run over `artifacts` writing the merged CSV to `csv` and
/// the figure report beside it; sinks timed when `timed`.
PassResult dispatch_pass(std::uint64_t seed, bool tails,
                         const std::string& artifacts, const std::string& csv,
                         const std::string& report_dir, bool timed) {
  PassResult result;
  std::filesystem::remove(csv);  // never check a stale file
  QuietStdout quiet;
  const std::uint64_t start = now_ns();
  ps::dispatch::DispatchConfig config;
  config.base = base_config(seed, tails);
  config.shards = kShards;
  config.workers = kWorkers;
  config.artifact_dir = artifacts;
  config.source_root = std::filesystem::current_path().string();
  ps::dispatch::Dispatcher dispatcher(std::move(config));
  std::unique_ptr<ps::engine::ResultSink> csv_sink =
      std::make_unique<ps::engine::CsvSink>(csv);
  std::unique_ptr<ps::engine::ResultSink> report_sink =
      std::make_unique<ps::engine::SvgReportSink>(report_dir);
  if (timed) {
    csv_sink = std::make_unique<TimedSink>(std::move(csv_sink), &result.csv_ns);
    report_sink =
        std::make_unique<TimedSink>(std::move(report_sink), &result.report_ns);
  }
  dispatcher.add_sink(std::move(csv_sink));
  dispatcher.add_sink(std::move(report_sink));
  result.ok = dispatcher.run(&result.report).ok();
  result.seconds = seconds_since(start);
  return result;
}

/// Dispatcher construction with its sinks — all a dispatch needs before
/// run(). Seconds.
double setup_once(std::uint64_t seed, const ScratchDir& dir) {
  const std::uint64_t start = now_ns();
  ps::dispatch::DispatchConfig config;
  config.base = base_config(seed, true);
  config.shards = kShards;
  config.workers = kWorkers;
  config.artifact_dir = dir.file("setup-artifacts");
  config.source_root = std::filesystem::current_path().string();
  ps::dispatch::Dispatcher dispatcher(std::move(config));
  dispatcher.add_sink(std::make_unique<ps::engine::CsvSink>(dir.file("setup.csv")));
  dispatcher.add_sink(
      std::make_unique<ps::engine::SvgReportSink>(dir.file("setup-report")));
  return seconds_since(start);
}

std::vector<std::string> shard_paths(const std::string& artifacts) {
  std::vector<std::string> out;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    out.push_back((std::filesystem::path(artifacts) /
                   ps::dispatch::shard_artifact_name(shard, kShards))
                      .string());
  }
  return out;
}

/// Layer readings taken directly on one cold pass's artifacts.
struct StoreTimings {
  bool ok = true;
  double load_ns = 0, load_bytes = 0, save_ns = 0, save_bytes = 0,
         merge_ns = 0, prepare_ns = 0, cache_file_ns = 0, build_ns = 0;
};

StoreTimings time_store(std::uint64_t seed, const std::string& artifacts,
                        const std::string& merged_csv, const ScratchDir& dir) {
  StoreTimings t;
  const auto paths = shard_paths(artifacts);
  for (std::size_t shard = 0; shard < paths.size(); ++shard) {
    ps::engine::ScenarioCache cache;
    std::uint64_t start = now_ns();
    t.ok = ps::engine::ScenarioCacheStore(paths[shard]).load(cache) && t.ok;
    t.load_ns += static_cast<double>(now_ns() - start);
    t.load_bytes += static_cast<double>(std::filesystem::file_size(paths[shard]));
    const std::string copy = dir.file("resave-" + std::to_string(shard) + ".cache");
    start = now_ns();
    t.ok = ps::engine::ScenarioCacheStore(copy).save(cache) && t.ok;
    t.save_ns += static_cast<double>(now_ns() - start);
    t.save_bytes += static_cast<double>(std::filesystem::file_size(copy));
  }
  {
    ps::engine::ScenarioCache cache;
    const std::uint64_t start = now_ns();
    t.ok = ps::engine::ScenarioCacheStore::merge_into(paths, cache) && t.ok;
    t.merge_ns = static_cast<double>(now_ns() - start);
  }
  {
    QuietStdout quiet;
    ps::engine::RunConfig config = base_config(seed, true);
    config.merge_files = paths;
    config.cache_file = dir.file("merged.cache");
    ps::engine::Session session(config);
    std::uint64_t cache_file_ns = 0;
    session.add_sink(std::make_unique<TimedSink>(
        std::make_unique<ps::engine::CacheFileSink>(), &cache_file_ns));
    const std::uint64_t start = now_ns();
    t.ok = session.prepare().ok() && t.ok;
    t.prepare_ns = static_cast<double>(now_ns() - start);
    t.ok = session.run().ok() && t.ok;
    t.cache_file_ns = static_cast<double>(cache_file_ns);
  }
  ps::report::CsvTable table;
  t.ok = ps::report::CsvTable::parse(read_file(merged_csv), table) && t.ok;
  const std::uint64_t start = now_ns();
  t.ok = ps::report::build_preset_report(*ps::engine::find_bench_preset("e6"),
                                         table, dir.file("rebuilt-report")) &&
         t.ok;
  t.build_ns = static_cast<double>(now_ns() - start);
  return t;
}

}  // namespace

void run_dispatch_tails(const Args& args, Report& report) {
  ScratchDir dir("dispatch");
  const std::uint64_t seed = args.seed;

  // The unsharded reference every merged CSV must equal.
  std::string reference;
  {
    QuietStdout quiet;
    ps::engine::RunConfig config = base_config(seed, true);
    config.num_threads = static_cast<int>(kWorkers) * kThreadsPerShard;
    config.use_cache = false;
    ps::engine::Session session(config);
    session.add_sink(std::make_unique<ps::engine::CsvSink>(dir.file("reference.csv")));
    if (!session.run().ok()) {
      report.attempt(false, "unsharded e6 reference run failed");
      return;
    }
    reference = read_file(dir.file("reference.csv"));
  }

  SetupSampler setup;
  std::vector<double> cold_s, warm_s, plain_s, timed_s, no_tails_s;
  std::vector<double> csv_ns, report_ns;
  std::vector<StoreTimings> stores;
  ps::dispatch::DispatchReport last_warm;
  int iteration = 0;
  const std::uint64_t start = now_ns();
  do {
    if (!args.trace) {
      setup.sample(kSetupBatch, [&] { return setup_once(seed, dir); });
    }
    const bool timed = args.trace && iteration % 2 == 1;
    const std::string artifacts = dir.file("artifacts-" + std::to_string(iteration));
    const std::string cold_csv = dir.file("cold.csv");
    const std::string warm_csv = dir.file("warm.csv");
    const PassResult cold = dispatch_pass(seed, true, artifacts, cold_csv,
                                          dir.file("report"), timed);
    report.attempt(cold.ok && read_file(cold_csv) == reference &&
                       cold.report.launched == kShards && cold.report.reused == 0,
                   "cold dispatch differs from the unsharded run");
    const PassResult warm = dispatch_pass(seed, true, artifacts, warm_csv,
                                          dir.file("report"), timed);
    report.attempt(warm.ok && read_file(warm_csv) == reference &&
                       warm.report.reused == kShards && warm.report.launched == 0,
                   "warm dispatch did not reuse every shard or differs from "
                   "the unsharded run");
    if (!args.trace) {
      cold_s.push_back(cold.seconds);
      warm_s.push_back(warm.seconds);
    } else if (!timed) {
      plain_s.push_back(cold.seconds + warm.seconds);
      cold_s.push_back(cold.seconds);
      const std::string bare = dir.file("no-tails-" + std::to_string(iteration));
      const PassResult no_tails = dispatch_pass(seed, false, bare,
                                                dir.file("no-tails.csv"),
                                                dir.file("report"), false);
      report.attempt(no_tails.ok, "cold dispatch without tails failed");
      no_tails_s.push_back(no_tails.seconds);
      std::filesystem::remove_all(bare);
      stores.push_back(time_store(seed, artifacts, warm_csv, dir));
      report.attempt(stores.back().ok, "cache-store, merge or report call failed");
    } else {
      timed_s.push_back(cold.seconds + warm.seconds);
      csv_ns.push_back(static_cast<double>(warm.csv_ns));
      report_ns.push_back(static_cast<double>(warm.report_ns));
      last_warm = warm.report;
    }
    std::filesystem::remove_all(artifacts);
    ++iteration;
  } while (seconds_since(start) < args.seconds || (args.trace && iteration < 2));
  std::fprintf(stderr, "perfbench: dispatch iterations=%d\n", iteration);

  if (!args.trace) {
    report.add("setup_s", setup.median_s());
    report.add("cold_s", median(cold_s));
    report.add("warm_s", median(warm_s));
    report.add("peak_rss_mb", peak_rss_mb());
    return;
  }

  std::vector<double> fingerprint_ns;
  for (int rep = 0; rep < kFingerprintRepeats; ++rep) {
    ps::dispatch::SourceFingerprint fingerprint;
    const std::uint64_t t0 = now_ns();
    const bool ok = ps::dispatch::compute_source_fingerprint(
                        std::filesystem::current_path().string(), fingerprint)
                        .ok();
    fingerprint_ns.push_back(static_cast<double>(now_ns() - t0));
    report.attempt(ok, "compute_source_fingerprint failed");
  }
  auto pick = [&](double StoreTimings::*field) {
    std::vector<double> values;
    for (const auto& store : stores) values.push_back(store.*field);
    return median(values);
  };
  report.add("cache_store.load_ns", pick(&StoreTimings::load_ns));
  report.add("cache_store.load_bytes", pick(&StoreTimings::load_bytes));
  report.add("cache_store.save_ns", pick(&StoreTimings::save_ns));
  report.add("cache_store.save_bytes", pick(&StoreTimings::save_bytes));
  report.add("cache_store.merge_ns", pick(&StoreTimings::merge_ns));
  report.add("session.prepare_ns", pick(&StoreTimings::prepare_ns));
  report.add("sink.cache_file_ns", pick(&StoreTimings::cache_file_ns));
  report.add("report.build_ns", pick(&StoreTimings::build_ns));
  report.add("sink.csv_ns", median(csv_ns));
  report.add("sink.report_ns", median(report_ns));
  const double cold_tails = median(cold_s);
  report.add("tails.retention_share",
             (cold_tails - median(no_tails_s)) / cold_tails);
  report.add("dispatch.fingerprint_ns", median(fingerprint_ns));
  report.add("dispatch.shards.reused", static_cast<double>(last_warm.reused));
  report.add("dispatch.shards.launched", static_cast<double>(last_warm.launched));
  const double plain = median(plain_s);
  report.add("trace.overhead_share", (median(timed_s) - plain) / plain);
}

}  // namespace perfbench
