// Tests for ps::dispatch: the fingerprint is stable on an unchanged tree,
// order-independent over its file set, and sensitive to any solver-source
// edit; the Dispatcher's retry path turns injected shard failures into the
// byte-identical merged output of an unsharded run; a warm rerun against a
// matching manifest reuses every shard without running a trial, and leaves
// every output file it would rewrite with the same bytes untouched.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dispatch/dispatcher.hpp"
#include "dispatch/fingerprint.hpp"
#include "engine/result_sink.hpp"
#include "engine/session.hpp"
#include "engine/sweep_runner.hpp"

namespace ps::dispatch {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "dispatch_test_" + name;
}

// Artifact directories persist in TempDir across test-binary invocations,
// and a leftover manifest would make a "cold" dispatch warm. Start clean.
std::string fresh_artifact_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Fingerprint

TEST(Fingerprint, StableOnUnchangedTree) {
  SourceFingerprint first;
  SourceFingerprint second;
  ASSERT_TRUE(compute_source_fingerprint(POWERSCHED_SOURCE_DIR, first).ok());
  ASSERT_TRUE(compute_source_fingerprint(POWERSCHED_SOURCE_DIR, second).ok());
  EXPECT_EQ(first.value, second.value);
  EXPECT_EQ(first.file_count, second.file_count);
  EXPECT_GT(first.file_count, 50u) << "suspiciously few sources scanned";
}

TEST(Fingerprint, FileOrderDoesNotMatter) {
  std::vector<std::pair<std::string, std::string>> files = {
      {"src/engine/a.cpp", "int a;"},
      {"src/util/b.hpp", "int b;"},
      {"src/core/c.cpp", "int c;"}};
  const std::uint64_t forward = fingerprint_file_set(files);
  std::vector<std::pair<std::string, std::string>> reversed(files.rbegin(),
                                                            files.rend());
  EXPECT_EQ(forward, fingerprint_file_set(reversed));
  std::swap(files[0], files[1]);
  EXPECT_EQ(forward, fingerprint_file_set(files));
}

TEST(Fingerprint, ContentAndNameChangesChangeTheHash) {
  const std::vector<std::pair<std::string, std::string>> files = {
      {"src/engine/a.cpp", "int a;"}, {"src/util/b.hpp", "int b;"}};
  const std::uint64_t base = fingerprint_file_set(files);
  EXPECT_NE(base, fingerprint_file_set({{"src/engine/a.cpp", "int a;;"},
                                        {"src/util/b.hpp", "int b;"}}));
  EXPECT_NE(base, fingerprint_file_set({{"src/engine/a2.cpp", "int a;"},
                                        {"src/util/b.hpp", "int b;"}}));
  EXPECT_NE(base, fingerprint_file_set({{"src/engine/a.cpp", "int a;"}}));
}

// Touching a solver source really changes the tree fingerprint: hash a
// copy-free simulation by recomputing over a scratch tree would be slow, so
// instead assert the per-file contribution model directly — the tree hash
// is the sum of per-file hashes, so editing one file's content must move it.
TEST(Fingerprint, TouchedSolverSourceChangesTreeFingerprint) {
  const std::string scratch = temp_path("tree/");
  for (const std::string& dir : fingerprint_source_dirs()) {
    std::filesystem::create_directories(scratch + dir);
  }
  {
    std::ofstream out(scratch + "src/engine/solver.cpp", std::ios::binary);
    out << "original body\n";
  }
  SourceFingerprint before;
  ASSERT_TRUE(compute_source_fingerprint(scratch, before).ok());
  EXPECT_EQ(before.file_count, 1u);
  {
    std::ofstream out(scratch + "src/engine/solver.cpp", std::ios::binary);
    out << "edited body\n";
  }
  SourceFingerprint after;
  ASSERT_TRUE(compute_source_fingerprint(scratch, after).ok());
  EXPECT_NE(before.value, after.value);
  EXPECT_EQ(before.file_count, after.file_count);
}

TEST(Fingerprint, FailsClosedOnBadRoots) {
  SourceFingerprint fingerprint;
  EXPECT_FALSE(compute_source_fingerprint(temp_path("does_not_exist"),
                                          fingerprint)
                   .ok());
  // A directory without the expected source layout is a wrong root, not an
  // empty fingerprint.
  const std::string empty_root = temp_path("empty_root/");
  std::filesystem::create_directories(empty_root);
  EXPECT_FALSE(compute_source_fingerprint(empty_root, fingerprint).ok());
}

// ---------------------------------------------------------------------------
// Dispatcher

engine::RunConfig e15_base() {
  engine::RunConfig config;
  config.preset = "e15";
  config.trials = 1;
  return config;
}

std::string unsharded_e15_csv() {
  const std::string path = temp_path("reference.csv");
  engine::Session session(e15_base());
  session.add_sink(std::make_unique<engine::CsvSink>(path));
  EXPECT_TRUE(session.run().ok());
  return read_file(path);
}

TEST(Dispatcher, InjectedFailuresRetryIntoByteIdenticalMerge) {
  const std::string reference = unsharded_e15_csv();
  ASSERT_FALSE(reference.empty());

  DispatchConfig config;
  config.base = e15_base();
  config.shards = 3;
  config.artifact_dir = fresh_artifact_dir("retry_artifacts");
  config.source_root = POWERSCHED_SOURCE_DIR;
  config.retry.initial_backoff_ms = 1;  // keep the test fast
  config.debug_fail_shards = {0, 2};
  const std::string csv_path = temp_path("retry.csv");
  Dispatcher dispatcher(std::move(config));
  dispatcher.add_sink(std::make_unique<engine::CsvSink>(csv_path));

  DispatchReport report;
  ASSERT_TRUE(dispatcher.run(&report).ok());
  EXPECT_EQ(read_file(csv_path), reference);
  EXPECT_EQ(report.reused, 0u);
  EXPECT_EQ(report.retried, 2u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.launched, 5u);  // 3 shards + 2 retried first attempts
  EXPECT_EQ(report.shards[0].attempts, 2);
  EXPECT_EQ(report.shards[1].attempts, 1);
  EXPECT_EQ(report.shards[2].attempts, 2);
}

TEST(Dispatcher, ExhaustedRetriesFailTheDispatch) {
  DispatchConfig config;
  config.base = e15_base();
  config.shards = 2;
  config.artifact_dir = fresh_artifact_dir("exhaust_artifacts");
  config.retry.max_attempts = 1;  // the injected failure is final
  config.retry.initial_backoff_ms = 1;
  config.debug_fail_shards = {1};
  Dispatcher dispatcher(std::move(config));
  DispatchReport report;
  const Status status = dispatcher.run(&report);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kRuntime);
  EXPECT_NE(status.message().find("shard 1"), std::string::npos)
      << status.message();
  EXPECT_EQ(report.failed, 1u);
}

TEST(Dispatcher, WarmRerunReusesEveryShardAndRunsNothing) {
  const std::string artifact_dir = fresh_artifact_dir("warm_artifacts");
  const std::string reference = unsharded_e15_csv();

  auto make_config = [&] {
    DispatchConfig config;
    config.base = e15_base();
    config.shards = 3;
    config.artifact_dir = artifact_dir;
    config.source_root = POWERSCHED_SOURCE_DIR;
    config.retry.initial_backoff_ms = 1;
    return config;
  };

  {
    Dispatcher cold(make_config());
    DispatchReport report;
    ASSERT_TRUE(cold.run(&report).ok());
    EXPECT_EQ(report.reused, 0u);
    EXPECT_EQ(report.launched, 3u);
  }

  const std::string csv_path = temp_path("warm.csv");
  Dispatcher warm(make_config());
  warm.add_sink(std::make_unique<engine::CsvSink>(csv_path));
  DispatchReport report;
  ASSERT_TRUE(warm.run(&report).ok());
  EXPECT_EQ(report.reused, 3u);
  EXPECT_EQ(report.launched, 0u);  // zero sessions, zero trials
  EXPECT_EQ(read_file(csv_path), reference);
}

/// Bytes, inode and mtime of one output file.
struct FileState {
  std::string bytes;
  ino_t inode = 0;
  struct timespec mtime = {0, 0};
};

FileState file_state(const std::string& path) {
  FileState state;
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  state.bytes = read_file(path);
  state.inode = st.st_ino;
  state.mtime = st.st_mtim;
  return state;
}

/// Back-dates `path`, so any rewrite shows in its mtime even on a coarse
/// clock.
void backdate(const std::string& path) {
  const struct timespec old_times[2] = {{1000000000, 0}, {1000000000, 0}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), old_times, 0), 0) << path;
}

TEST(Dispatcher, WarmRerunLeavesEveryOutputUntouched) {
  const std::string artifact_dir = fresh_artifact_dir("untouched_artifacts");
  const std::string report_dir = fresh_artifact_dir("untouched_report");
  const std::string csv_path = temp_path("untouched.csv");
  std::filesystem::remove(csv_path);
  auto dispatch = [&](std::uint64_t seed) {
    DispatchConfig config;
    config.base = e15_base();
    config.base.seed = seed;
    config.base.seed_given = true;
    config.shards = 2;
    config.artifact_dir = artifact_dir;
    config.source_root = POWERSCHED_SOURCE_DIR;
    config.retry.initial_backoff_ms = 1;
    Dispatcher dispatcher(std::move(config));
    dispatcher.add_sink(std::make_unique<engine::CsvSink>(csv_path));
    dispatcher.add_sink(std::make_unique<engine::SvgReportSink>(report_dir));
    DispatchReport report;
    EXPECT_TRUE(dispatcher.run(&report).ok());
    return report;
  };

  ASSERT_EQ(dispatch(1).launched, 2u);
  std::vector<std::string> outputs = {csv_path,
                                      artifact_dir + "/manifest.txt"};
  for (const auto& entry : std::filesystem::directory_iterator(report_dir)) {
    outputs.push_back(entry.path().string());
  }
  ASSERT_GE(outputs.size(), 4u) << "expected the .md and at least one SVG";
  std::map<std::string, FileState> before;
  for (const std::string& path : outputs) {
    backdate(path);
    before[path] = file_state(path);
  }

  const DispatchReport warm = dispatch(1);
  EXPECT_EQ(warm.reused, 2u);
  EXPECT_EQ(warm.launched, 0u);
  for (const std::string& path : outputs) {
    const FileState after = file_state(path);
    EXPECT_EQ(after.bytes, before[path].bytes) << path;
    EXPECT_EQ(after.inode, before[path].inode) << path;
    EXPECT_EQ(after.mtime.tv_sec, 1000000000) << path;
  }

  // Another seed is another plan: every shard reruns and the outputs whose
  // bytes change are replaced.
  EXPECT_EQ(dispatch(2).launched, 2u);
  const std::string markdown = report_dir + "/e15.md";
  for (const std::string& path :
       {csv_path, artifact_dir + "/manifest.txt", markdown}) {
    const FileState after = file_state(path);
    EXPECT_NE(after.bytes, before[path].bytes) << path;
    EXPECT_NE(after.mtime.tv_sec, 1000000000) << path;
  }
}

TEST(Dispatcher, PlanChangeInvalidatesTheManifest) {
  const std::string artifact_dir = fresh_artifact_dir("invalidate_artifacts");
  auto make_config = [&](int trials) {
    DispatchConfig config;
    config.base = e15_base();
    config.base.trials = trials;
    config.shards = 2;
    config.artifact_dir = artifact_dir;
    config.source_root = POWERSCHED_SOURCE_DIR;
    config.retry.initial_backoff_ms = 1;
    return config;
  };
  {
    Dispatcher first(make_config(1));
    DispatchReport report;
    ASSERT_TRUE(first.run(&report).ok());
    EXPECT_EQ(report.reused, 0u);
  }
  // Same artifact dir, different plan signature: nothing may be reused.
  Dispatcher second(make_config(2));
  DispatchReport report;
  ASSERT_TRUE(second.run(&report).ok());
  EXPECT_EQ(report.reused, 0u);
  EXPECT_EQ(report.launched, 2u);
}

TEST(Dispatcher, RejectsDispatcherOwnedBaseFields) {
  DispatchConfig config;
  config.base = e15_base();
  config.base.cache_file = temp_path("owned.cache");
  config.artifact_dir = temp_path("owned_artifacts");
  Dispatcher dispatcher(std::move(config));
  const Status status = dispatcher.run();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kUsage);
}

TEST(PlanSignature, CoversResultShapingFieldsOnly) {
  const engine::RunConfig base = e15_base();
  const std::string signature = plan_signature(base, 3);
  EXPECT_EQ(signature, plan_signature(base, 3));
  EXPECT_NE(signature, plan_signature(base, 4));

  engine::RunConfig tails = base;
  tails.tails = true;
  EXPECT_NE(signature, plan_signature(tails, 3));

  engine::RunConfig seeded = base;
  seeded.seed = 7;
  seeded.seed_given = true;
  EXPECT_NE(signature, plan_signature(seeded, 3));

  // Thread count and timing columns never change a cached aggregate, so
  // they must not invalidate artifacts.
  engine::RunConfig threads = base;
  threads.num_threads = 7;
  threads.timing = true;
  EXPECT_EQ(signature, plan_signature(threads, 3));
}

}  // namespace
}  // namespace ps::dispatch
