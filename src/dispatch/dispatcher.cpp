#include "dispatch/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "engine/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/time.hpp"
#include "util/file_io.hpp"
#include "util/thread_pool.hpp"

namespace ps::dispatch {
namespace {

constexpr const char* kManifestHeader = "powersched-dispatch-manifest v1";
constexpr const char* kManifestName = "manifest.txt";

struct Manifest {
  std::string fingerprint_hex;
  std::size_t file_count = 0;
  std::string signature;
  std::size_t shards = 0;
};

/// Fail-closed manifest load: anything short of a well-formed v1 file —
/// missing, wrong header, truncated — reads as "no manifest", which simply
/// forces recomputation. Reuse must never ride on a half-understood stamp.
bool load_manifest(const std::string& path, Manifest& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) return false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "fingerprint") {
      std::string files_word;
      if (!(fields >> out.fingerprint_hex >> files_word >> out.file_count) ||
          files_word != "files") {
        return false;
      }
    } else if (key == "plan") {
      // The signature is the whole rest of the line (it contains spaces).
      out.signature = line.size() > 5 ? line.substr(5) : std::string();
    } else if (key == "shards") {
      if (!(fields >> out.shards)) return false;
    } else if (key == "shard") {
      // Per-shard rows are informational; the artifact files themselves are
      // checked for existence.
    } else {
      return false;
    }
  }
  return saw_end && !out.fingerprint_hex.empty() && !out.signature.empty() &&
         out.shards > 0;
}

/// Rewrites the manifest only when its bytes change, so a warm rerun leaves
/// it (and its mtime) alone.
Status save_manifest(const std::string& path, const Manifest& manifest) {
  std::string text = std::string(kManifestHeader) + "\nfingerprint " +
                     manifest.fingerprint_hex + " files " +
                     std::to_string(manifest.file_count) + "\nplan " +
                     manifest.signature + "\nshards " +
                     std::to_string(manifest.shards) + "\n";
  for (std::size_t i = 0; i < manifest.shards; ++i) {
    text += "shard " + std::to_string(i) + ' ' +
            shard_artifact_name(i, manifest.shards) + '\n';
  }
  text += "end\n";
  return util::write_file_if_changed(path, text);
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

}  // namespace

std::string plan_signature(const engine::RunConfig& base, std::size_t shards) {
  std::string sig;
  if (!base.preset.empty()) {
    sig += "preset=" + base.preset;
  } else {
    sig += "plan solvers=";
    for (std::size_t i = 0; i < base.plan.solvers.size(); ++i) {
      if (i) sig += ',';
      sig += base.plan.solvers[i];
    }
    sig += " base=";
    for (const auto& [name, value] : base.plan.base_params.values()) {
      sig += name + ':' + engine::format_param(value) + ';';
    }
    sig += " axes=";
    for (const auto& axis : base.plan.axes) {
      sig += axis.name + ':';
      for (double value : axis.values) sig += engine::format_param(value) + ',';
      sig += ';';
    }
    sig += " algo=";
    for (const auto& name : base.plan.algo_params) sig += name + ',';
    sig += " plan_trials=" + std::to_string(base.plan.trials);
    sig += " plan_seed=" + std::to_string(base.plan.seed);
  }
  sig += " trials=" + std::to_string(base.trials);
  sig += base.seed_given ? " seed=" + std::to_string(base.seed)
                         : std::string(" seed=default");
  sig += base.tails ? " tails=1" : " tails=0";
  sig += " tails_cap=" + std::to_string(base.tails_cap);
  sig += " shards=" + std::to_string(shards);
  return sig;
}

std::string shard_artifact_name(std::size_t shard, std::size_t shards) {
  return "shard-" + std::to_string(shard) + "-of-" + std::to_string(shards) +
         ".cache";
}

Dispatcher::Dispatcher(DispatchConfig config) : config_(std::move(config)) {}

void Dispatcher::add_sink(std::unique_ptr<engine::ResultSink> sink) {
  sinks_.push_back(std::move(sink));
}

Status Dispatcher::run(DispatchReport* report) {
  namespace fs = std::filesystem;
  if (config_.artifact_dir.empty()) {
    return Status::usage("dispatch needs an artifact directory");
  }
  if (config_.shards == 0) {
    return Status::usage("--shards must be >= 1");
  }
  if (config_.retry.max_attempts < 1) {
    return Status::usage("retry attempts must be >= 1");
  }
  if (config_.base.shard_count != 1 || config_.base.shard_index != 0 ||
      !config_.base.cache_file.empty() || !config_.base.merge_files.empty()) {
    return Status::usage(
        "DispatchConfig::base must leave shard/cache/merge fields default — "
        "the dispatcher owns them");
  }
  for (std::size_t shard : config_.debug_fail_shards) {
    if (shard >= config_.shards) {
      return Status::usage("--debug-fail-shards index " +
                           std::to_string(shard) + " out of range for " +
                           std::to_string(config_.shards) + " shard(s)");
    }
  }

  // Validate the plan identity up front on a probe Session — an unknown
  // preset or malformed plan must fail here, not N times on the pool.
  engine::Session probe(config_.base);
  if (Status status = probe.prepare(); !status.ok()) return status;

  if (Status status = engine::ensure_directory(config_.artifact_dir);
      !status.ok()) {
    return status;
  }

  DispatchReport local_report;
  DispatchReport& rep = report != nullptr ? *report : local_report;
  rep = DispatchReport();
  rep.plan_signature = plan_signature(config_.base, config_.shards);
  rep.shards.resize(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) rep.shards[i].shard = i;

  const bool fingerprinted = !config_.source_root.empty();
  if (fingerprinted) {
    if (Status status =
            compute_source_fingerprint(config_.source_root, rep.fingerprint);
        !status.ok()) {
      return status;
    }
  }

  const std::string manifest_path =
      config_.artifact_dir + "/" + kManifestName;
  std::vector<std::string> artifacts;
  artifacts.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    artifacts.push_back(config_.artifact_dir + "/" +
                        shard_artifact_name(i, config_.shards));
  }

  // Reuse decision: the manifest must prove the artifacts were produced by
  // this exact source revision AND this exact plan. Anything else — and
  // any run with fingerprinting off — clears the dispatcher-owned files
  // first, so a shard Session can never silently load a stale cache.
  Manifest manifest;
  const bool warm = fingerprinted && config_.reuse &&
                    load_manifest(manifest_path, manifest) &&
                    manifest.fingerprint_hex ==
                        fingerprint_hex(rep.fingerprint.value) &&
                    manifest.signature == rep.plan_signature &&
                    manifest.shards == config_.shards;
  if (!warm) {
    std::remove(manifest_path.c_str());
    for (const std::string& artifact : artifacts) {
      std::remove(artifact.c_str());
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < config_.shards; ++i) {
    if (warm && file_exists(artifacts[i])) {
      rep.shards[i].reused = true;
      ++rep.reused;
    } else {
      pending.push_back(i);
    }
  }
  const bool metrics_on = obs::enabled();
  if (metrics_on) {
    auto& registry = obs::Registry::global();
    registry.counter("dispatch.shards.planned").add(config_.shards);
    registry.counter("dispatch.shards.reused").add(rep.reused);
  }
  if (config_.verbose) {
    std::fprintf(stderr,
                 "dispatch: %zu scenario(s) across %zu shard(s) -> %s (%zu "
                 "reused, %zu to run)\n",
                 probe.num_scenarios(), config_.shards,
                 config_.artifact_dir.c_str(), rep.reused, pending.size());
  }

  if (!pending.empty()) {
    const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t workers =
        config_.workers > 0 ? std::min(config_.workers, pending.size())
                            : std::min(pending.size(), hardware);
    util::ThreadPool pool(workers);
    std::unique_ptr<obs::ProgressMeter> meter;
    if (config_.progress) {
      meter = std::make_unique<obs::ProgressMeter>(pending.size(),
                                                   pending.size());
    }
    std::mutex mutex;
    std::size_t done = 0;
    std::string first_failure;
    for (const std::size_t shard : pending) {
      pool.submit([&, shard] {
        const bool inject =
            std::find(config_.debug_fail_shards.begin(),
                      config_.debug_fail_shards.end(),
                      shard) != config_.debug_fail_shards.end();
        Status status;
        int attempts = 0;
        for (; attempts < config_.retry.max_attempts;) {
          ++attempts;
          {
            std::lock_guard<std::mutex> lock(mutex);
            ++rep.launched;
          }
          if (metrics_on) {
            obs::Registry::global().counter("dispatch.shards.launched").add(1);
          }
          if (attempts == 1 && inject) {
            status = Status::runtime(
                "injected failure (--debug-fail-shards)");
          } else {
            engine::RunConfig shard_config = config_.base;
            shard_config.shard_index = shard;
            shard_config.shard_count = config_.shards;
            shard_config.cache_file = artifacts[shard];
            shard_config.verbose = false;
            shard_config.progress = false;
            const obs::StopWatch watch;
            engine::Session session(shard_config);
            session.add_sink(std::make_unique<engine::CacheFileSink>());
            status = session.run();
            if (metrics_on) {
              obs::Registry::global()
                  .histogram("dispatch.shard.wall_ns")
                  .record(watch.ns());
            }
          }
          if (status.ok()) break;
          if (attempts < config_.retry.max_attempts) {
            if (metrics_on) {
              obs::Registry::global()
                  .counter("dispatch.shards.retried")
                  .add(1);
            }
            {
              std::lock_guard<std::mutex> lock(mutex);
              ++rep.retried;
            }
            if (config_.verbose) {
              std::fprintf(stderr,
                           "dispatch: shard %zu/%zu attempt %d failed (%s), "
                           "retrying\n",
                           shard, config_.shards, attempts,
                           status.message().c_str());
            }
            const long backoff_ms =
                static_cast<long>(config_.retry.initial_backoff_ms)
                << (attempts - 1);
            std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
          }
        }
        std::lock_guard<std::mutex> lock(mutex);
        rep.shards[shard].attempts = attempts;
        if (!status.ok()) {
          rep.shards[shard].failed = true;
          ++rep.failed;
          if (metrics_on) {
            obs::Registry::global().counter("dispatch.shards.failed").add(1);
          }
          if (first_failure.empty()) {
            first_failure = "shard " + std::to_string(shard) + "/" +
                            std::to_string(config_.shards) +
                            " failed after " + std::to_string(attempts) +
                            " attempt(s): " + status.message();
          }
        }
        ++done;
        if (meter != nullptr) meter->on_progress(done, done);
      });
    }
    pool.wait_idle();
    if (meter != nullptr) meter->finish(pending.size(), pending.size());
    if (rep.failed > 0) return Status::runtime(first_failure);
  }

  if (fingerprinted) {
    Manifest stamp;
    stamp.fingerprint_hex = fingerprint_hex(rep.fingerprint.value);
    stamp.file_count = rep.fingerprint.file_count;
    stamp.signature = rep.plan_signature;
    stamp.shards = config_.shards;
    if (Status status = save_manifest(manifest_path, stamp); !status.ok()) {
      return Status::runtime("dispatch: manifest: " + status.message());
    }
  }

  // The merge is the proven Session merge path — the exact code `powersched
  // merge` runs — so the sinks observe byte-identical results to a single
  // unsharded run.
  engine::RunConfig merge_config = config_.base;
  merge_config.merge_files = artifacts;
  merge_config.verbose = config_.verbose;
  merge_config.progress = false;
  engine::Session merge_session(merge_config);
  for (auto& sink : sinks_) merge_session.add_sink(std::move(sink));
  sinks_.clear();
  if (Status status = merge_session.run(); !status.ok()) return status;

  if (config_.verbose) {
    std::fprintf(stderr,
                 "dispatch: merged %zu shard(s) (%zu reused, %zu launched, "
                 "%zu retried)\n",
                 config_.shards, rep.reused, rep.launched, rep.retried);
  }
  return Status();
}

}  // namespace ps::dispatch
