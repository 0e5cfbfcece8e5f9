// Shared plumbing of the powersched benchmark: the declared metric table
// (the one place metric names live besides BENCHMARK.json), the result
// line, clocks, percentiles, a timing ResultSink decorator, and scratch
// directories inside the checkout.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/result_sink.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// What one workload measures. Every workload prints the same metrics:
/// end_to_end_metrics() with tracing off, per_layer_metrics() with tracing
/// on. `per_layer` lists the layer metrics this workload drives; every
/// other per-layer metric prints 0, since the workload makes no call into
/// that layer.
struct WorkloadSpec {
  std::string name;
  std::vector<MetricSpec> per_layer;
};

/// Every workload the benchmark runs, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workload_specs();
const WorkloadSpec* find_workload(const std::string& name);

/// The end-to-end metrics, measured by every workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric of any workload, in order of first appearance.
const std::vector<MetricSpec>& per_layer_metrics();

/// Solver-key families (the part of a registry key before the first '.')
/// that the preset catalogue runs, sorted; each gets solver.<family>.*
/// metrics.
const std::vector<std::string>& catalogue_families();

/// The result of one run: correctness totals plus named metrics.
class Report {
 public:
  void add(const std::string& name, double value);
  /// Counts one attempted operation, failed when `ok` is false; `what`
  /// names the failure on stderr.
  void attempt(bool ok, const std::string& what = "");
  /// Marks the run incorrect without counting an operation (a check that
  /// is not itself an operation, such as a missing metric).
  void fail_check(const std::string& what);

  /// Prints the final JSON line. A metric the workload does not measure in
  /// this mode, or a measured one that is missing, makes the run incorrect
  /// (and is named on stderr).
  void print(const WorkloadSpec& spec, bool trace);

  std::uint64_t attempted() const { return attempted_; }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

std::uint64_t now_ns();
double seconds_since(std::uint64_t start_ns);

/// Percentile by the repository's one definition
/// (util::percentile_of_sorted); `values` need not be sorted. Empty input
/// yields 0.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Set-up time sampled in small batches spread over the whole run. The
/// host's speed drifts over seconds, so batches taken only at the start
/// would read that moment's speed rather than the run's.
class SetupSampler {
 public:
  /// Records the mean of `batch` calls of `once`, each returning the
  /// seconds its set-up took, or a negative number on failure. False when
  /// a call failed (nothing is recorded then).
  template <typename F>
  bool sample(int batch, F&& once) {
    double total = 0.0;
    for (int i = 0; i < batch; ++i) {
      const double seconds = once();
      if (seconds < 0) return false;
      total += seconds;
    }
    samples_.push_back(total / batch);
    return true;
  }
  /// Median batch mean, in seconds; 0 before any sample.
  double median_s() const { return median(samples_); }

 private:
  std::vector<double> samples_;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// A fresh, empty directory under `.bench_build/runs/` in the working
/// directory (the checkout), removed again on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& label);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// `<directory>/name`.
  std::string file(const std::string& name) const;

 private:
  std::string path_;
};

/// Sends the library's stdout chatter ("wrote N rows ...") to /dev/null so
/// the benchmark's own result stays the last line of standard output.
class QuietStdout {
 public:
  QuietStdout();
  ~QuietStdout();
  QuietStdout(const QuietStdout&) = delete;
  QuietStdout& operator=(const QuietStdout&) = delete;

 private:
  int saved_fd_ = -1;
};

/// ResultSink decorator adding the time spent in the wrapped sink's
/// prepare/consume/finish to `*total_ns`.
class TimedSink : public ps::engine::ResultSink {
 public:
  TimedSink(std::unique_ptr<ps::engine::ResultSink> inner,
            std::uint64_t* total_ns)
      : inner_(std::move(inner)), total_ns_(total_ns) {}

  ps::Status prepare(const ps::engine::SinkContext& context) override;
  ps::Status consume(const ps::engine::SweepBatch& batch) override;
  ps::Status finish(const ps::engine::SinkContext& context) override;

 private:
  std::unique_ptr<ps::engine::ResultSink> inner_;
  std::uint64_t* total_ns_;
};

/// Reads a whole file; empty string when it cannot be read.
std::string read_file(const std::string& path);

/// The CSV with the columns a timing preset fills from clocks removed
/// (`wall_ms_mean`, named metrics with an `ms` word such as `m_lazy_ms` or
/// `m_ms_before`, and `m_speedup`), re-joined one row per line. Every
/// other cell is deterministic for a fixed plan and seed, whatever the
/// thread count. Returns "" when the text does not parse as CSV.
std::string deterministic_csv(const std::string& csv_text);

/// Runs one workload and prints its result line; returns the exit code.
int run_workload(const Args& args);

void run_catalogue(const Args& args, Report& report);
void run_serve_mix(const Args& args, Report& report);
void run_dispatch_tails(const Args& args, Report& report);

}  // namespace perfbench
