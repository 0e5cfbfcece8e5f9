#include "common.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>

#include "engine/bench_presets.hpp"
#include "report/csv_table.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

std::vector<MetricSpec> catalogue_layers() {
  std::vector<MetricSpec> out;
  for (const auto& family : catalogue_families()) {
    const std::string stem = "solver." + family + ".";
    out.push_back({stem + "trial_ns.p50", "ns"});
    out.push_back({stem + "trial_ns.p99", "ns"});
    out.push_back({stem + "oracle_calls", "count"});
    out.push_back({stem + "ns_per_oracle_call", "ns"});
  }
  const std::vector<MetricSpec> rest = {
      {"reference.hits", "count"},
      {"reference.misses", "count"},
      {"reference.miss_trial_share", "share"},
      {"sweep.efficiency", "share"},
      {"sweep.longest_trial_share", "share"},
      {"session.prepare_ns", "ns"},
      {"sink.csv_ns", "ns"},
      {"sink.report_ns", "ns"},
      {"report.build_ns", "ns"},
      {"trace.overhead_share", "share"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::vector<WorkloadSpec> build_specs() {
  std::vector<WorkloadSpec> specs;
  specs.push_back({"catalogue", catalogue_layers()});
  specs.push_back({"serve_mix",
                   {{"p50_ms.low", "ms"},
                    {"p99_ms.low", "ms"},
                    {"p50_ms.high", "ms"},
                    {"p99_ms.high", "ms"},
                    {"serve.samples.low", "count"},
                    {"serve.samples.high", "count"},
                    {"serve.protocol.parse_ns", "ns"},
                    {"serve.protocol.render_ns", "ns"},
                    {"serve.overhead_ms.p50.low", "ms"},
                    {"serve.overhead_ms.p99.low", "ms"},
                    {"serve.overhead_ms.p50.high", "ms"},
                    {"serve.overhead_ms.p99.high", "ms"},
                    {"serve.cheap.p99_ms", "ms"},
                    {"serve.client.lag_ms.p99", "ms"},
                    {"serve.overloaded", "count"},
                    {"serve.timed_out", "count"},
                    {"solve_service.solve_ns.miss.p50", "ns"},
                    {"solve_service.solve_ns.miss.p99", "ns"},
                    {"solve_service.solve_ns.repeat.p50", "ns"},
                    {"solve_service.solve_ns.repeat.p99", "ns"},
                    {"solve_service.solve_ns.heavy.p50", "ns"},
                    {"solve_service.solve_ns.heavy.p99", "ns"},
                    {"serve.solve_share.miss", "share"},
                    {"serve.solve_share.repeat", "share"},
                    {"serve.solve_share.heavy", "share"}}});
  specs.push_back({"dispatch_tails",
                   {{"cache_store.save_ns", "ns"},
                    {"cache_store.save_bytes", "bytes"},
                    {"cache_store.load_ns", "ns"},
                    {"cache_store.load_bytes", "bytes"},
                    {"cache_store.merge_ns", "ns"},
                    {"tails.retention_share", "share"},
                    {"dispatch.fingerprint_ns", "ns"},
                    {"dispatch.shards.reused", "count"},
                    {"dispatch.shards.launched", "count"},
                    {"session.prepare_ns", "ns"},
                    {"sink.csv_ns", "ns"},
                    {"sink.cache_file_ns", "ns"},
                    {"sink.report_ns", "ns"},
                    {"report.build_ns", "ns"},
                    {"trace.overhead_share", "share"}}});
  return specs;
}

const MetricSpec* find_metric(const std::vector<MetricSpec>& specs,
                              const std::string& name) {
  for (const auto& spec : specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

/// JSON string escaping for the few characters metric names could carry.
std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

bool is_clock_column(const std::string& name) {
  if (name == "wall_ms_mean" || name == "m_speedup") return true;
  if (name.rfind("m_", 0) != 0) return false;
  std::stringstream words(name.substr(2));
  std::string word;
  while (std::getline(words, word, '_')) {
    if (word == "ms") return true;
  }
  return false;
}

}  // namespace

const std::vector<std::string>& catalogue_families() {
  static const std::vector<std::string> families = [] {
    std::set<std::string> unique;
    for (const auto& preset : ps::engine::bench_presets()) {
      for (const auto& sweep : preset.sweeps) {
        for (const auto& solver : sweep.plan.solvers) {
          unique.insert(solver.substr(0, solver.find('.')));
        }
      }
    }
    return std::vector<std::string>(unique.begin(), unique.end());
  }();
  return families;
}

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = build_specs();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workload_specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"cold_s", "s"}, {"warm_s", "s"}};
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> out;
    for (const auto& spec : workload_specs()) {
      for (const auto& metric : spec.per_layer) {
        if (find_metric(out, metric.name) == nullptr) out.push_back(metric);
      }
    }
    return out;
  }();
  return metrics;
}

void Report::add(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    if (!what.empty()) std::cerr << "perfbench: FAILED: " << what << "\n";
  }
}

void Report::fail_check(const std::string& what) {
  correct_ = false;
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

void Report::print(const WorkloadSpec& spec, bool trace) {
  const auto& measured = trace ? spec.per_layer : end_to_end_metrics();
  const auto& printed = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, value] : metrics_) {
    if (find_metric(measured, name) == nullptr) {
      fail_check("metric '" + name + "' is not measured by " + spec.name);
    }
  }
  std::string body;
  for (const auto& metric : printed) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const auto& entry) { return entry.first == metric.name; });
    double value = 0.0;  // a layer this workload never calls
    if (it != metrics_.end()) {
      value = it->second;
    } else if (find_metric(measured, metric.name) != nullptr) {
      fail_check("metric '" + metric.name + "' was not measured");
      continue;
    }
    if (!std::isfinite(value)) {
      // A p99 over failed requests is +infinity, which JSON cannot carry.
      fail_check("metric '" + metric.name + "' is not finite");
      value = std::numeric_limits<double>::max();
    }
    char number[64];
    // Shortest text that reads back as exactly the measured double.
    const auto end = std::to_chars(number, number + sizeof(number), value).ptr;
    if (!body.empty()) body += ", ";
    body += json_string(metric.name) + ": {\"value\": " +
            std::string(number, end) +
            ", \"unit\": " + json_string(metric.unit) + "}";
  }
  std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": "
            << failed_ << ", \"metrics\": {" << body << "}}" << std::endl;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return ps::util::percentile_of_sorted(values, q);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ScratchDir::ScratchDir(const std::string& label) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::current_path() / ".bench_build" / "runs" /
                       (label + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  path_ = dir.string();
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::string ScratchDir::file(const std::string& name) const {
  return (std::filesystem::path(path_) / name).string();
}

QuietStdout::QuietStdout() {
  std::fflush(stdout);
  std::cout.flush();
  saved_fd_ = ::dup(STDOUT_FILENO);
  const int null_fd = ::open("/dev/null", O_WRONLY);
  if (null_fd >= 0) {
    ::dup2(null_fd, STDOUT_FILENO);
    ::close(null_fd);
  }
}

QuietStdout::~QuietStdout() {
  std::fflush(stdout);
  std::cout.flush();
  if (saved_fd_ >= 0) {
    ::dup2(saved_fd_, STDOUT_FILENO);
    ::close(saved_fd_);
  }
}

ps::Status TimedSink::prepare(const ps::engine::SinkContext& context) {
  const std::uint64_t start = now_ns();
  ps::Status status = inner_->prepare(context);
  *total_ns_ += now_ns() - start;
  return status;
}

ps::Status TimedSink::consume(const ps::engine::SweepBatch& batch) {
  const std::uint64_t start = now_ns();
  ps::Status status = inner_->consume(batch);
  *total_ns_ += now_ns() - start;
  return status;
}

ps::Status TimedSink::finish(const ps::engine::SinkContext& context) {
  const std::uint64_t start = now_ns();
  ps::Status status = inner_->finish(context);
  *total_ns_ += now_ns() - start;
  return status;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string deterministic_csv(const std::string& csv_text) {
  ps::report::CsvTable table;
  if (!ps::report::CsvTable::parse(csv_text, table)) return "";
  std::vector<std::size_t> keep;
  std::string out;
  for (std::size_t c = 0; c < table.header().size(); ++c) {
    if (is_clock_column(table.header()[c])) continue;
    keep.push_back(c);
    out += table.header()[c] + ",";
  }
  out += "\n";
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c : keep) out += table.cell(r, c) + ",";
    out += "\n";
  }
  return out;
}

int run_workload(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Report report;
  if (spec->name == "catalogue") {
    run_catalogue(args, report);
  } else if (spec->name == "serve_mix") {
    run_serve_mix(args, report);
  } else {
    run_dispatch_tails(args, report);
  }
  if (report.attempted() == 0) {
    std::cerr << "perfbench: " << spec->name << " attempted nothing\n";
    return 1;
  }
  report.print(*spec, args.trace);
  return 0;
}

}  // namespace perfbench
