#include "serve/loadgen.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/time.hpp"
#include "report/csv_table.hpp"
#include "report/svg_plot.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/file_io.hpp"
#include "util/stats.hpp"

namespace ps::serve {
namespace {

struct RequestRow {
  std::string id;
  bool sent = false;       // false = never reached the wire (connect failed)
  bool answered = false;   // a response line came back and parsed
  bool ok = false;
  std::string error;       // error class, or transport/protocol diagnosis
  double latency_ms = 0.0;
  bool has_objective = false;
  double objective = 0.0;
};

std::string synthetic_id(int index) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "r%06d", index + 1);
  return buffer;
}

std::string latency_csv_text(const std::vector<RequestRow>& rows) {
  std::string csv = "request,id,ok,error,latency_ms,objective\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RequestRow& row = rows[i];
    char latency[32];
    std::snprintf(latency, sizeof(latency), "%.3f", row.latency_ms);
    csv += std::to_string(i) + "," + row.id + "," + (row.ok ? "1" : "0") +
           "," + row.error + ",";
    csv += row.answered ? latency : "";
    csv += ",";
    if (row.has_objective) csv += engine::format_param(row.objective);
    csv += "\n";
  }
  return csv;
}

/// Renders the latency figure FROM the CSV text, through the same
/// CsvTable -> PlotSpec -> render_svg_plot path every sweep figure takes —
/// proving the loadgen artifact is report-pipeline compatible, not just
/// comma-shaped.
Status render_latency_svg(const std::string& csv_text,
                          const std::string& path) {
  report::CsvTable table;
  std::string parse_error;
  if (!report::CsvTable::parse(csv_text, table, &parse_error)) {
    return Status::runtime("loadgen: latency CSV failed to parse: " +
                           parse_error);
  }
  const std::ptrdiff_t request_col = table.column("request");
  const std::ptrdiff_t latency_col = table.column("latency_ms");
  if (request_col < 0 || latency_col < 0) {
    return Status::runtime(
        "loadgen: latency CSV lacks request/latency_ms columns");
  }
  report::PlotSeries series;
  series.label = "latency_ms";
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    double x = 0.0;
    double y = 0.0;
    if (!table.numeric_cell(row, static_cast<std::size_t>(request_col), x) ||
        !table.numeric_cell(row, static_cast<std::size_t>(latency_col), y)) {
      continue;  // unanswered request: empty latency cell
    }
    series.xs.push_back(x);
    series.ys.push_back(y);
  }
  report::PlotSpec spec;
  spec.title = "loadgen request latency";
  spec.x_label = "request";
  spec.y_label = "latency (ms)";
  spec.series.push_back(std::move(series));
  const std::string svg = report::render_svg_plot(spec);
  if (svg.empty()) {
    return Status::runtime("loadgen: latency figure failed to render");
  }
  return util::write_file_if_changed(path, svg);
}

}  // namespace

Status run_loadgen(const LoadgenOptions& options, LoadgenReport* report) {
  if (options.port <= 0 || options.port > 65535) {
    return Status::usage("loadgen: --port must be in [1, 65535]");
  }
  if (options.connections < 1) {
    return Status::usage("loadgen: --connections must be >= 1");
  }
  if (options.rate_rps < 0.0) {
    return Status::usage("loadgen: --rate must be >= 0");
  }

  // Assemble the request lines up front, fail-closed: a malformed trace
  // line is a usage error before a single byte hits the wire.
  std::vector<std::string> lines;
  std::vector<std::string> ids;
  if (!options.trace_path.empty()) {
    std::ifstream in(options.trace_path);
    if (!in) {
      return Status::runtime("loadgen: cannot read trace '" +
                             options.trace_path + "'");
    }
    std::string raw;
    std::size_t line_no = 0;
    while (std::getline(in, raw)) {
      ++line_no;
      if (!raw.empty() && raw.back() == '\r') raw.pop_back();
      std::size_t first = raw.find_first_not_of(" \t");
      if (first == std::string::npos || raw[first] == '#') continue;
      engine::SolveRequest parsed;
      const Status status = parse_request_line(raw, parsed);
      if (!status.ok()) {
        return Status::usage("loadgen: trace line " +
                             std::to_string(line_no) + ": " +
                             status.message());
      }
      lines.push_back(raw);
      ids.push_back(parsed.id);
    }
    if (lines.empty()) {
      return Status::usage("loadgen: trace '" + options.trace_path +
                           "' holds no requests");
    }
  } else {
    if (options.requests < 1) {
      return Status::usage("loadgen: --requests must be >= 1");
    }
    for (int i = 0; i < options.requests; ++i) {
      engine::SolveRequest request;
      request.id = synthetic_id(i);
      request.solver = options.solver;
      request.params = options.params;
      request.trials = options.trials;
      request.seed = options.seed;
      request.deadline_ms = options.deadline_ms;
      lines.push_back(render_request_line(request));
      ids.push_back(request.id);
    }
  }

  const std::size_t total = lines.size();
  const std::size_t connections = std::min(options.connections, total);
  std::vector<RequestRow> rows(total);
  for (std::size_t i = 0; i < total; ++i) rows[i].id = ids[i];

  std::atomic<bool> connect_failed{false};
  const std::uint64_t start_ns = obs::now_ns();
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (std::size_t k = 0; k < connections; ++k) {
    clients.emplace_back([&, k] {
      const int fd = connect_to(options.host, options.port);
      if (fd < 0) {
        connect_failed.store(true, std::memory_order_relaxed);
        return;
      }
      LineReader reader(fd);
      for (std::size_t i = k; i < total; i += connections) {
        if (options.rate_rps > 0.0) {
          // Global open-loop schedule: request i is due at i/rate, capped
          // by the closed loop (a response must come back first).
          const std::uint64_t due_ns =
              start_ns + static_cast<std::uint64_t>(
                             static_cast<double>(i) * 1e9 /
                             options.rate_rps);
          const std::uint64_t now = obs::now_ns();
          if (now < due_ns) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(due_ns - now));
          }
        }
        RequestRow& row = rows[i];
        const std::uint64_t sent_ns = obs::now_ns();
        if (!send_all(fd, lines[i] + "\n")) {
          row.error = "transport";
          break;
        }
        row.sent = true;
        std::string response_line;
        if (!reader.read_line(response_line)) {
          row.error = "transport";
          break;
        }
        row.latency_ms =
            static_cast<double>(obs::now_ns() - sent_ns) / 1e6;
        WireResponse response;
        std::string parse_error;
        if (!parse_response_line(response_line, response, &parse_error)) {
          row.answered = true;
          row.error = "protocol";
          continue;
        }
        row.answered = true;
        row.ok = response.ok;
        if (!response.ok) row.error = response.error;
        row.has_objective = response.has_objective;
        row.objective = response.objective;
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  const double duration_s =
      static_cast<double>(obs::now_ns() - start_ns) / 1e9;

  LoadgenReport summary;
  summary.requests = total;
  util::Accumulator latency(/*keep_samples=*/true);
  for (const RequestRow& row : rows) {
    if (row.ok) {
      ++summary.ok;
    } else {
      ++summary.failed;
    }
    if (row.answered) latency.add(row.latency_ms);
  }
  summary.duration_s = duration_s;
  summary.throughput_rps =
      duration_s > 0.0 ? static_cast<double>(total) / duration_s : 0.0;
  if (latency.count() > 0) {
    // The shared exact-order-statistic percentile (util::percentile_of_sorted)
    // — the same definition the sweep tail columns and figure bands use, so
    // the summary CSV is reproducible from the per-request latency CSV.
    summary.p50_ms = latency.percentile(0.50);
    summary.p95_ms = latency.percentile(0.95);
    summary.p99_ms = latency.percentile(0.99);
  }

  // Artifacts first, verdict second: a failed run must still leave the
  // evidence behind.
  const std::string csv_text = latency_csv_text(rows);
  if (!options.latency_csv.empty()) {
    if (Status status =
            util::write_file_if_changed(options.latency_csv, csv_text);
        !status.ok()) {
      return status;
    }
  }
  if (!options.summary_csv.empty()) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%zu,%zu,%zu,%.3f,%.1f,%.3f,%.3f,%.3f\n", summary.requests,
                  summary.ok, summary.failed, summary.duration_s,
                  summary.throughput_rps, summary.p50_ms, summary.p95_ms,
                  summary.p99_ms);
    const std::string text =
        "requests,ok,failed,duration_s,throughput_rps,p50_ms,p95_ms,"
        "p99_ms\n" +
        std::string(buffer);
    if (Status status = util::write_file_if_changed(options.summary_csv, text);
        !status.ok()) {
      return status;
    }
  }
  if (!options.latency_svg.empty()) {
    const Status rendered = render_latency_svg(csv_text, options.latency_svg);
    if (!rendered.ok()) return rendered;
  }

  std::printf(
      "loadgen: requests=%zu ok=%zu failed=%zu duration_s=%.3f "
      "throughput_rps=%.1f p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f\n",
      summary.requests, summary.ok, summary.failed, summary.duration_s,
      summary.throughput_rps, summary.p50_ms, summary.p95_ms,
      summary.p99_ms);
  std::fflush(stdout);
  if (report != nullptr) *report = summary;

  if (connect_failed.load(std::memory_order_relaxed)) {
    return Status::runtime("loadgen: could not connect to " + options.host +
                           ":" + std::to_string(options.port));
  }
  if (summary.failed > 0 && !options.allow_errors) {
    return Status::runtime("loadgen: " + std::to_string(summary.failed) +
                           " of " + std::to_string(summary.requests) +
                           " requests failed");
  }
  return Status();
}

}  // namespace ps::serve
