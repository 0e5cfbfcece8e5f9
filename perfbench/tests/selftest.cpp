// Self-tests of the benchmark's own machinery: the open-loop client charges
// a stall to the requests that were due during it, percentiles follow the
// repository's one definition, the closed loop keeps its window, and the
// output checks catch what they must.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "engine/solve_service.hpp"
#include "open_loop.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/stats.hpp"

namespace {

/// A one-connection stand-in for the daemon: answers every request line at
/// once with an ok response carrying its id, except that after reading
/// request `stall_after` it stops for `stall_ms` before answering.
class StallingServer {
 public:
  StallingServer(int stall_after, int stall_ms)
      : listen_fd_(ps::serve::listen_on("127.0.0.1", 0)),
        thread_([this, stall_after, stall_ms] { serve(stall_after, stall_ms); }) {}
  ~StallingServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;

  int port() const { return ps::serve::bound_port(listen_fd_); }

 private:
  void serve(int stall_after, int stall_ms) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    ps::serve::LineReader reader(fd);
    std::string line;
    for (int n = 0; reader.read_line(line); ++n) {
      ps::engine::SolveRequest request;
      (void)ps::serve::parse_request_line(line, request);
      if (n == stall_after) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      }
      ps::engine::SolveResponse response;
      response.id = request.id;
      response.trials = 1;
      if (!ps::serve::send_all(
              fd, ps::serve::render_ok_response(response, true) + "\n")) {
        break;
      }
    }
    ::close(fd);
  }

  int listen_fd_;
  std::thread thread_;
};

std::vector<perfbench::ScheduledRequest> schedule(int count, double spacing_s) {
  std::vector<perfbench::ScheduledRequest> out;
  for (int i = 0; i < count; ++i) {
    ps::engine::SolveRequest request;
    char id[16];
    std::snprintf(id, sizeof(id), "r%d", i);
    request.id = id;
    request.solver = "power.greedy";
    out.push_back({request.id, ps::serve::render_request_line(request),
                   i * spacing_s});
  }
  return out;
}

TEST(OpenLoopClient, StallIsChargedToRequestsDueDuringIt) {
  constexpr int kStallAfter = 20;
  constexpr int kStallMs = 300;
  constexpr double kSpacingS = 0.005;
  StallingServer server(kStallAfter, kStallMs);
  perfbench::OpenLoopClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), 1));
  const auto requests = schedule(160, kSpacingS);
  const auto outcomes = client.run(requests, 2.0);
  client.close();

  ASSERT_EQ(outcomes.size(), requests.size());
  for (const auto& outcome : outcomes) ASSERT_TRUE(outcome.answered);
  // The stall starts when request kStallAfter arrives and ends kStallMs
  // later; a request due at offset d into it waits about kStallMs - d.
  const double stall_start = requests[kStallAfter].due_s;
  for (int i = kStallAfter; i < 160; ++i) {
    const double into_stall_ms = (requests[i].due_s - stall_start) * 1e3;
    if (into_stall_ms > kStallMs - 50) break;
    EXPECT_GE(outcomes[i].latency_ms(requests[i].due_s),
              kStallMs - into_stall_ms - 10)
        << "request " << i << " was due " << into_stall_ms
        << " ms into the stall";
    // It went out on time: the wait is the server's, yet it is charged.
    EXPECT_LT(outcomes[i].lag_ms(requests[i].due_s), 20.0);
  }
  // Well after the stall drained, latency is back to a loopback round trip.
  EXPECT_LT(outcomes[150].latency_ms(requests[150].due_s), 50.0);
  EXPECT_LT(outcomes[5].latency_ms(requests[5].due_s), 50.0);
}

TEST(OpenLoopClient, LateSendsAreChargedFromTheDueTime) {
  StallingServer server(-1, 0);
  perfbench::OpenLoopClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), 1));
  auto requests = schedule(3, 0.0);
  // Due 200 ms before the run starts: the sender is already late.
  for (auto& request : requests) request.due_s = -0.2;
  const auto outcomes = client.run(requests, 2.0);
  client.close();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_GE(outcomes[i].lag_ms(requests[i].due_s), 200.0);
    EXPECT_GE(outcomes[i].latency_ms(requests[i].due_s), 200.0);
  }
}

TEST(OpenLoopClient, UnansweredRequestsMissEveryLimit) {
  perfbench::RequestOutcome outcome;
  EXPECT_TRUE(std::isinf(outcome.latency_ms(0.0)));
}

TEST(Percentiles, UseTheRepositoryDefinition) {
  const std::vector<double> values = {9, 1, 8, 2, 7, 3, 6, 4, 5, 10};
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(perfbench::percentile(values, q),
              ps::util::percentile_of_sorted(sorted, q))
        << "q=" << q;
  }
  // The definition picks an observed sample, never an interpolation.
  EXPECT_EQ(perfbench::median({1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::percentile({}, 0.5), 0.0);
}

TEST(DeterministicCsv, DropsOnlyClockColumns) {
  const std::string a =
      "solver,n,objective_mean,m_lazy_ms,m_ms_before,m_speedup,m_evals,"
      "wall_ms_mean\nx,1,2.5,0.1,0.2,3,7,0.4\n";
  const std::string b =
      "solver,n,objective_mean,m_lazy_ms,m_ms_before,m_speedup,m_evals,"
      "wall_ms_mean\nx,1,2.5,0.9,0.8,1,7,0.5\n";
  const std::string c =
      "solver,n,objective_mean,m_lazy_ms,m_ms_before,m_speedup,m_evals,"
      "wall_ms_mean\nx,1,2.5,0.9,0.8,1,8,0.5\n";
  EXPECT_EQ(perfbench::deterministic_csv(a), perfbench::deterministic_csv(b));
  EXPECT_NE(perfbench::deterministic_csv(a), perfbench::deterministic_csv(c));
  EXPECT_EQ(perfbench::deterministic_csv("a,b\n1\n"), "");
}

TEST(Report, RejectsUndeclaredAndMissingMetrics) {
  const auto* spec = perfbench::find_workload("dispatch_tails");
  ASSERT_NE(spec, nullptr);
  testing::internal::CaptureStdout();
  perfbench::Report undeclared;
  undeclared.attempt(true);
  for (const auto& metric : perfbench::end_to_end_metrics()) {
    undeclared.add(metric.name, 1.0);
  }
  undeclared.add("not_a_metric", 1.0);
  undeclared.print(*spec, false);
  perfbench::Report missing;
  missing.attempt(true);
  missing.add("setup_s", 1.0);
  missing.print(*spec, false);
  perfbench::Report complete;
  complete.attempt(true);
  for (const auto& metric : perfbench::end_to_end_metrics()) {
    complete.add(metric.name, 1.0);
  }
  complete.print(*spec, false);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.find("{\"correct\": false"), 0u);
  const auto second = out.find('\n') + 1;
  EXPECT_EQ(out.find("{\"correct\": false", second), second);
  const auto third = out.find('\n', second) + 1;
  EXPECT_EQ(out.find("{\"correct\": true", third), third);
}

// The closed loop never has more than `window` requests unanswered on a
// connection: request i goes out only after request i - window came back,
// even across a stall of the daemon.
TEST(OpenLoopClient, WindowedRunKeepsTheWindow) {
  constexpr std::size_t kWindow = 4;
  StallingServer server(10, 200);
  perfbench::OpenLoopClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), 1));
  const auto requests = schedule(40, 0.0);
  const auto outcomes = client.run_windowed(requests, kWindow, 5.0);
  client.close();
  ASSERT_EQ(outcomes.size(), requests.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].answered) << i;
    EXPECT_EQ(outcomes[i].response.id, requests[i].id);
    if (i >= kWindow) {
      EXPECT_GE(outcomes[i].sent_s, outcomes[i - kWindow].done_s) << i;
    }
  }
  EXPECT_GE(outcomes.back().done_s, 0.2);
}

// Every workload prints every per-layer metric: a layer the workload never
// calls reads 0, and one it does call must have been measured.
TEST(Report, PrintsUnusedLayersAsZero) {
  const auto* spec = perfbench::find_workload("serve_mix");
  ASSERT_NE(spec, nullptr);
  testing::internal::CaptureStdout();
  perfbench::Report report;
  report.attempt(true);
  for (const auto& metric : spec->per_layer) report.add(metric.name, 1.0);
  report.print(*spec, true);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.find("{\"correct\": true"), 0u);
  for (const auto& metric : perfbench::per_layer_metrics()) {
    EXPECT_NE(out.find("\"" + metric.name + "\": {\"value\": "), std::string::npos)
        << metric.name;
  }
  EXPECT_NE(out.find("\"cache_store.load_ns\": {\"value\": 0,"),
            std::string::npos);
}

}  // namespace
