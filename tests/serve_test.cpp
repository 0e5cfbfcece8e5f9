// Tests for the request/response path: the SolveService facade (golden
// against direct engine/solver calls), the "powersched-serve v1" wire
// schema (round-trips, fail-closed parsing), and the serve daemon end to
// end over localhost TCP — byte-identical responses vs the in-process
// service, deadline expiry, queue-full backpressure (every request gets a
// response; nothing is silently dropped), concurrent-client determinism,
// protocol fuzz, and graceful drain.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "engine/solve_service.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "report/csv_table.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/instance_io.hpp"
#include "scheduling/power_scheduler.hpp"
#include "serve/loadgen.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/stats.hpp"

namespace ps {
namespace {

// A tiny fully-schedulable instance in the committed text format.
const char kInstanceText[] =
    "powersched-instance v1\n"
    "processors 2\n"
    "horizon 4\n"
    "jobs 3\n"
    "job 5 2 0:0 1:1\n"
    "job 3 1 0:2\n"
    "job 2 2 1:0 0:3\n";

engine::SolveRequest generator_request(const std::string& id) {
  engine::SolveRequest request;
  request.id = id;
  request.solver = "power.greedy";
  request.trials = 3;
  request.seed = 20100601;
  return request;
}

// ---------------------------------------------------------------------------
// SolveService — the programmatic request path.

TEST(SolveService, GeneratorRequestMatchesInlineScenario) {
  const engine::SolveService service;
  engine::SolveResponse response;
  const Status status = service.solve(generator_request("g1"), response);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(response.id, "g1");
  EXPECT_EQ(response.trials, 3);
  ASSERT_TRUE(response.has_objective);

  // Bit-identical to the engine primitive it wraps.
  engine::ScenarioSpec spec;
  spec.solver = "power.greedy";
  spec.trials = 3;
  spec.seed = 20100601;
  const engine::SolverRegistry registry =
      engine::SolverRegistry::with_builtins();
  const engine::ScenarioResult direct =
      engine::run_scenario_inline(registry, spec);
  EXPECT_EQ(response.objective, direct.objective.mean());
  EXPECT_EQ(response.cost, direct.cost.mean());
  EXPECT_EQ(response.oracle_calls, direct.oracle_calls.mean());
}

TEST(SolveService, RepeatRequestsHitThePrivateCache) {
  const engine::SolveService service;
  engine::SolveResponse first;
  engine::SolveResponse second;
  ASSERT_TRUE(service.solve(generator_request("a"), first).ok());
  ASSERT_TRUE(service.solve(generator_request("b"), second).ok());
  EXPECT_EQ(first.objective, second.objective);
  const engine::ScenarioCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(SolveService, InstanceRequestMatchesDirectSolverCall) {
  std::string error;
  const auto instance = scheduling::parse_instance(kInstanceText, &error);
  ASSERT_TRUE(instance) << error;
  const scheduling::RestartCostModel model(2.0);
  const auto direct = scheduling::schedule_all_jobs(*instance, model);
  ASSERT_TRUE(direct.feasible);

  const engine::SolveService service;
  engine::SolveRequest request;
  request.id = "i1";
  request.solver = "power.greedy";
  request.instance_text = kInstanceText;
  request.params.set("vs_opt", 1.0);
  request.want_schedule = true;
  engine::SolveResponse response;
  const Status status = service.solve(request, response);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_TRUE(response.has_objective);
  EXPECT_EQ(response.objective, direct.schedule.energy_cost);
  EXPECT_EQ(response.oracle_calls,
            static_cast<double>(direct.gain_evaluations));
  // vs_opt priced the brute-force optimum: greedy is within the paper's
  // O(log n) factor and never below 1.
  ASSERT_TRUE(response.has_ratio);
  EXPECT_GE(response.ratio, 1.0);
  // The schedule covers every job exactly once.
  ASSERT_TRUE(response.has_schedule);
  EXPECT_EQ(response.schedule.size(), 3u);
}

TEST(SolveService, UsageErrorsAreFailClosed) {
  const engine::SolveService service;
  engine::SolveResponse response;
  const auto expect_usage = [&](engine::SolveRequest request) {
    const Status status = service.solve(request, response);
    EXPECT_EQ(status.code(), Status::Code::kUsage) << status.message();
    EXPECT_EQ(response.id, request.id);  // id echoed even on errors
  };

  engine::SolveRequest request = generator_request("u");
  request.solver = "no.such";
  expect_usage(request);

  request = generator_request("u");
  request.trials = 0;
  expect_usage(request);

  request = generator_request("u");
  request.algo_params = {"eps"};  // not among the request parameters
  expect_usage(request);

  request = generator_request("u");
  request.want_schedule = true;  // generators have no single schedule
  expect_usage(request);

  request = generator_request("u");
  request.instance_text = kInstanceText;
  request.instance_file = "also-a-file";  // mutually exclusive
  expect_usage(request);

  // Instance requests: misspelled knobs are rejected, never ignored.
  request = engine::SolveRequest{};
  request.id = "u";
  request.solver = "power.greedy";
  request.instance_text = kInstanceText;
  request.params.set("aplha", 2.0);
  expect_usage(request);

  request.params = engine::ParamMap{};
  request.params.set("alpha", -1.0);
  expect_usage(request);

  request.params = engine::ParamMap{};
  request.trials = 2;  // instance requests are deterministic
  expect_usage(request);

  request.trials = 1;
  request.solver = "secretary.classic";  // not an instance solver
  expect_usage(request);

  request.solver = "power.greedy";
  request.instance_text = "powersched-instance v1\ngarbage\n";
  expect_usage(request);

  // A missing instance file is a runtime failure, not usage.
  request = engine::SolveRequest{};
  request.id = "u";
  request.solver = "power.greedy";
  request.instance_file = "serve_test_does_not_exist.instance";
  EXPECT_EQ(service.solve(request, response).code(),
            Status::Code::kRuntime);
}

TEST(SolveService, BruteForceReferencesOutsideTheSlotCeilingAreUsage) {
  const engine::SolveService service;
  engine::SolveResponse response;

  // The default generator grid is 2 processors x 12 steps = 24 slots, above
  // the 22 the brute force enumerates: rejected before any trial runs.
  engine::SolveRequest request = generator_request("big");
  request.params.set("vs_opt", 1.0);
  Status status = service.solve(request, response);
  EXPECT_EQ(status.code(), Status::Code::kUsage);
  EXPECT_NE(status.message().find("processors * horizon = 2 * 12 = 24"),
            std::string::npos)
      << status.message();

  request = generator_request("big");
  request.solver = "prize.value_floor";
  request.params.set("processors", 4.0);
  request.params.set("horizon", 6.0);
  EXPECT_EQ(service.solve(request, response).code(), Status::Code::kUsage);

  // At the ceiling the same requests are answered.
  request = generator_request("fits");
  request.params.set("vs_opt", 1.0);
  request.params.set("horizon", 11.0);
  status = service.solve(request, response);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_TRUE(response.has_ratio);

  // Without vs_opt nothing is enumerated, so the grid is unconstrained.
  request = generator_request("no-opt");
  EXPECT_TRUE(service.solve(request, response).ok());
}

TEST(SolveService, GeneratorRequestsTheGeneratorCannotDrawAreUsage) {
  const engine::SolveService service;
  engine::SolveResponse response;

  // More jobs than the 2 x 12 slots a feasible instance plants them in.
  engine::SolveRequest request = generator_request("crowded");
  request.params.set("jobs", 25.0);
  Status status = service.solve(request, response);
  EXPECT_EQ(status.code(), Status::Code::kUsage);
  EXPECT_NE(status.message().find("jobs = 25 exceeds processors * horizon = "
                                  "2 * 12 = 24"),
            std::string::npos)
      << status.message();

  // Sizes below 1, for the power and the prize generators alike.
  for (const char* solver : {"power.greedy", "prize.bicriteria"}) {
    for (const char* size : {"jobs", "processors", "horizon"}) {
      request = generator_request("empty");
      request.solver = solver;
      request.params.set(size, 0.0);
      status = service.solve(request, response);
      EXPECT_EQ(status.code(), Status::Code::kUsage) << solver << " " << size;
      EXPECT_NE(status.message().find(std::string(size) + " = 0"),
                std::string::npos)
          << status.message();
    }
  }

  // The ablation and micro solvers draw from the same generator.
  for (const char* solver :
       {"ablation.incremental_matching", "ablation.parallel_greedy",
        "ablation.candidate_pruning", "micro.power_sched"}) {
    request = generator_request("crowded");
    request.solver = solver;
    request.params = {{"jobs", 50.0}, {"processors", 1.0}, {"horizon", 2.0}};
    status = service.solve(request, response);
    EXPECT_EQ(status.code(), Status::Code::kUsage) << solver;
    EXPECT_NE(status.message().find("jobs = 50 exceeds processors * horizon "
                                    "= 1 * 2 = 2"),
              std::string::npos)
        << status.message();
  }

  // Exactly one job per slot is drawable.
  request = generator_request("full");
  request.params.set("jobs", 24.0);
  status = service.solve(request, response);
  EXPECT_TRUE(status.ok()) << status.message();

  // The random (not planted) generator has no window to draw with any of
  // the sizes below 1, where it would redraw forever instead of answering,
  // and cannot reserve a negative number of jobs.
  const std::pair<const char*, int> undrawable[] = {
      {"windows", 0}, {"horizon", 0}, {"window_length", 0},
      {"processors", 0}, {"jobs", -1}};
  for (const char* solver : {"budget.value", "frontier.primal_dual",
                             "hiring.online", "hiring.naive"}) {
    for (const auto& [name, value] : undrawable) {
      request = generator_request("no-window");
      request.solver = solver;
      request.trials = 1;
      request.params.set(name, value);
      status = service.solve(request, response);
      EXPECT_EQ(status.code(), Status::Code::kUsage) << solver << " " << name;
      EXPECT_NE(status.message().find(std::string(name) + " = " +
                                      std::to_string(value)),
                std::string::npos)
          << status.message();
    }
  }

  // The coverage generator cannot draw more covered elements per item than
  // there are elements; each of these wrote past a mask row before.
  const std::pair<const char*, engine::ParamMap> no_room[] = {
      {"submodular.greedy", {{"cover", 500.0}}},
      {"secretary.submodular", {{"cover", 500.0}}},
      {"core.bicriteria", {{"cover", 500.0}}},
      {"ablation.lazy_vs_plain", {{"items", 2.0}}},
      {"micro.greedy_coverage", {{"n", 3.0}}},
      {"micro.coverage_eval", {{"n", 2.0}}},
      {"secretary.matroid", {{"items", -1.0}}}};
  for (const auto& [solver, params] : no_room) {
    request = generator_request("no-room");
    request.solver = solver;
    request.trials = 1;
    request.params = params;
    status = service.solve(request, response);
    EXPECT_EQ(status.code(), Status::Code::kUsage) << solver;
    EXPECT_NE(status.message().find("cover <= elements, but items = "),
              std::string::npos)
        << status.message();
  }
  // secretary.submodular draws no coverage function for objective 1 or 2.
  request = generator_request("facility");
  request.solver = "secretary.submodular";
  request.trials = 1;
  request.params = {{"cover", 500.0}, {"objective", 1.0}};
  status = service.solve(request, response);
  EXPECT_TRUE(status.ok()) << status.message();
}

// ---------------------------------------------------------------------------
// Wire schema.

TEST(ServeProtocol, RequestLineRoundTrips) {
  engine::SolveRequest request;
  request.id = "rt-1";
  request.solver = "power.greedy";
  request.params.set("alpha", 2.5);
  request.params.set("vs_opt", 1.0);
  request.algo_params = {"alpha"};
  request.trials = 7;
  request.seed = 424242;
  request.instance_text = kInstanceText;
  request.deadline_ms = 1500;
  request.want_schedule = true;

  engine::SolveRequest parsed;
  const Status status =
      serve::parse_request_line(serve::render_request_line(request), parsed);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_EQ(parsed.solver, request.solver);
  EXPECT_EQ(parsed.params.values(), request.params.values());
  EXPECT_EQ(parsed.algo_params, request.algo_params);
  EXPECT_EQ(parsed.trials, request.trials);
  EXPECT_EQ(parsed.seed, request.seed);
  EXPECT_EQ(parsed.instance_text, request.instance_text);
  EXPECT_EQ(parsed.deadline_ms, request.deadline_ms);
  EXPECT_EQ(parsed.want_schedule, request.want_schedule);
}

TEST(ServeProtocol, MalformedRequestsAreUsageErrors) {
  const char* const kBadLines[] = {
      "",
      "not json at all",
      "42",
      "[]",
      "{}",
      R"({"proto":"powersched-serve v1"})",                        // no id
      R"({"proto":"powersched-serve v1","id":"x"})",               // no solver
      R"({"id":"x","solver":"power.greedy"})",                     // no proto
      R"({"proto":"powersched-serve v0","id":"x","solver":"s"})",  // bad ver
      R"({"proto":"powersched-serve v1","id":"","solver":"s"})",
      R"({"proto":"powersched-serve v1","id":"x","solver":""})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s","surprise":1})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s","id":"y"})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s","trials":0})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s","trials":1.5})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s","trials":"3"})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s","seed":-1})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s","params":[]})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s",)"
      R"("params":{"a":"b"}})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s",)"
      R"("params":{"a":1,"a":2}})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s",)"
      R"("algo_params":[1]})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s",)"
      R"("deadline_ms":-5})",
      R"({"proto":"powersched-serve v1","id":"x","solver":"s",)"
      R"("want_schedule":"yes"})",
  };
  for (const char* line : kBadLines) {
    engine::SolveRequest request;
    EXPECT_EQ(serve::parse_request_line(line, request).code(),
              Status::Code::kUsage)
        << line;
  }
}

TEST(ServeProtocol, ResponseLinesParse) {
  engine::SolveResponse response;
  response.id = "ok-1";
  response.trials = 2;
  response.has_objective = true;
  response.objective = 12.5;
  response.has_ratio = true;
  response.ratio = 1.25;
  response.solve_ns = 99;
  serve::WireResponse wire;
  std::string error;
  ASSERT_TRUE(serve::parse_response_line(
      serve::render_ok_response(response, /*include_timing=*/true), wire,
      &error))
      << error;
  EXPECT_TRUE(wire.ok);
  EXPECT_EQ(wire.id, "ok-1");
  EXPECT_EQ(wire.trials, 2);
  EXPECT_EQ(wire.objective, 12.5);
  EXPECT_EQ(wire.ratio, 1.25);
  EXPECT_EQ(wire.solve_ns, 99u);

  ASSERT_TRUE(serve::parse_response_line(
      serve::render_error_response("bad-1", serve::kErrorOverloaded,
                                   "queue full"),
      wire, &error))
      << error;
  EXPECT_FALSE(wire.ok);
  EXPECT_EQ(wire.id, "bad-1");
  EXPECT_EQ(wire.error, serve::kErrorOverloaded);
  EXPECT_EQ(wire.message, "queue full");

  EXPECT_FALSE(serve::parse_response_line("{}", wire, &error));
  EXPECT_FALSE(serve::parse_response_line("nope", wire, &error));
}

// ---------------------------------------------------------------------------
// The daemon, end to end over localhost.

class ServerFixture {
 public:
  explicit ServerFixture(serve::ServeOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<serve::Server>(options);
    const Status status = server_->start();
    EXPECT_TRUE(status.ok()) << status.message();
    port_ = server_->port();
  }

  int port() const { return port_; }
  serve::Server& server() { return *server_; }

 private:
  std::unique_ptr<serve::Server> server_;
  int port_ = 0;
};

class Client {
 public:
  explicit Client(int port)
      : fd_(serve::connect_to("127.0.0.1", port)), reader_(fd_) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool valid() const { return fd_ >= 0; }
  bool send_line(const std::string& line) {
    return serve::send_all(fd_, line + "\n");
  }
  bool read_line(std::string& line) { return reader_.read_line(line); }

 private:
  int fd_;
  serve::LineReader reader_;
};

TEST(Serve, ResponsesAreByteIdenticalToTheInProcessService) {
  serve::ServeOptions options;
  options.include_timing = false;  // solve_ns is the one nondeterministic bit
  ServerFixture fixture(options);
  Client client(fixture.port());
  ASSERT_TRUE(client.valid());

  const engine::SolveRequest request = generator_request("golden-1");
  ASSERT_TRUE(client.send_line(serve::render_request_line(request)));
  std::string line;
  ASSERT_TRUE(client.read_line(line));

  const engine::SolveService service;
  engine::SolveResponse direct;
  ASSERT_TRUE(service.solve(request, direct).ok());
  EXPECT_EQ(line, serve::render_ok_response(direct, /*include_timing=*/false));
}

TEST(Serve, ExpiredDeadlinesGetDeadlineErrors) {
  serve::ServeOptions options;
  options.debug_delay_ms = 30;  // every worker sleeps past the deadline
  ServerFixture fixture(options);
  Client client(fixture.port());
  ASSERT_TRUE(client.valid());

  engine::SolveRequest request = generator_request("dl-1");
  request.deadline_ms = 1;
  ASSERT_TRUE(client.send_line(serve::render_request_line(request)));
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  serve::WireResponse wire;
  std::string error;
  ASSERT_TRUE(serve::parse_response_line(line, wire, &error)) << error;
  EXPECT_FALSE(wire.ok);
  EXPECT_EQ(wire.id, "dl-1");
  EXPECT_EQ(wire.error, serve::kErrorDeadline);
}

TEST(Serve, QueueFullIsBackpressureNeverASilentDrop) {
  serve::ServeOptions options;
  options.threads = 1;
  options.queue_limit = 1;
  options.debug_delay_ms = 100;  // hold the admitted request in the worker
  ServerFixture fixture(options);
  Client client(fixture.port());
  ASSERT_TRUE(client.valid());

  constexpr int kRequests = 4;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += serve::render_request_line(
        generator_request("q-" + std::to_string(i)));
    burst += "\n";
  }
  ASSERT_TRUE(client.send_line(burst.substr(0, burst.size() - 1)));

  // Every request gets exactly one response — the overloaded ones
  // immediately, the admitted ones after the debug delay.
  std::map<std::string, std::string> outcome_by_id;
  for (int i = 0; i < kRequests; ++i) {
    std::string line;
    ASSERT_TRUE(client.read_line(line)) << "response " << i;
    serve::WireResponse wire;
    std::string error;
    ASSERT_TRUE(serve::parse_response_line(line, wire, &error)) << error;
    EXPECT_EQ(outcome_by_id.count(wire.id), 0u) << wire.id;
    outcome_by_id[wire.id] = wire.ok ? "ok" : wire.error;
  }
  EXPECT_EQ(outcome_by_id.size(), static_cast<std::size_t>(kRequests));
  int ok = 0;
  int overloaded = 0;
  for (const auto& [id, outcome] : outcome_by_id) {
    if (outcome == "ok") {
      ++ok;
    } else {
      EXPECT_EQ(outcome, serve::kErrorOverloaded) << id;
      ++overloaded;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
}

TEST(Serve, ConcurrentClientsGetIdenticalAnswers) {
  serve::ServeOptions options;
  options.threads = 4;
  options.include_timing = false;
  ServerFixture fixture(options);

  constexpr int kClients = 6;
  std::vector<std::string> lines(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&fixture, &lines, i] {
      Client client(fixture.port());
      if (!client.valid()) return;
      if (!client.send_line(
              serve::render_request_line(generator_request("same-id")))) {
        return;
      }
      client.read_line(lines[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_FALSE(lines[static_cast<std::size_t>(i)].empty()) << i;
    EXPECT_EQ(lines[static_cast<std::size_t>(i)], lines[0]) << i;
  }
}

TEST(Serve, ProtocolFuzzGetsUsageErrorsAndTheServerSurvives) {
  ServerFixture fixture;
  Client client(fixture.port());
  ASSERT_TRUE(client.valid());

  const char* const kFuzzLines[] = {
      "not json",
      "{}",
      "[1,2,3]",
      R"({"proto":"powersched-serve v2","id":"f","solver":"s"})",
      R"({"proto":"powersched-serve v1","id":"f"})",
      R"({"proto":"powersched-serve v1","id":"f","solver":"s","zzz":true})",
      R"({"proto":"powersched-serve v1","id":"f","solver":"s","trials":-1})",
      R"({"proto":"powersched-serve v1","id":"f","solver":"no.such"})",
      R"({"proto":"powersched-serve v1","id":"f","solver":"power.greedy",)"
      R"("instance":"garbage"})",
  };
  for (const char* line : kFuzzLines) {
    ASSERT_TRUE(client.send_line(line));
    std::string response;
    ASSERT_TRUE(client.read_line(response)) << line;
    serve::WireResponse wire;
    std::string error;
    ASSERT_TRUE(serve::parse_response_line(response, wire, &error))
        << error << " <- " << line;
    EXPECT_FALSE(wire.ok) << line;
    EXPECT_EQ(wire.error, serve::kErrorUsage) << line;
  }

  // The daemon is still healthy after the abuse.
  ASSERT_TRUE(
      client.send_line(serve::render_request_line(generator_request("ok"))));
  std::string response;
  ASSERT_TRUE(client.read_line(response));
  serve::WireResponse wire;
  std::string error;
  ASSERT_TRUE(serve::parse_response_line(response, wire, &error)) << error;
  EXPECT_TRUE(wire.ok);
  EXPECT_EQ(wire.id, "ok");
}

TEST(Serve, GracefulDrainAnswersAdmittedRequests) {
  serve::ServeOptions options;
  options.debug_delay_ms = 50;
  ServerFixture fixture(options);
  Client client(fixture.port());
  ASSERT_TRUE(client.valid());

  ASSERT_TRUE(
      client.send_line(serve::render_request_line(generator_request("d-1"))));
  // Give the event loop a moment to admit the request, then start the
  // drain while the worker still holds it.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  fixture.server().request_stop();

  std::string line;
  ASSERT_TRUE(client.read_line(line));  // the response still arrives
  serve::WireResponse wire;
  std::string error;
  ASSERT_TRUE(serve::parse_response_line(line, wire, &error)) << error;
  EXPECT_TRUE(wire.ok);
  EXPECT_EQ(wire.id, "d-1");
  EXPECT_FALSE(client.read_line(line));  // then the daemon closes
  fixture.server().wait();
}

TEST(Loadgen, ReplaysTheCommittedTraceAndWritesArtifacts) {
  ServerFixture fixture;
  serve::LoadgenOptions options;
  options.port = fixture.port();
  options.trace_path =
      std::string(POWERSCHED_SOURCE_DIR) + "/tests/data/serve_trace.jsonl";
  options.connections = 3;
  const std::string dir = ::testing::TempDir();
  options.latency_csv = dir + "serve_test_latency.csv";
  options.summary_csv = dir + "serve_test_summary.csv";
  options.latency_svg = dir + "serve_test_latency.svg";

  serve::LoadgenReport report;
  const Status status = serve::run_loadgen(options, &report);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(report.requests, 12u);
  EXPECT_EQ(report.ok, 12u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_LE(report.p50_ms, report.p95_ms);
  EXPECT_LE(report.p95_ms, report.p99_ms);

  std::ifstream latency(options.latency_csv);
  std::string header;
  ASSERT_TRUE(std::getline(latency, header));
  EXPECT_EQ(header, "request,id,ok,error,latency_ms,objective");
  int rows = 0;
  for (std::string row; std::getline(latency, row);) ++rows;
  EXPECT_EQ(rows, 12);
  std::ifstream summary(options.summary_csv);
  ASSERT_TRUE(std::getline(summary, header));
  EXPECT_EQ(header,
            "requests,ok,failed,duration_s,throughput_rps,p50_ms,p95_ms,"
            "p99_ms");
  std::ifstream svg(options.latency_svg);
  ASSERT_TRUE(std::getline(svg, header));
  EXPECT_NE(header.find("<svg"), std::string::npos);
  for (const std::string& path :
       {options.latency_csv, options.summary_csv, options.latency_svg}) {
    std::remove(path.c_str());
  }
}

// One definition of "percentile": the p50/p95/p99 in the summary CSV must
// equal the shared exact-order-statistic routine applied to the latencies
// in the per-request CSV. (Both artifacts print %.3f, and the percentile is
// always an observed sample, so the comparison is exact at that precision.)
TEST(Loadgen, SummaryPercentilesMatchSharedRoutineOverLatencyCsv) {
  ServerFixture fixture;
  serve::LoadgenOptions options;
  options.port = fixture.port();
  options.trace_path =
      std::string(POWERSCHED_SOURCE_DIR) + "/tests/data/serve_trace.jsonl";
  options.connections = 2;
  const std::string dir = ::testing::TempDir();
  options.latency_csv = dir + "serve_test_consistency_latency.csv";
  options.summary_csv = dir + "serve_test_consistency_summary.csv";
  ASSERT_TRUE(serve::run_loadgen(options).ok());

  report::CsvTable latency_table;
  ASSERT_TRUE(report::CsvTable::load(options.latency_csv, latency_table));
  const std::ptrdiff_t latency_col = latency_table.column("latency_ms");
  ASSERT_GE(latency_col, 0);
  std::vector<double> latencies;
  for (std::size_t row = 0; row < latency_table.num_rows(); ++row) {
    double value = 0.0;
    if (latency_table.numeric_cell(
            row, static_cast<std::size_t>(latency_col), value)) {
      latencies.push_back(value);
    }
  }
  ASSERT_FALSE(latencies.empty());
  std::sort(latencies.begin(), latencies.end());

  report::CsvTable summary_table;
  ASSERT_TRUE(report::CsvTable::load(options.summary_csv, summary_table));
  ASSERT_EQ(summary_table.num_rows(), 1u);
  for (const auto& [column, q] :
       std::vector<std::pair<std::string, double>>{
           {"p50_ms", 0.50}, {"p95_ms", 0.95}, {"p99_ms", 0.99}}) {
    const std::ptrdiff_t col = summary_table.column(column);
    ASSERT_GE(col, 0) << column;
    char expected[32];
    std::snprintf(expected, sizeof(expected), "%.3f",
                  util::percentile_of_sorted(latencies, q));
    EXPECT_EQ(summary_table.cell(0, static_cast<std::size_t>(col)), expected)
        << column;
  }
  std::remove(options.latency_csv.c_str());
  std::remove(options.summary_csv.c_str());
}

TEST(Loadgen, SyntheticModeIsStrictAboutFailures) {
  ServerFixture fixture;
  serve::LoadgenOptions options;
  options.port = fixture.port();
  options.solver = "no.such.solver";  // every response is a usage error
  options.requests = 3;
  serve::LoadgenReport report;
  EXPECT_EQ(serve::run_loadgen(options, &report).code(),
            Status::Code::kRuntime);
  EXPECT_EQ(report.failed, 3u);
  // ...unless the caller opts into counting failures instead.
  options.allow_errors = true;
  EXPECT_TRUE(serve::run_loadgen(options, &report).ok());
  EXPECT_EQ(report.failed, 3u);
}

TEST(Loadgen, MalformedTraceIsRejectedBeforeAnythingIsSent) {
  ServerFixture fixture;
  const std::string path = ::testing::TempDir() + "serve_test_bad_trace.jsonl";
  {
    std::ofstream out(path);
    out << "{\"proto\":\"powersched-serve v1\",\"id\":\"a\","
           "\"solver\":\"power.greedy\"}\n";
    out << "this line is not a request\n";
  }
  serve::LoadgenOptions options;
  options.port = fixture.port();
  options.trace_path = path;
  const Status status = serve::run_loadgen(options);
  EXPECT_EQ(status.code(), Status::Code::kUsage);
  // The diagnostic names the offending line.
  EXPECT_NE(status.message().find("line 2"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(Serve, InstrumentsCountTheTraffic) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  {
    serve::ServeOptions options;
    ServerFixture fixture(options);
    Client client(fixture.port());
    ASSERT_TRUE(client.valid());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(client.send_line(serve::render_request_line(
          generator_request("m-" + std::to_string(i)))));
      std::string line;
      ASSERT_TRUE(client.read_line(line));
    }
    ASSERT_TRUE(client.send_line("not json"));
    std::string line;
    ASSERT_TRUE(client.read_line(line));
  }
  obs::set_enabled(false);
  const obs::Registry::Snapshot snapshot = obs::Registry::global().snapshot();
  obs::Registry::global().reset();
  const auto counter = [&snapshot](const std::string& name) -> std::uint64_t {
    for (const auto& row : snapshot.counters) {
      if (row.name == name) return row.value;
    }
    return 0;
  };
  EXPECT_EQ(counter("serve.requests.accepted"), 3u);
  EXPECT_EQ(counter("serve.requests.served"), 3u);
  EXPECT_EQ(counter("serve.requests.rejected"), 1u);
  EXPECT_EQ(counter("serve.requests.overloaded"), 0u);
  EXPECT_EQ(counter("serve.requests.timed_out"), 0u);
}

}  // namespace
}  // namespace ps
