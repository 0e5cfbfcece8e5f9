// Workload `serve_mix`: an in-process serve::Server on loopback with 2
// solver workers, driven by the benchmark's own client over 4 pipelined
// connections. Three kinds of request:
//
//   miss    cheap power.greedy generator requests with unique seeds, which
//           miss SolveService's warm scenario cache (~0.1 ms each);
//   repeat  exact repeats of an earlier miss, served from that cache;
//   heavy   power.greedy instance requests with vs_opt=1 on freshly
//           generated 14-slot instances, each pricing the brute-force
//           optimum (20-30 ms); a fifth of them repeat an earlier instance
//           and hit the reference cache.
//
// The shares of the mix are chosen, not taken from a recorded trace (see
// NOTES.md); the traced run reports the share of daemon solve time each
// kind takes, so a reader can see which layer `cold_s` tracks.
//
// End-to-end: each timed round starts a fresh daemon and sends it a batch
// of kBatch requests of the mix in a closed loop (kWindow in flight per
// connection, within the daemon's queue limit, so nothing is refused).
// `cold_s` is how long the batch takes on the fresh daemon; `warm_s` is how
// long the same batch takes again right after, when every generator
// request hits the scenario cache and every optimum the reference cache. The traced run drives the daemon open-loop instead, at two
// fixed rates, `low` and `high` (well below saturation), with latency from
// each request's due time; its p50/p99 move with the host's load by far
// more than any end-to-end bound allows (see NOTES.md), so they are
// per-layer readings.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>

#include "common.hpp"
#include "engine/reference_cache.hpp"
#include "engine/solve_service.hpp"
#include "open_loop.hpp"
#include "scheduling/generators.hpp"
#include "scheduling/instance_io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 4;
/// Set-ups timed before each timed round.
constexpr int kSetupBatch = 10;
/// Requests per timed batch, and how many each connection keeps in flight
/// (4 x 8 stays inside the daemon's default queue limit of 64).
constexpr std::size_t kBatch = 2000;
constexpr std::size_t kWindow = 8;
constexpr double kBatchTimeoutS = 30.0;

constexpr double kLowRps = 400.0;
constexpr double kHighRps = 1200.0;

/// Every kHeavyEvery-th request is heavy (2%): spacing them evenly in the
/// arrival order keeps the p99 a property of the daemon, not of how many
/// heavy requests a seed happens to bunch together.
constexpr std::size_t kHeavyEvery = 50;
constexpr double kRepeatShare = 0.30;
/// Share of heavy requests that reuse an earlier heavy instance.
constexpr double kHeavyRepeatShare = 0.2;
/// Generous request deadline: a request the daemon cannot start within it
/// comes back as a `deadline` error (counted in serve.timed_out).
constexpr std::int64_t kDeadlineMs = 2000;
constexpr double kDrainS = 3.0;

enum class Kind { kMiss, kRepeat, kHeavy };

struct Stream {
  std::vector<ScheduledRequest> requests;
  std::vector<Kind> kinds;
};

/// Generates the seeded request streams of successive phases. The builder
/// remembers every miss and heavy instance it issued, so a repeat can
/// target any earlier one, in this phase or a previous one.
class StreamBuilder {
 public:
  explicit StreamBuilder(std::uint64_t seed)
      : rng_(seed), seed_(seed), heavy_offset_(rng_.uniform_u64(kHeavyEvery)) {}

  /// Poisson arrivals at `rate_rps` for `seconds`.
  Stream build(const std::string& phase, double rate_rps, double seconds) {
    Stream stream;
    double due = 0.0;
    for (std::size_t i = 0;; ++i) {
      due += rng_.exponential(rate_rps);
      if (due >= seconds) break;
      add(phase + std::to_string(i), due, stream);
    }
    return stream;
  }

  /// `count` requests, all due at once (for the closed loop).
  Stream batch(const std::string& phase, std::size_t count) {
    Stream stream;
    for (std::size_t i = 0; i < count; ++i) {
      add(phase + std::to_string(i), 0.0, stream);
    }
    return stream;
  }

 private:
  /// Appends the next request of the mix to `stream`.
  void add(const std::string& id, double due, Stream& stream) {
    ps::engine::SolveRequest request;
    request.id = id;
    request.deadline_ms = kDeadlineMs;
    Kind kind = Kind::kMiss;
    if (count_++ % kHeavyEvery == heavy_offset_) {
      kind = Kind::kHeavy;
      request.solver = "power.greedy";
      request.params.set("vs_opt", 1.0);
      request.params.set("alpha", 2.0);
      if (!instances_.empty() && rng_.bernoulli(kHeavyRepeatShare)) {
        request.instance_text = instances_[rng_.uniform_u64(instances_.size())];
      } else {
        request.instance_text = fresh_instance();
        instances_.push_back(request.instance_text);
      }
    } else if (rng_.bernoulli(kRepeatShare) && !misses_.empty()) {
      kind = Kind::kRepeat;
      request.solver = "power.greedy";
      request.params.set("jobs", 8.0);
      request.seed = misses_[rng_.uniform_u64(misses_.size())];
    } else {
      request.solver = "power.greedy";
      request.params.set("jobs", 8.0);
      // The wire carries seeds below 2^53.
      request.seed = (seed_ * 1000003ULL + next_miss_++) & ((1ULL << 53) - 1);
      misses_.push_back(request.seed);
    }
    stream.requests.push_back(
        {request.id, ps::serve::render_request_line(request), due});
    stream.kinds.push_back(kind);
  }

  /// A random feasible 7-job instance on 2 processors x 7 slots whose 14
  /// slots are all admissible, so every heavy request enumerates the same
  /// 2^14 slot subsets.
  std::string fresh_instance() {
    ps::scheduling::RandomInstanceParams params;
    params.num_jobs = 7;
    params.num_processors = 2;
    params.horizon = 7;
    while (true) {
      const auto instance =
          ps::scheduling::random_feasible_instance(params, rng_);
      std::set<int> slots;
      for (const auto& job : instance.jobs()) {
        for (const auto& ref : job.allowed) slots.insert(instance.slot_index(ref));
      }
      if (slots.size() == 14) return ps::scheduling::instance_to_text(instance);
    }
  }

  ps::util::Rng rng_;
  std::uint64_t seed_;
  std::size_t heavy_offset_;
  std::size_t count_ = 0;
  std::uint64_t next_miss_ = 0;
  std::vector<std::uint64_t> misses_;
  std::vector<std::string> instances_;
};

struct Phase {
  std::string name;
  Stream stream;
  std::vector<RequestOutcome> outcomes;
};

/// Due-time latencies of `phase`, failed or refused requests as +infinity.
std::vector<double> latencies(const Phase& phase) {
  std::vector<double> out;
  for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
    const auto& outcome = phase.outcomes[i];
    out.push_back(outcome.response.ok
                      ? outcome.latency_ms(phase.stream.requests[i].due_s)
                      : std::numeric_limits<double>::infinity());
  }
  return out;
}

class ServeFixture {
 public:
  ServeFixture() = default;
  ~ServeFixture() { stop(); }
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  /// Starts a server and connects `connections` client sockets; false on
  /// failure.
  bool start(std::size_t connections) {
    ps::serve::ServeOptions options;
    options.threads = kWorkers;
    server_ = std::make_unique<ps::serve::Server>(options);
    return server_->start().ok() &&
           client_.connect("127.0.0.1", server_->port(), connections);
  }
  void stop() {
    client_.close();
    if (server_ != nullptr) {
      server_->request_stop();
      server_->wait();
      server_.reset();
    }
  }

  OpenLoopClient& client() { return client_; }

 private:
  std::unique_ptr<ps::serve::Server> server_;
  OpenLoopClient client_;
};

/// Server construction, start() and the first client connect of a
/// throwaway daemon, in seconds; -1 on failure. Stopping it is not timed.
double setup_once() {
  ServeFixture fixture;
  const std::uint64_t start = now_ns();
  return fixture.start(1) ? seconds_since(start) : -1.0;
}

/// Replays every request of `phases` in order through a fresh in-process
/// SolveService and compares each response's deterministic fields; a
/// refused or failed request counts as a failed operation. Fills per-kind
/// solve times (ns) and per-call render times when asked.
void check_phases(const std::vector<const Phase*>& phases, Report& report,
                  std::vector<double> solve_ns[3],
                  std::vector<double>* render_ns) {
  ps::engine::SolveService service;
  for (const Phase* phase : phases) {
    for (std::size_t i = 0; i < phase->outcomes.size(); ++i) {
      const auto& request = phase->stream.requests[i];
      const auto& outcome = phase->outcomes[i];
      const auto& wire = outcome.response;
      if (!outcome.answered) {
        report.attempt(false, "serve request " + request.id + " unanswered");
        continue;
      }
      if (!wire.ok) {
        report.attempt(false, "serve request " + request.id + " failed: " +
                                  wire.error + " " + wire.message);
        continue;
      }
      ps::engine::SolveRequest parsed;
      ps::engine::SolveResponse expected;
      bool ok = ps::serve::parse_request_line(request.line, parsed).ok();
      const std::uint64_t start = now_ns();
      ok = ok && service.solve(parsed, expected).ok();
      const double ns = static_cast<double>(now_ns() - start);
      solve_ns[static_cast<int>(phase->stream.kinds[i])].push_back(ns);
      if (render_ns != nullptr) {
        const std::uint64_t render_start = now_ns();
        const std::string line = ps::serve::render_ok_response(expected, true);
        render_ns->push_back(static_cast<double>(now_ns() - render_start));
        ok = ok && !line.empty();
      }
      ok = ok && wire.id == request.id && wire.trials == expected.trials &&
           wire.infeasible == expected.infeasible &&
           wire.has_objective == expected.has_objective &&
           wire.has_ratio == expected.has_ratio &&
           (!wire.has_objective || wire.objective == expected.objective) &&
           (!wire.has_ratio || wire.ratio == expected.ratio);
      report.attempt(ok, "serve response " + request.id +
                             " differs from SolveService::solve");
    }
  }
}

/// Mean ns per parse_request_line over every line of `phases`, median of a
/// few rounds.
double parse_ns(const std::vector<const Phase*>& phases) {
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    std::size_t calls = 0;
    const std::uint64_t start = now_ns();
    for (const Phase* phase : phases) {
      for (const auto& request : phase->stream.requests) {
        ps::engine::SolveRequest parsed;
        (void)ps::serve::parse_request_line(request.line, parsed);
        ++calls;
      }
    }
    rounds.push_back(static_cast<double>(now_ns() - start) /
                     static_cast<double>(calls));
  }
  return median(rounds);
}

void report_phase_layers(const Phase& phase, Report& report) {
  std::vector<double> overhead;
  for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
    const auto& outcome = phase.outcomes[i];
    if (!outcome.response.ok) continue;
    overhead.push_back(outcome.latency_ms(phase.stream.requests[i].due_s) -
                       static_cast<double>(outcome.response.solve_ns) / 1e6);
  }
  report.add("serve.overhead_ms.p50." + phase.name, percentile(overhead, 0.5));
  report.add("serve.overhead_ms.p99." + phase.name, percentile(overhead, 0.99));
  report.add("serve.samples." + phase.name,
             static_cast<double>(phase.outcomes.size()));
}

}  // namespace

namespace {

/// The traced run: the open loop at `low` and then `high`, each for half
/// of `seconds`, on one daemon; then the layer readings and a
/// serial SolveService replay that checks every response.
void run_traced(std::uint64_t seed, double seconds, Report& report) {
  StreamBuilder builder(seed);
  ServeFixture fixture;
  if (!fixture.start(kConnections)) {
    report.attempt(false, "serve fixture failed to start");
    return;
  }
  std::vector<Phase> phases;
  for (auto [name, rate] : {std::pair{"low", kLowRps}, {"high", kHighRps}}) {
    Phase phase;
    phase.name = name;
    phase.stream = builder.build(name, rate, seconds / 2.0);
    phase.outcomes = fixture.client().run(phase.stream.requests, kDrainS);
    phases.push_back(std::move(phase));
  }
  fixture.stop();
  const std::vector<const Phase*> fixed = {&phases[0], &phases[1]};

  std::vector<double> solve_ns[3];
  std::vector<double> render_ns;
  std::size_t overloaded = 0, timed_out = 0;
  std::vector<double> lag, cheap;
  double daemon_ns[3] = {0.0, 0.0, 0.0};
  for (const Phase* phase : fixed) {
    const auto latency = latencies(*phase);
    report.add("p50_ms." + phase->name, percentile(latency, 0.5));
    report.add("p99_ms." + phase->name, percentile(latency, 0.99));
    for (std::size_t i = 0; i < phase->outcomes.size(); ++i) {
      const auto& outcome = phase->outcomes[i];
      const double due = phase->stream.requests[i].due_s;
      const Kind kind = phase->stream.kinds[i];
      overloaded += outcome.response.error == ps::serve::kErrorOverloaded;
      timed_out += outcome.response.error == ps::serve::kErrorDeadline;
      lag.push_back(outcome.lag_ms(due));
      daemon_ns[static_cast<int>(kind)] +=
          static_cast<double>(outcome.response.solve_ns);
      if (phase->name == "high" && kind != Kind::kHeavy) {
        cheap.push_back(outcome.response.ok
                            ? outcome.latency_ms(due)
                            : std::numeric_limits<double>::infinity());
      }
    }
    report_phase_layers(*phase, report);
  }
  // The replay prices every heavy request's optimum afresh, as the daemon
  // did; heavy repeats hit the reference cache as they did there.
  ps::engine::clear_reference_cache();
  check_phases(fixed, report, solve_ns, &render_ns);
  const char* kinds[3] = {"miss", "repeat", "heavy"};
  const double daemon_total = daemon_ns[0] + daemon_ns[1] + daemon_ns[2];
  for (int k = 0; k < 3; ++k) {
    const std::string stem = std::string("solve_service.solve_ns.") + kinds[k];
    report.add(stem + ".p50", percentile(solve_ns[k], 0.5));
    report.add(stem + ".p99", percentile(solve_ns[k], 0.99));
    report.add(std::string("serve.solve_share.") + kinds[k],
               daemon_total > 0 ? daemon_ns[k] / daemon_total : 0.0);
  }
  report.add("serve.protocol.parse_ns", parse_ns(fixed));
  report.add("serve.protocol.render_ns", median(render_ns));
  report.add("serve.cheap.p99_ms", percentile(cheap, 0.99));
  report.add("serve.client.lag_ms.p99", percentile(lag, 0.99));
  report.add("serve.overloaded", static_cast<double>(overloaded));
  report.add("serve.timed_out", static_cast<double>(timed_out));
}

}  // namespace

void run_serve_mix(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args.seed, args.seconds, report);
    return;
  }
  SetupSampler setup;
  std::vector<double> cold_s, warm_s;
  std::vector<double> unused_ns[3];
  const std::uint64_t start = now_ns();
  do {
    if (!setup.sample(kSetupBatch, setup_once)) {
      report.fail_check("a serve set-up failed");
    }
    // Each round draws its own batch, so a repeat targets a request of the
    // same batch and every round has the same mix of hits and misses.
    const std::uint64_t round = cold_s.size();
    StreamBuilder round_builder(args.seed + 0x9E3779B97F4A7C15ULL * (round + 1));
    Phase cold{"cold", round_builder.batch("b", kBatch), {}};
    Phase warm{"warm", cold.stream, {}};
    // Misses and fresh instances are new to the daemon; the reference
    // cache is process-wide, so it is emptied to match.
    ps::engine::clear_reference_cache();
    ServeFixture fixture;
    if (!fixture.start(kConnections)) {
      report.attempt(false, "serve fixture failed to start");
      return;
    }
    for (auto [phase, seconds] : {std::pair{&cold, &cold_s}, {&warm, &warm_s}}) {
      const std::uint64_t phase_start = now_ns();
      phase->outcomes = fixture.client().run_windowed(phase->stream.requests,
                                                      kWindow, kBatchTimeoutS);
      seconds->push_back(seconds_since(phase_start));
    }
    fixture.stop();
    // The first round's check prices every optimum afresh; later rounds
    // take them from the reference cache the daemon just filled.
    if (cold_s.size() == 1) ps::engine::clear_reference_cache();
    check_phases({&cold, &warm}, report, unused_ns, nullptr);
  } while (seconds_since(start) < args.seconds);
  std::fprintf(stderr, "perfbench: serve rounds of %zu requests, cold (s):",
               kBatch);
  for (double s : cold_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\nperfbench: warm (s):");
  for (double s : warm_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  report.add("setup_s", setup.median_s());
  report.add("cold_s", median(cold_s));
  report.add("warm_s", median(warm_s));
  report.add("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
