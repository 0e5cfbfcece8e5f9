// Load client for the powersched-serve v1 protocol. In the open loop (run),
// requests go out on
// a fixed schedule whether or not earlier ones were answered, pipelined
// over a few connections, and each is timed from when it was DUE — so a
// stall is charged to every request that was due during it, including
// ones the client itself sent late. (`powersched loadgen` is closed-loop
// per connection and times from the send, so it under-reports stalls.)
// The closed loop (run_windowed) keeps a fixed number of requests in flight
// per connection instead, all driven from one thread, for timing how long the daemon takes to work
// through a batch. Responses are matched by id, since the daemon may
// answer pipelined requests out of order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

struct ScheduledRequest {
  /// Request id; must be unique within one run() and equal the "id" member
  /// of `line`.
  std::string id;
  /// One request line without the trailing newline.
  std::string line;
  /// When the request is due, in seconds after run() starts; ascending.
  double due_s = 0.0;
};

struct RequestOutcome {
  bool sent = false;
  bool answered = false;
  double sent_s = 0.0;  // seconds after run() started
  double done_s = 0.0;
  ps::serve::WireResponse response;

  /// Due-to-answer latency in ms; +infinity when never answered.
  double latency_ms(double due_s) const;
  /// How late the request went out, in ms (0 when it was never sent).
  double lag_ms(double due_s) const { return sent ? (sent_s - due_s) * 1e3 : 0.0; }
};

class OpenLoopClient {
 public:
  OpenLoopClient() = default;
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Opens `connections` sockets to host:port; false when any fails.
  bool connect(const std::string& host, int port, std::size_t connections);
  void close();

  /// Sends `requests` on their schedule (request i on connection
  /// i mod connections) and collects every response, waiting at most
  /// `drain_s` after the last due time for stragglers. Outcomes are indexed
  /// like `requests`.
  std::vector<RequestOutcome> run(const std::vector<ScheduledRequest>& requests,
                                  double drain_s);

  /// Sends `requests` (request i on connection i mod connections, due
  /// times ignored) keeping at most `window` unanswered per connection, the
  /// next going out as soon as an answer arrives; gives up on what is still
  /// unanswered `timeout_s` after starting. Outcomes are indexed like
  /// `requests`.
  std::vector<RequestOutcome> run_windowed(
      const std::vector<ScheduledRequest>& requests, std::size_t window,
      double timeout_s);

 private:
  std::vector<int> fds_;
};

}  // namespace perfbench
