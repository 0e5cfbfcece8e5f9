#include "open_loop.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "serve/net.hpp"

namespace perfbench {

namespace {

/// Matches every complete '\n'-framed response line in `buffer` to the
/// request of connection `c` it answers, records it as arrived at
/// `arrived_ns`, and erases the consumed lines. Returns how many matched.
std::size_t match_responses(std::string& buffer, std::size_t c,
                            std::size_t connections, std::uint64_t start_ns,
                            std::uint64_t arrived_ns,
                            const std::unordered_map<std::string, std::size_t>& index,
                            std::vector<RequestOutcome>& outcomes) {
  std::size_t matched = 0;
  std::size_t begin = 0;
  for (std::size_t end; (end = buffer.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    ps::serve::WireResponse response;
    if (!ps::serve::parse_response_line(buffer.substr(begin, end - begin),
                                        response)) {
      continue;
    }
    const auto it = index.find(response.id);
    if (it == index.end() || it->second % connections != c ||
        outcomes[it->second].answered) {
      continue;
    }
    RequestOutcome& outcome = outcomes[it->second];
    outcome.answered = true;
    outcome.done_s = static_cast<double>(arrived_ns - start_ns) / 1e9;
    outcome.response = std::move(response);
    ++matched;
  }
  buffer.erase(0, begin);
  return matched;
}

/// Waits until `fd` is readable or `deadline_ns` passes and appends what
/// arrived to `buffer`. False when the deadline passed or the peer closed.
bool receive_some(int fd, std::uint64_t deadline_ns, std::string& buffer,
                  std::uint64_t& arrived_ns) {
  char chunk[65536];
  while (true) {
    const std::uint64_t now = now_ns();
    if (now >= deadline_ns) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int wait_ms =
        static_cast<int>(std::min<std::uint64_t>((deadline_ns - now) / 1000000 + 1, 50));
    if (::poll(&pfd, 1, wait_ms) <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    arrived_ns = now_ns();
    buffer.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

/// Reads the responses of connection `c` of `connections` until `expected`
/// of them matched a request sent on it or `deadline_ns` passes. Only this
/// thread writes the outcomes of that connection's requests (index mod
/// connections == c).
void receive(int fd, std::size_t c, std::size_t connections,
             std::size_t expected, std::uint64_t start_ns,
             std::uint64_t deadline_ns,
             const std::unordered_map<std::string, std::size_t>& index,
             std::vector<RequestOutcome>& outcomes) {
  std::string buffer;
  std::size_t received = 0;
  std::uint64_t arrived = 0;
  while (received < expected && receive_some(fd, deadline_ns, buffer, arrived)) {
    received += match_responses(buffer, c, connections, start_ns, arrived,
                                index, outcomes);
  }
}

}  // namespace

double RequestOutcome::latency_ms(double due_s) const {
  if (!answered) return std::numeric_limits<double>::infinity();
  return (done_s - due_s) * 1e3;
}

OpenLoopClient::~OpenLoopClient() { close(); }

bool OpenLoopClient::connect(const std::string& host, int port,
                             std::size_t connections) {
  close();
  for (std::size_t c = 0; c < connections; ++c) {
    const int fd = ps::serve::connect_to(host, port);
    if (fd < 0) {
      close();
      return false;
    }
    fds_.push_back(fd);
  }
  return true;
}

void OpenLoopClient::close() {
  for (int fd : fds_) ::close(fd);
  fds_.clear();
}

std::vector<RequestOutcome> OpenLoopClient::run(
    const std::vector<ScheduledRequest>& requests, double drain_s) {
  std::vector<RequestOutcome> outcomes(requests.size());
  if (fds_.empty() || requests.empty()) return outcomes;
  const std::size_t connections = fds_.size();
  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::size_t> expected(connections, 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    index.emplace(requests[i].id, i);
    ++expected[i % connections];
  }
  // Wake the sender as close to each due time as the kernel allows (the
  // default 50 us timer slack would show up as client lag in every
  // latency); restored before returning.
  const int slack = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  ::prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>((requests.back().due_s + drain_s) * 1e9);

  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < connections; ++c) {
    receivers.emplace_back(receive, fds_[c], c, connections, expected[c],
                           start, deadline,
                           std::cref(index), std::ref(outcomes));
  }
  const auto epoch = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(start));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::this_thread::sleep_until(
        epoch + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(requests[i].due_s * 1e9)));
    outcomes[i].sent_s = static_cast<double>(now_ns() - start) / 1e9;
    outcomes[i].sent =
        ps::serve::send_all(fds_[i % connections], requests[i].line + "\n");
  }
  for (auto& receiver : receivers) receiver.join();
  if (slack > 0) ::prctl(PR_SET_TIMERSLACK, slack, 0, 0, 0);
  return outcomes;
}

std::vector<RequestOutcome> OpenLoopClient::run_windowed(
    const std::vector<ScheduledRequest>& requests, std::size_t window,
    double timeout_s) {
  std::vector<RequestOutcome> outcomes(requests.size());
  if (fds_.empty() || requests.empty() || window == 0) return outcomes;
  const std::size_t connections = fds_.size();
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < requests.size(); ++i) index.emplace(requests[i].id, i);
  // One thread drives every connection, so the client adds a single
  // runnable thread to the daemon's.
  std::vector<std::size_t> next(connections), in_flight(connections, 0);
  std::vector<std::string> buffers(connections);
  std::vector<pollfd> pfds(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    next[c] = c;
    pfds[c] = {fds_[c], POLLIN, 0};
  }
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(timeout_s * 1e9);
  while (true) {
    bool waiting = false;
    for (std::size_t c = 0; c < connections; ++c) {
      for (; in_flight[c] < window && next[c] < requests.size();
           next[c] += connections) {
        RequestOutcome& outcome = outcomes[next[c]];
        outcome.sent_s = static_cast<double>(now_ns() - start) / 1e9;
        outcome.sent = ps::serve::send_all(fds_[c], requests[next[c]].line + "\n");
        in_flight[c] += outcome.sent;
      }
      waiting = waiting || in_flight[c] > 0;
    }
    const std::uint64_t now = now_ns();
    if (!waiting || now >= deadline) break;
    const int wait_ms =
        static_cast<int>(std::min<std::uint64_t>((deadline - now) / 1000000 + 1, 50));
    if (::poll(pfds.data(), pfds.size(), wait_ms) <= 0) continue;
    char chunk[65536];
    for (std::size_t c = 0; c < connections; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(fds_[c], chunk, sizeof(chunk), 0);
      if (n <= 0) {
        in_flight[c] = 0;  // peer closed: the rest stay unanswered
        next[c] = requests.size();
        pfds[c].fd = -1;
        continue;
      }
      buffers[c].append(chunk, static_cast<std::size_t>(n));
      in_flight[c] -= match_responses(buffers[c], c, connections, start,
                                      now_ns(), index, outcomes);
    }
  }
  return outcomes;
}

}  // namespace perfbench
