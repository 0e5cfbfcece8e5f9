#include "obs/trace.hpp"

#include <cstdio>
#include <functional>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/time.hpp"
#include "util/file_io.hpp"

namespace ps::obs {

TraceRecorder::TraceRecorder() : epoch_ns_(now_ns()) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* instance = new TraceRecorder();  // never destroyed
  return *instance;
}

void TraceRecorder::set_active(bool active) {
  if (active) {
    const std::lock_guard<std::mutex> lock(mutex_);
    epoch_ns_ = now_ns();
  }
  active_.store(active, std::memory_order_relaxed);
}

void TraceRecorder::add_complete(const std::string& name,
                                 const std::string& category,
                                 std::uint64_t start_ns,
                                 std::uint64_t duration_ns) {
  if (!active()) return;
  const std::uint64_t thread_hash =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t thread_id = thread_hashes_.size();
  for (std::size_t i = 0; i < thread_hashes_.size(); ++i) {
    if (thread_hashes_[i] == thread_hash) {
      thread_id = i;
      break;
    }
  }
  if (thread_id == thread_hashes_.size()) thread_hashes_.push_back(thread_hash);
  events_.push_back({name, category, start_ns, duration_ns, thread_id});
}

std::size_t TraceRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  thread_hashes_.clear();
  epoch_ns_ = now_ns();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::string TraceRecorder::chrome_trace_json() const {
  std::vector<TraceEvent> events;
  std::uint64_t epoch = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
    epoch = epoch_ns_;
  }
  std::string out = "{\"traceEvents\": [";
  char buffer[96];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    // Spans recorded before activation rebased the epoch would underflow;
    // clamp to ts=0 rather than wrap.
    const std::uint64_t rebased =
        event.start_ns >= epoch ? event.start_ns - epoch : 0;
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": \"" + json_escape(event.name) + "\", \"cat\": \"" +
           json_escape(event.category) + "\", \"ph\": \"X\", \"pid\": 1";
    std::snprintf(buffer, sizeof(buffer),
                  ", \"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f}",
                  static_cast<unsigned long long>(event.thread_id),
                  static_cast<double>(rebased) / 1e3,
                  static_cast<double>(event.duration_ns) / 1e3);
    out += buffer;
  }
  out += events.empty() ? "]}\n" : "\n]}\n";
  return out;
}

ps::Status TraceRecorder::write(const std::string& path) const {
  return util::write_file_if_changed(path, chrome_trace_json());
}

PhaseTimer::PhaseTimer(std::string name, std::string category)
    : name_(std::move(name)), category_(std::move(category)) {
  armed_ = enabled() || TraceRecorder::global().active();
  if (armed_) start_ns_ = now_ns();
}

PhaseTimer::~PhaseTimer() { stop(); }

std::uint64_t PhaseTimer::stop() {
  if (!armed_) return 0;
  armed_ = false;
  const std::uint64_t duration_ns = now_ns() - start_ns_;
  if (enabled()) {
    Registry::global().histogram(name_).record(duration_ns);
  }
  TraceRecorder::global().add_complete(name_, category_, start_ns_,
                                       duration_ns);
  return duration_ns;
}

}  // namespace ps::obs
