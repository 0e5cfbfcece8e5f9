#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"
#include "obs/time.hpp"

namespace ps::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::unique_lock lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
    depth = tasks_.size();
  }
  task_ready_.notify_one();
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    registry.counter("pool.tasks.submitted").add(1);
    // High-water mark of the queue this process has seen — a proxy for how
    // far ahead of the workers the producer runs.
    auto& gauge = registry.gauge("pool.queue.depth.max");
    if (static_cast<double>(depth) > gauge.value()) {
      gauge.set(static_cast<double>(depth));
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    // Gate the clock reads per iteration: obs::enabled() can flip while
    // workers are parked, and a 0 start marks "was off at the start".
    const std::uint64_t idle_start = obs::enabled() ? obs::now_ns() : 0;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const std::uint64_t busy_start = idle_start != 0 ? obs::now_ns() : 0;
    task();
    if (busy_start != 0) {
      auto& registry = obs::Registry::global();
      registry.counter("pool.tasks.executed").add(1);
      registry.counter("pool.idle_ns").add(busy_start - idle_start);
      registry.counter("pool.busy_ns").add(obs::now_ns() - busy_start);
    }
    {
      std::unique_lock lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  // The caller drains too, so end - begin - 1 helpers already give every
  // index its own thread.
  const std::size_t helpers = std::min(workers_.size(), end - begin - 1);
  // Guided self-scheduling: each participant claims the next
  // ceil(remaining / (2 x participants)) unclaimed indices from one shared
  // counter. Claims shrink as the range drains and the last
  // 2 x participants indices go out one at a time, so a run of expensive
  // indices at the end spreads across all threads, while a long range of
  // cheap indices costs O(participants x log n) claims, not one per index.
  const std::size_t divisor = 2 * (helpers + 1);
  std::atomic<std::size_t> next{begin};
  const auto drain = [&next, end, divisor, &body] {
    std::size_t first = next.load();
    while (first < end) {
      const std::size_t last = first + (end - first + divisor - 1) / divisor;
      if (next.compare_exchange_weak(first, last)) {
        for (std::size_t i = first; i < last; ++i) body(i);
        first = next.load();
      }
    }
  };
  for (std::size_t h = 0; h < helpers; ++h) submit(drain);
  drain();
  wait_idle();
}

void parallel_for_n(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t num_threads, std::size_t serial_cutoff) {
  if (n < serial_cutoff) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(num_threads);
  pool.parallel_for(0, n, body);
}

}  // namespace ps::util
