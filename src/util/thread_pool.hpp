// A small fixed-size thread pool with a blocking parallel_for.
//
// The library uses data parallelism in two hot spots: evaluating many greedy
// candidates against a submodular oracle (src/core) and running Monte-Carlo
// trials of online algorithms (src/secretary). Both are embarrassingly
// parallel. parallel_for self-schedules: threads claim shrinking runs of
// indices from a shared counter, down to one index at a time at the end of
// the range, so uneven per-index costs balance across workers. Each index
// runs exactly once and callers write only that index's own slot, so
// results do not depend on the number of workers or the schedule.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ps::util {

/// Fixed set of worker threads consuming a FIFO task queue.
/// Tasks must not throw; exceptions escaping a task terminate the program,
/// which matches this library's no-exceptions-for-control-flow policy.
class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 0` means
  /// hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs body(i) once for each i in [begin, end) and blocks until all
  /// iterations finish. The caller and up to size() workers (never more
  /// than end - begin threads in all) repeatedly claim the next
  /// ceil(remaining / (2 x threads)) unclaimed indices until the range is
  /// exhausted; which thread runs which index is unspecified. The calling
  /// thread participates, so this is safe to use with a pool of size 1 and
  /// never deadlocks on nested use from the caller's side.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Convenience: run body(i) over [0, n) on a transient pool when no shared
/// pool is available. For n below `serial_cutoff` the loop runs inline.
void parallel_for_n(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t num_threads = 0, std::size_t serial_cutoff = 32);

}  // namespace ps::util
