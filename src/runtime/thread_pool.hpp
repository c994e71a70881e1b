// Work-stealing thread-pool batch runner for embarrassingly parallel
// scenario sweeps.
//
// The bench/figure harness runs many independent closed-loop simulations
// (one per drive cycle, ambient temperature, or ablation variant), and the
// session service runs its per-shard vehicle steps here. Each scenario owns
// its controllers and RNG state, and a vehicle's random draws are seeded by
// its id only, so no result depends on which worker ran it; parallel_map
// writes each scenario's result into its own slot, making the output
// bit-identical to a serial run regardless of worker count or scheduling.
//
// Scheduling: each worker owns a deque. submit() places tasks round-robin
// across the worker deques; a worker pops its own deque from the front and,
// when empty, steals from the back of a sibling's — so a worker stuck
// behind one long task (a vehicle whose solver hit a hard step) cannot
// strand the tasks queued behind it. Steals are counted in the
// `pool.steals` metric and traced as "pool.steal" spans; queued→run latency
// stays on the "pool.task" span as `queue_ns`.
//
// EVC_POOL_STEAL=force inverts the scan order (steal before own deque) so
// determinism tests can drive every task through the steal path.
//
// Worker count: EVC_THREADS in the environment overrides (total concurrency
// including the calling thread; 1 = serial), otherwise hardware concurrency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace_context.hpp"

namespace evc::rt {

/// Fixed-size pool of worker threads draining per-worker task deques with
/// work stealing. The pool holds *helper* threads: batch helpers below also
/// run work on the calling thread, so a pool of size 0 is valid and means
/// "serial".
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task on the next worker deque (round-robin). With zero
  /// workers the task runs inline.
  void submit(std::function<void()> task);

  /// Completed steals since construction (also published as the
  /// `pool.steals` counter metric).
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Total desired concurrency: EVC_THREADS if set and positive, otherwise
  /// std::thread::hardware_concurrency() (at least 1).
  static std::size_t default_concurrency();

  /// Process-wide pool with default_concurrency() − 1 helper threads,
  /// created on first use. EVC_THREADS=1 therefore makes every
  /// parallel_for/parallel_map on the global pool strictly serial.
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;  ///< tracer timestamp; 0 while disabled
    /// Submitter's ambient trace context, re-installed around fn() so a
    /// request's causal chain survives the queue hop (and any steal).
    /// Captured only while the tracer is enabled; inactive otherwise.
    obs::TraceContext trace;
  };
  /// One worker's deque. Cache-line-aligned so two workers' queue locks
  /// never share a line. The per-queue mutex (not a lock-free deque) is
  /// deliberate: tasks here are whole simulations, microseconds to
  /// milliseconds each, so queue-transfer cost is noise and the mutex keeps
  /// the steal protocol trivially correct under TSan.
  struct alignas(64) WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t self);
  /// Own-deque pop (front) then steal scan (back of each sibling, round
  /// robin from self+1) — or the reverse with EVC_POOL_STEAL=force.
  bool try_acquire(std::size_t self, Task& out);
  bool pop_own(std::size_t self, Task& out);
  bool try_steal(std::size_t self, Task& out);
  static void run_task(Task& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  /// Tasks pushed minus tasks claimed. Pushes increment under mutex_ (so a
  /// waiting worker cannot miss the wakeup); claims decrement after the pop,
  /// so the count can be transiently negative — the wait predicate uses > 0.
  std::atomic<std::int64_t> task_count_{0};
  std::atomic<std::uint64_t> next_queue_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::uint32_t steals_metric_ = 0;
  bool steal_first_ = false;  ///< EVC_POOL_STEAL=force
  bool stop_ = false;
};

/// Run fn(i) for every i in [0, n) using `pool`'s helpers plus the calling
/// thread. Returns after all iterations finish; the first exception thrown
/// by fn is rethrown (remaining iterations are skipped once one fails).
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const std::size_t helpers = n > 1 ? std::min(pool.size(), n - 1) : 0;

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  const auto drain = [&]() {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::atomic<std::size_t> pending{helpers};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  for (std::size_t w = 0; w < helpers; ++w) {
    pool.submit([&]() {
      drain();
      // Notify while still holding the lock: the caller's wait cannot
      // observe pending == 0 and return (destroying the stack-local cv and
      // mutex) until this helper is done touching them.
      std::lock_guard<std::mutex> lock(done_mutex);
      pending.fetch_sub(1, std::memory_order_relaxed);
      done_cv.notify_one();
    });
  }
  drain();
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return pending.load() == 0; });
  if (error) std::rethrow_exception(error);
}

template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  parallel_for(ThreadPool::global(), n, std::forward<Fn>(fn));
}

/// parallel_for that collects results: out[i] = fn(i). Slot-indexed, so the
/// result vector is identical to the serial `for` loop's.
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
  return parallel_map<T>(ThreadPool::global(), n, std::forward<Fn>(fn));
}

}  // namespace evc::rt
