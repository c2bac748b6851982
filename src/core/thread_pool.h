// A fixed-size worker pool used by the QET executor and the dataflow
// machines. Supports fire-and-forget tasks, futures, and a parallel-for
// helper for partitioned scans. A query engine owns one pool for its
// lifetime; running a query starts no thread.

#ifndef SDSS_CORE_THREAD_POOL_H_
#define SDSS_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace sdss {

/// A simple FIFO thread pool. Tasks may enqueue further tasks.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1; 0 means hardware
  /// concurrency).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; returns immediately.
  void Submit(std::function<void()> task);

  /// Enqueues a task and returns a future for its result.
  template <typename F>
  auto SubmitWithResult(F&& f) -> std::future<decltype(f())> {
    using R = decltype(f());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    Submit([task]() { (*task)(); });
    return fut;
  }

  /// Runs body(i) for i in [0, n) across the pool and blocks until all
  /// iterations finish. The calling thread participates, so this is safe to
  /// invoke from outside the pool even when the pool has a single worker.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Blocks until the queue is empty and all workers are idle.
  void WaitIdle();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  size_t active_ = 0;
  bool stop_ = false;
};

/// An RAII bundle of joinable threads: Spawn() detachable work, JoinAll()
/// explicitly or let the destructor do it. For long-lived service
/// threads that must never leak on an error path (the batch workbench's
/// lane workers). Query execution never spawns threads: its parallel
/// work runs as morsels on a ThreadPool.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ~ThreadGroup() { JoinAll(); }

  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  /// Starts a new thread running `fn`.
  void Spawn(std::function<void()> fn);

  /// Joins every spawned thread (idempotent).
  void JoinAll();

  size_t size() const { return threads_.size(); }

 private:
  std::vector<std::thread> threads_;
};

}  // namespace sdss

#endif  // SDSS_CORE_THREAD_POOL_H_
