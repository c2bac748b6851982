#include "core/thread_pool.h"

#include <atomic>

namespace sdss {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;

  // Shared state lives on the heap: helper tasks may still be finishing
  // their final (empty) loop iteration after the caller has been released,
  // so stack storage would dangle.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t n;
    const std::function<void(size_t)>* body;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->body = &body;

  auto worker = [state] {
    for (;;) {
      size_t i = state->next.fetch_add(1);
      if (i >= state->n) break;
      (*state->body)(i);
      if (state->done.fetch_add(1) + 1 == state->n) {
        std::unique_lock<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  size_t helpers = std::min(n - 1, num_threads());
  for (size_t i = 0; i < helpers; ++i) Submit(worker);
  worker();  // The calling thread participates.

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done.load() >= n; });
  // `body` is only dereferenced by workers that won an index < n, all of
  // which completed before done reached n; stragglers touch only `state`.
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadGroup::Spawn(std::function<void()> fn) {
  threads_.emplace_back(std::move(fn));
}

void ThreadGroup::JoinAll() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace sdss
