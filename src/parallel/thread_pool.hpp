// A fixed-size thread pool with a parallel_for convenience.
//
// The paper compresses each process's checkpoint independently
// ("embarrassingly parallel", Sec. IV-D). Within one process this pool
// runs the WCKP block fan-out (deflate/parallel.cpp) and the simulated
// ranks of bench/ext_weak_scaling.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace wck {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future carries its result/exception.
  /// Dropping the future silently swallows that exception, hence
  /// [[nodiscard]]: callers that truly don't care must say so by
  /// assigning to a variable (and should usually collect and get()).
  template <typename Fn>
  [[nodiscard]] auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    auto fut = task->get_future();
    Job job;
    job.fn = [task] { (*task)(); };
    // Stamp only when telemetry is on: the sentinel (epoch) value tells
    // the worker to skip the queue-wait histogram for this job.
    if (telemetry::enabled()) job.enqueued = Clock::now();
    {
      MutexLock lk(mu_);
      queue_.push_back(std::move(job));
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [begin, end) across the pool, blocking until all
  /// iterations finish. The first exception thrown by any iteration is
  /// rethrown on the calling thread.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    if (begin >= end) return;
    const std::size_t n = end - begin;
    const std::size_t chunks = std::min(n, thread_count() * 4);
    const std::size_t chunk = (n + chunks - 1) / chunks;
    std::vector<std::future<void>> futs;
    futs.reserve(chunks);
    try {
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t lo = begin + c * chunk;
        const std::size_t hi = std::min(end, lo + chunk);
        if (lo >= hi) break;
        futs.push_back(submit([lo, hi, &fn] {
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        }));
      }
    } catch (...) {
      // submit() threw (allocation failure). Already-queued chunks still
      // reference `fn` and this frame; future destructors do not block,
      // so wait for them explicitly before letting the frame unwind.
      for (auto& f : futs) {
        try {
          f.get();
        } catch (...) {  // NOLINT(bugprone-empty-catch)
        }
      }
      throw;
    }
    std::exception_ptr first_error;
    for (auto& f : futs) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    std::function<void()> fn;
    Clock::time_point enqueued{};  // epoch sentinel = not stamped
  };

  void worker_loop() {
    for (;;) {
      Job job;
      {
        MutexLock lk(mu_);
        cv_.wait(lk, [this] {
          mu_.assert_held();
          return stopping_ || !queue_.empty();
        });
        if (stopping_ && queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      if (job.enqueued != Clock::time_point{} && telemetry::enabled()) {
        WCK_HISTOGRAM_RECORD("pool.queue_wait.seconds",
                             std::chrono::duration<double>(Clock::now() - job.enqueued).count());
      }
      job.fn();
      WCK_COUNTER_ADD("pool.tasks_executed", 1);
    }
  }

  Mutex mu_;
  CondVar cv_;
  std::deque<Job> queue_ WCK_GUARDED_BY(mu_);
  // Touched only by the constructing/destructing thread; workers never
  // read it, so it needs no guard.
  std::vector<std::thread> workers_;
  bool stopping_ WCK_GUARDED_BY(mu_) = false;
};

}  // namespace wck
