// Compile-time race detection: Clang Thread Safety Analysis wrappers.
//
// Every mutex/condvar-using subsystem in this codebase expresses its
// lock discipline through the wrappers below instead of naked std::
// primitives, so `-Wthread-safety` (a capability-based static analysis
// built into Clang) can prove at *compile time* that every access to a
// WCK_GUARDED_BY field happens with its mutex held — complementing the
// TSan CI leg, which only sees the interleavings the tests happen to
// exercise. On GCC (and any compiler without the attributes) everything
// degrades to plain std primitives with zero overhead.
//
// Cheat sheet (see TOOLING.md "Compile-time race detection"):
//   wck::Mutex mu_;                         annotated capability
//   T state_ WCK_GUARDED_BY(mu_);           reads/writes need mu_ held
//   MutexLock lk(mu_);                      scoped acquire (RAII)
//   void f() WCK_REQUIRES(mu_);             caller must hold mu_
//   void g() WCK_EXCLUDES(mu_);             caller must NOT hold mu_
//   cv_.wait(lk, [this] { mu_.assert_held(); return pred_; });
//     — predicates run with the lock held, but the analysis cannot see
//       through the lambda boundary; assert_held() tells it so.
//
// The lint rule `naked-mutex` (tools/wck_lint) enforces that no
// std::mutex / std::lock_guard / std::condition_variable appears in
// src/ or bench/study/ outside this header, so the analysis can never
// be bypassed by accident.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

// Raw attribute spelling, empty everywhere except Clang. (The analysis
// itself only runs under -Wthread-safety, which CMake enables for Clang
// and CI escalates to -Werror=thread-safety.)
#if defined(__clang__)
#define WCK_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define WCK_THREAD_ANNOTATION__(x)
#endif

#define WCK_CAPABILITY(x) WCK_THREAD_ANNOTATION__(capability(x))
#define WCK_SCOPED_CAPABILITY WCK_THREAD_ANNOTATION__(scoped_lockable)
#define WCK_GUARDED_BY(x) WCK_THREAD_ANNOTATION__(guarded_by(x))
#define WCK_PT_GUARDED_BY(x) WCK_THREAD_ANNOTATION__(pt_guarded_by(x))
#define WCK_ACQUIRED_BEFORE(...) WCK_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define WCK_ACQUIRED_AFTER(...) WCK_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define WCK_REQUIRES(...) WCK_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define WCK_ACQUIRE(...) WCK_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define WCK_RELEASE(...) WCK_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define WCK_TRY_ACQUIRE(...) WCK_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define WCK_EXCLUDES(...) WCK_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define WCK_ASSERT_CAPABILITY(x) WCK_THREAD_ANNOTATION__(assert_capability(x))
#define WCK_RETURN_CAPABILITY(x) WCK_THREAD_ANNOTATION__(lock_returned(x))
#define WCK_NO_THREAD_SAFETY_ANALYSIS WCK_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace wck {

class CondVar;
class MutexLock;

/// std::mutex with the `capability` annotation: fields declared
/// WCK_GUARDED_BY(mu_) may only be touched while mu_ is held, enforced
/// by Clang at compile time. Declare members `mutable Mutex mu_;` so
/// const accessors can lock.
class WCK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() WCK_ACQUIRE() { mu_.lock(); }
  void unlock() WCK_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() WCK_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// No-op that tells the analysis this mutex is held here. Use at the
  /// top of condition-variable wait predicates (and other lambdas that
  /// demonstrably run under the lock) — the analysis cannot follow a
  /// lambda across the call boundary that invokes it.
  void assert_held() const WCK_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped lock over wck::Mutex (RAII). Replaces both std::lock_guard
/// and std::unique_lock: manual unlock()/lock() are available for the
/// rare drop-the-lock-around-blocking-work pattern, and CondVar waits
/// take a MutexLock directly.
class WCK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) WCK_ACQUIRE(mu) : lk_(mu.mu_) {}
  ~MutexLock() WCK_RELEASE() = default;  // unlocks iff still held

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases the mutex early (the destructor then does nothing).
  void unlock() WCK_RELEASE() { lk_.unlock(); }
  /// Reacquires after an unlock().
  void lock() WCK_ACQUIRE() { lk_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lk_;
};

/// std::condition_variable over wck::Mutex/MutexLock. The internal
/// release-wait-reacquire is invisible to the analysis (the lock is
/// held on entry and on return, which is all callers may rely on);
/// predicates run under the lock and should open with
/// `mu_.assert_held()` when they read guarded fields.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(MutexLock& lock) { cv_.wait(lock.lk_); }

  template <typename Pred>
  void wait(MutexLock& lock, Pred pred) {
    cv_.wait(lock.lk_, std::move(pred));
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(MutexLock& lock, const std::chrono::duration<Rep, Period>& timeout,
                Pred pred) {
    return cv_.wait_for(lock.lk_, timeout, std::move(pred));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace wck
