// Annotated synchronization primitives for the shared-state classes the
// deterministic multi-core engine will contend on.
//
// `Mutex` is std::mutex carrying the CAPABILITY attribute so Clang's
// thread-safety analysis can track it; `MutexLock` is the RAII guard.  The
// simulation is still single-threaded today, so the runtime cost of the
// uncontended locks taken here is one atomic op per critical section — the
// point is that -Wthread-safety proves, before any thread pool exists,
// exactly which state is lock-protected and which methods require the lock
// to be held (the `_locked` / REQUIRES(mu_) split in Ledger and friends).
#pragma once

#include <mutex>

#include "common/annotations.hpp"

namespace yoso {

class CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

private:
  std::mutex mu_;
};

// RAII guard; SCOPED_CAPABILITY tells the analysis the capability is held
// for exactly the guard's scope.
class SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() RELEASE() { mu_->unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

private:
  Mutex* mu_;
};

}  // namespace yoso
