// Clang Thread Safety Analysis annotation shim.
//
// The deterministic multi-core engine will contend on a handful of
// shared-state classes (Ledger, the obs registries, Bulletin, the service
// queues/pool).  Before any thread pool lands, those classes carry
// capability annotations so `clang -Wthread-safety` can prove every access
// to guarded state happens under the right lock — at compile time, on every
// CI run (the `thread-safety` job builds with -Werror=thread-safety).
//
// The macros expand to Clang's `__attribute__((...))` thread-safety
// attributes under Clang and to nothing elsewhere, so GCC builds are
// unaffected.  Usage follows the canonical pattern:
//
//   class CAPABILITY("mutex") Mutex { ... };       // common/sync.hpp
//   Mutex mu_;
//   int shared_ GUARDED_BY(mu_);
//   void touch() { MutexLock lock(&mu_); shared_++; }
//   void touch_locked() REQUIRES(mu_);             // caller must hold mu_
//
// See docs/STATIC_ANALYSIS.md ("Concurrency readiness") for the policy.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define YOSO_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define YOSO_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

#define CAPABILITY(x) YOSO_THREAD_ANNOTATION(capability(x))

#define SCOPED_CAPABILITY YOSO_THREAD_ANNOTATION(scoped_lockable)

#define GUARDED_BY(x) YOSO_THREAD_ANNOTATION(guarded_by(x))

#define PT_GUARDED_BY(x) YOSO_THREAD_ANNOTATION(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) YOSO_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) YOSO_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define REQUIRES(...) YOSO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) YOSO_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) YOSO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) YOSO_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) YOSO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) YOSO_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) YOSO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

#define EXCLUDES(...) YOSO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) YOSO_THREAD_ANNOTATION(assert_capability(x))

#define RETURN_CAPABILITY(x) YOSO_THREAD_ANNOTATION(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS YOSO_THREAD_ANNOTATION(no_thread_safety_analysis)
