// Span tracer: RAII scoped spans over the whole protocol stack.
//
// Spans nest (parent = innermost open span), carry key/value attributes
// (committee id, gate label, phase, party role), and are stamped in
// virtual seconds from the discrete-event clock whenever one is attached
// (attach_virtual_clock: a net::NetBulletin, the service loop or the
// triple pool).  No wall clock is read, so two identical runs export
// bit-for-bit identical traces; CPU time is the profiler's business
// (obs/profile.hpp).
//
// The export is Chrome trace-event JSON ("X" complete events), which loads
// directly in Perfetto / chrome://tracing; tools/trace wraps it in a CLI
// (run / check / summarize / diff).
//
// Cost model: recording is sampling-free; the span buffer is preallocated
// and grows geometrically; a muted tracer (obs::set_enabled(false)) costs
// one branch per event.
// The buffers are lock-protected and thread-safety-annotated ahead of the
// multi-core engine (docs/STATIC_ANALYSIS.md, "Concurrency readiness").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/sync.hpp"
#include "obs/runtime.hpp"

namespace yoso::obs {

struct SpanAttr {
  std::string key;
  std::string value;
  bool numeric = false;  // emit bare (unquoted) in the export
};

struct SpanRecord {
  std::uint32_t id = 0;      // 1-based; 0 means "no span"
  std::uint32_t parent = 0;  // 0 for roots
  std::uint16_t depth = 0;
  bool open = false;
  std::string name;
  std::string cat;
  double virt_start = -1;  // seconds; -1 when no virtual clock was attached
  double virt_end = -1;
  std::vector<SpanAttr> attrs;
};

class Tracer {
public:
  Tracer();

  // Drops every recorded span (keeps the preallocated buffer).
  void reset();

  // Virtual clock source in seconds.  Keyed by owner so that a board being
  // destroyed cannot detach a clock some newer board installed.
  using VirtualClock = std::function<double()>;
  void attach_virtual_clock(const void* owner, VirtualClock clock);
  void detach_virtual_clock(const void* owner);
  bool has_virtual_clock() const {
    MutexLock lock(&mu_);
    return static_cast<bool>(vclock_);
  }
  // Current virtual time in seconds, or -1 when no clock is attached.
  double virtual_now() const {
    MutexLock lock(&mu_);
    return vclock_ ? vclock_() : -1.0;
  }

  std::uint32_t begin_span(std::string name, std::string cat);
  void end_span(std::uint32_t id);
  void attr(std::uint32_t id, std::string key, std::string value);
  void attr_num(std::uint32_t id, std::string key, std::int64_t value);

  // Locks internally; the reference is only consistent while no span is
  // being recorded (today the simulation is single-threaded).
  const std::vector<SpanRecord>& spans() const {
    MutexLock lock(&mu_);
    return spans_;
  }
  std::size_t open_depth() const {
    MutexLock lock(&mu_);
    return open_.size();
  }

  // Chrome trace-event JSON, a pure function of the recorded spans and the
  // virtual clock.  A span recorded with no clock attached exports at
  // ts = dur = 0.
  std::string chrome_trace_json() const;

private:
  // The tracer is a process-wide singleton the multi-core engine's workers
  // will all reach; its buffers are lock-protected and annotated so
  // -Wthread-safety proves every access (docs/STATIC_ANALYSIS.md).
  mutable Mutex mu_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
  std::vector<std::uint32_t> open_ GUARDED_BY(mu_);  // stack of open span ids
  VirtualClock vclock_ GUARDED_BY(mu_);
  const void* vclock_owner_ GUARDED_BY(mu_) = nullptr;
};

Tracer& tracer();

// RAII span handle.  A full-expression temporary (constructed and destroyed
// in one statement) records a zero-duration event.
class Span {
public:
  explicit Span(const char* name, const char* cat = "proto");
  Span(std::string name, const char* cat);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& attr(const char* key, std::string value);
  Span& attr(const char* key, const char* value);
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Span& attr(const char* key, T value) {
    return attr_i64(key, static_cast<std::int64_t>(value));
  }
  // Closes the span before scope exit (the destructor becomes a no-op).
  void end();

private:
  Span& attr_i64(const char* key, std::int64_t value);
  std::uint32_t id_ = 0;
};

}  // namespace yoso::obs
