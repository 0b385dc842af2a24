#include "obs/trace.hpp"

#include "common/json.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"

namespace yoso::obs {

Tracer::Tracer() {
  spans_.reserve(1024);
  open_.reserve(32);
}

void Tracer::reset() {
  MutexLock lock(&mu_);
  spans_.clear();
  open_.clear();
}

void Tracer::attach_virtual_clock(const void* owner, VirtualClock clock) {
  MutexLock lock(&mu_);
  vclock_ = std::move(clock);
  vclock_owner_ = owner;
}

void Tracer::detach_virtual_clock(const void* owner) {
  MutexLock lock(&mu_);
  if (owner != vclock_owner_) return;  // a newer clock took over; leave it
  vclock_ = nullptr;
  vclock_owner_ = nullptr;
}

std::uint32_t Tracer::begin_span(std::string name, std::string cat) {
  if (!enabled()) return 0;
  MutexLock lock(&mu_);
  SpanRecord rec;
  rec.id = static_cast<std::uint32_t>(spans_.size()) + 1;
  rec.parent = open_.empty() ? 0 : open_.back();
  rec.depth = static_cast<std::uint16_t>(open_.size());
  rec.open = true;
  rec.name = std::move(name);
  rec.cat = std::move(cat);
  if (vclock_) rec.virt_start = vclock_();
  spans_.push_back(std::move(rec));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end_span(std::uint32_t id) {
  MutexLock lock(&mu_);
  if (id == 0 || id > spans_.size()) return;
  SpanRecord& rec = spans_[id - 1];
  if (!rec.open) return;
  rec.open = false;
  if (vclock_) rec.virt_end = vclock_();
  // Unwind the open stack down to (and including) this span; exceptions may
  // close an outer span while an inner one is still marked open.
  while (!open_.empty()) {
    std::uint32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
    SpanRecord& inner = spans_[top - 1];
    if (inner.open) {
      inner.open = false;
      inner.virt_end = rec.virt_end;
    }
  }
}

void Tracer::attr(std::uint32_t id, std::string key, std::string value) {
  MutexLock lock(&mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attrs.push_back(SpanAttr{std::move(key), std::move(value), false});
}

void Tracer::attr_num(std::uint32_t id, std::string key, std::int64_t value) {
  MutexLock lock(&mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attrs.push_back(SpanAttr{std::move(key), std::to_string(value), true});
}

std::string Tracer::chrome_trace_json() const {
  MutexLock lock(&mu_);
  json::Writer w;
  w.begin_object();
  w.key("displayTimeUnit").str("ms");
  // Self-describing header (satellite of the causality observatory): which
  // build and obs generation produced this trace.  `trace diff` warns when
  // two documents disagree.
  w.key("runMeta").raw(run_metadata_json());
  w.key("traceEvents").begin_array();

  w.begin_object();
  w.field("ph", "M").field("pid", 1).field("tid", 1).field("name", "process_name");
  w.key("args").begin_object().field("name", "yoso-mpc").end_object();
  w.end_object();

  for (const SpanRecord& s : spans_) {
    const bool has_virt = s.virt_start >= 0;
    const double ts_us = has_virt ? s.virt_start * 1e6 : 0.0;
    const double dur_us = has_virt && !s.open ? (s.virt_end - s.virt_start) * 1e6 : 0.0;
    w.begin_object();
    w.field("ph", "X").field("pid", 1).field("tid", 1);
    w.field("name", s.name).field("cat", s.cat);
    w.key("ts").num(ts_us);
    w.key("dur").num(dur_us < 0 ? 0.0 : dur_us);
    w.key("args").begin_object();
    for (const SpanAttr& a : s.attrs) {
      if (a.numeric) {
        w.key(a.key).raw(a.value);
      } else {
        w.field(a.key, a.value);
      }
    }
    w.end_object();
    w.end_object();
  }

  // Flow/time-series samples become Perfetto counter tracks: one "C" event
  // per sample, named after the series, on the virtual-clock timeline.
  for (const auto& [name, series] : timeseries().all()) {
    for (const auto& [t, v] : series->points()) {
      w.begin_object();
      w.field("ph", "C").field("pid", 1).field("tid", 1);
      w.field("name", name);
      w.key("ts").num(t * 1e6);
      w.key("args").begin_object();
      w.key("value").num(v);
      w.end_object();
      w.end_object();
    }
  }

  // Op-granularity counter tracks from the compute profiler: cumulative
  // per-primitive counts sampled at phase boundaries (deterministic — both
  // the counts and the virtual clock are).
  for (const OpTrackSample& s : profiler().op_track_samples()) {
    w.begin_object();
    w.field("ph", "C").field("pid", 1).field("tid", 1);
    w.field("name", std::string("op.count.") + op_name(s.op));
    w.key("ts").num(s.t * 1e6);
    w.key("args").begin_object();
    w.key("value").num(static_cast<double>(s.value));
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  return w.take();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

Span::Span(const char* name, const char* cat) { id_ = tracer().begin_span(name, cat); }

Span::Span(std::string name, const char* cat) {
  id_ = tracer().begin_span(std::move(name), cat);
}

Span::~Span() {
  if (id_ != 0) tracer().end_span(id_);
}

void Span::end() {
  if (id_ != 0) tracer().end_span(id_);
  id_ = 0;
}

Span& Span::attr(const char* key, std::string value) {
  if (id_ != 0) tracer().attr(id_, key, std::move(value));
  return *this;
}

Span& Span::attr(const char* key, const char* value) {
  if (id_ != 0) tracer().attr(id_, key, value);
  return *this;
}

Span& Span::attr_i64(const char* key, std::int64_t value) {
  if (id_ != 0) tracer().attr_num(id_, key, value);
  return *this;
}

}  // namespace yoso::obs
