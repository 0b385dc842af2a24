#include "obs/metrics.hpp"

#include <bit>

#include "common/json.hpp"

namespace yoso::obs {

int Histogram::bucket_of(std::uint64_t v) {
  if (v == 0) return 0;
  return 64 - std::countl_zero(v);  // 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...
}

std::uint64_t Histogram::bucket_max(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

void Histogram::observe(std::uint64_t v) {
  if (!enabled()) return;
  buckets_[bucket_of(v)] += 1;
  count_ += 1;
  sum_ += v;
  if (v > max_) max_ = v;
}

void Histogram::reset() {
  for (auto& b : buckets_) b = 0;
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

Counter& Metrics::counter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Metrics::gauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Metrics::histogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Metrics::reset() {
  MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Metrics::report_json() const {
  MutexLock lock(&mu_);
  json::Writer w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.field("count", h->count()).field("sum", h->sum()).field("max", h->max());
    w.key("buckets").begin_array();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h->bucket(b) == 0) continue;  // sparse: only occupied buckets
      w.begin_array().num(Histogram::bucket_max(b)).num(h->bucket(b)).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

Metrics& metrics() {
  static Metrics m;
  return m;
}

}  // namespace yoso::obs
