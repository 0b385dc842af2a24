// Metrics registry: counters, gauges and log-scale histograms.
//
// Naming convention is dotted lowercase (`paillier.enc`, `post.accepted`,
// `bytes.posted.online`); docs/OBSERVABILITY.md tabulates every name the
// stack emits.  Handles returned by counter()/gauge()/histogram() are stable
// for the lifetime of the registry (node-based map), so call sites cache
// them in a function-local static — that is what the OBS_COUNT family of
// macros below does — and recording is one branch plus one add.
//
// Histograms are log2-bucketed: bucket 0 holds the value 0, bucket b >= 1
// holds values in [2^(b-1), 2^b).  64-bit values therefore need 65 buckets.
//
// Like the tracer, the registry is muted by obs::set_enabled(false).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/sync.hpp"
#include "obs/runtime.hpp"

namespace yoso::obs {

class Counter {
public:
  void add(std::uint64_t delta = 1) {
    if (enabled()) value_ += delta;
  }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

private:
  std::uint64_t value_ = 0;
};

class Gauge {
public:
  void set(std::int64_t v) {
    if (enabled()) value_ = v;
  }
  std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

private:
  std::int64_t value_ = 0;
};

class Histogram {
public:
  static constexpr int kBuckets = 65;  // bucket 0: {0}; bucket b: [2^(b-1), 2^b)

  void observe(std::uint64_t v);
  static int bucket_of(std::uint64_t v);
  // Inclusive upper bound of a bucket (0 for bucket 0, 2^b - 1 otherwise).
  static std::uint64_t bucket_max(int bucket);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket(int b) const { return buckets_[b]; }
  void reset();

private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// The registry *maps* are lock-protected (handle lookup may happen from any
// worker once the multi-core engine lands); the instrument cells themselves
// are not — the determinism plan keeps recording task-local, with a
// deterministic merge on join, so cross-thread increments on one cell are a
// design error, not a locking gap (docs/STATIC_ANALYSIS.md).
class Metrics {
public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Zeroes every registered instrument (handles stay valid).
  void reset();

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,max,
  // buckets:[[upper,count],...]}}} — names in lexicographic order.
  std::string report_json() const;

private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mu_);
};

Metrics& metrics();

#define OBS_COUNT(name)                                      \
  do {                                                       \
    static ::yoso::obs::Counter& obs_c_ =                    \
        ::yoso::obs::metrics().counter(name);                \
    obs_c_.add();                                            \
  } while (0)

#define OBS_COUNT_N(name, delta)                             \
  do {                                                       \
    static ::yoso::obs::Counter& obs_c_ =                    \
        ::yoso::obs::metrics().counter(name);                \
    obs_c_.add(static_cast<std::uint64_t>(delta));           \
  } while (0)

#define OBS_HIST(name, value)                                \
  do {                                                       \
    static ::yoso::obs::Histogram& obs_h_ =                  \
        ::yoso::obs::metrics().histogram(name);              \
    obs_h_.observe(static_cast<std::uint64_t>(value));       \
  } while (0)

#define OBS_GAUGE_SET(name, value)                           \
  do {                                                       \
    static ::yoso::obs::Gauge& obs_g_ =                      \
        ::yoso::obs::metrics().gauge(name);                  \
    obs_g_.set(static_cast<std::int64_t>(value));            \
  } while (0)

}  // namespace yoso::obs
