// Virtual-clock-sampled time series: the communication *shape* of a run
// over time, inspectable and diffable.
//
// A Series is a list of (t, value) samples in virtual seconds; the
// registry hands out stable handles by dotted name, exactly like the
// metrics registry (node-based map — reset() clears the points but keeps
// every handle valid).  NetBulletin samples in-flight bytes, board queue
// depth and per-phase bandwidth at every round flush; because the sample
// clock is the discrete-event virtual clock, two identical seeded runs
// produce byte-identical series.
//
// The tracer's Chrome-trace export emits every series as a Perfetto
// counter track ("C" events), so the byte flow renders as a graph under
// the span timeline.  Sampling is muted by obs::set_enabled(false).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "obs/runtime.hpp"

namespace yoso::obs {

class Series {
public:
  void sample(double t, double v) {
    if (enabled()) points_.emplace_back(t, v);
  }
  const std::vector<std::pair<double, double>>& points() const { return points_; }
  void reset() { points_.clear(); }

private:
  std::vector<std::pair<double, double>> points_;
};

// Like the metrics registry: the name->handle map is lock-protected (any
// worker may look up a series once the multi-core engine lands), while the
// Series cells stay task-local by the determinism plan's merge-on-join rule
// (docs/STATIC_ANALYSIS.md).
class TimeSeriesRegistry {
public:
  // Stable for the registry's lifetime (node-based map).
  Series& series(const std::string& name);

  // Clears every series' points (handles stay valid).
  void reset();

  // Locks internally; the reference is only consistent while no sampler is
  // active (today the simulation is single-threaded).
  const std::map<std::string, std::unique_ptr<Series>>& all() const {
    MutexLock lock(&mu_);
    return series_;
  }

  // {"name":[[t,v],...],...} — names in lexicographic order; series with no
  // samples are omitted.
  std::string report_json() const;

private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Series>> series_ GUARDED_BY(mu_);
};

TimeSeriesRegistry& timeseries();

}  // namespace yoso::obs
