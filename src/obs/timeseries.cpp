#include "obs/timeseries.hpp"

#include "common/json.hpp"

namespace yoso::obs {

Series& TimeSeriesRegistry::series(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, std::make_unique<Series>()).first;
  }
  return *it->second;
}

void TimeSeriesRegistry::reset() {
  MutexLock lock(&mu_);
  for (auto& [name, s] : series_) s->reset();
}

std::string TimeSeriesRegistry::report_json() const {
  MutexLock lock(&mu_);
  json::Writer w;
  w.begin_object();
  for (const auto& [name, s] : series_) {
    if (s->points().empty()) continue;
    w.key(name).begin_array();
    for (const auto& [t, v] : s->points()) {
      w.begin_array().num(t).num(v).end_array();
    }
    w.end_array();
  }
  w.end_object();
  return w.take();
}

TimeSeriesRegistry& timeseries() {
  static TimeSeriesRegistry r;
  return r;
}

}  // namespace yoso::obs
