#include "e2e.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace yoso::e2e {

namespace {

std::vector<MetricSpec> read_metrics(const json::Value& doc, const char* key) {
  const json::Value* list = doc.find(key);
  if (list == nullptr || !list->is_array()) {
    throw std::invalid_argument(std::string("BENCHMARK.json: missing list '") + key + "'");
  }
  std::vector<MetricSpec> out;
  for (const json::Value& m : list->items) {
    MetricSpec spec;
    spec.name = m.str_or("name", "");
    spec.unit = m.str_or("unit", "");
    const std::string better = m.str_or("better", "");
    if (spec.name.empty() || spec.unit.empty() || (better != "lower" && better != "higher")) {
      throw std::invalid_argument(std::string("BENCHMARK.json: malformed entry in '") + key + "'");
    }
    spec.higher_is_better = better == "higher";
    spec.bound = m.num_or("bound", 0);
    out.push_back(spec);
  }
  return out;
}

}  // namespace

Spec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());
  Spec spec;
  spec.run_seconds = static_cast<unsigned>(doc.u64_or("run_seconds", 0));
  if (const json::Value* ws = doc.find("workloads"); ws != nullptr && ws->is_array()) {
    for (const json::Value& w : ws->items) spec.workloads.push_back(w.str_or("name", ""));
  }
  spec.end_to_end = read_metrics(doc, "end_to_end");
  spec.per_layer = read_metrics(doc, "per_layer");
  if (spec.run_seconds == 0 || spec.workloads.empty()) {
    throw std::invalid_argument(path + ": needs run_seconds and workloads");
  }
  return spec;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

std::vector<double> quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("quartiles of no samples");
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp((i * (ld + 1)) / 4, 1L, ld - 1);
    const long delta = i * (ld + 1) - j * 4;  // may leave [0, 4]: extrapolates like Python
    out.push_back((v[j - 1] * static_cast<double>(4 - delta) + v[j] * static_cast<double>(delta)) / 4);
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

}  // namespace yoso::e2e
