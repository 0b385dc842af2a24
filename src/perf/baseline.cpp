#include "perf/baseline.hpp"

#include <cmath>

namespace yoso::perf {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void flatten_into(const json::Value& v, const std::string& prefix,
                  std::map<std::string, double>* out) {
  if (v.is_number()) {
    (*out)[prefix] = v.number;
    return;
  }
  if (v.is_object()) {
    for (const auto& [key, val] : v.members) {
      if (key == "categories") continue;  // too volatile for a baseline
      if (key == "by_phase") continue;    // keeps profile.* op counts at totals
      flatten_into(val, prefix + "." + key, out);
    }
  }
  // Arrays, strings and booleans carry no baseline-checkable numbers.
}

}  // namespace

double tolerance_for(const std::string& metric) {
  if (ends_with(metric, ".bytes")) return 0.10;
  return 0.0;
}

std::map<std::string, double> flatten_metrics(const json::Value& root,
                                              const std::vector<std::string>& keys) {
  std::map<std::string, double> out;
  for (const auto& key : keys) {
    if (const json::Value* v = root.find(key)) flatten_into(*v, key, &out);
  }
  return out;
}

CheckResult check_against_baseline(const std::map<std::string, double>& baseline,
                                   const std::map<std::string, double>& current) {
  CheckResult result;
  result.checked = baseline.size();
  for (const auto& [metric, expected] : baseline) {
    Mismatch mm;
    mm.metric = metric;
    mm.expected = expected;
    mm.tolerance = tolerance_for(metric);
    auto it = current.find(metric);
    if (it == current.end()) {
      mm.missing = true;
      result.mismatches.push_back(std::move(mm));
      continue;
    }
    mm.actual = it->second;
    const bool ok = mm.tolerance > 0
                        ? std::abs(mm.actual - expected) <= mm.tolerance * std::abs(expected)
                        : mm.actual == expected;
    if (!ok) result.mismatches.push_back(std::move(mm));
  }
  return result;
}

std::map<std::string, double> parse_baseline(const json::Value& v) {
  std::map<std::string, double> out;
  if (!v.is_object()) return out;
  for (const auto& [key, val] : v.members) {
    if (val.is_number()) out[key] = val.number;
  }
  return out;
}

}  // namespace yoso::perf
