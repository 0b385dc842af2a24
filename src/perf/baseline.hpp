// Baseline-gated perf regression checking.
//
// A baseline is a flat {"metric.path": number} object committed under
// bench/baselines/.  Metrics are the numeric leaves of the recorded bench
// keys (online_comm / offline_comm / scaling_audit / profile / critpath),
// flattened by joining member names with '.'; per-category ledger
// breakdowns and per-phase op splits are skipped so a baseline stays
// reviewable while still pinning every phase total and op total.
//
// Tolerances are by metric suffix: ".bytes" leaves get a relative band
// (serialized sizes may drift a few percent with encoder changes that are
// not regressions); everything else — message and element counts, op call
// counts, the recorded t/k/gates parameters — must match exactly, because
// the benches are seeded and deterministic.  Wall time is not gated here:
// bench/e2e owns it.  A metric present in the baseline but
// missing from the current run is a failure, not a skip: silently dropping
// a metric is how regressions hide.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace yoso::perf {

// Relative tolerance for a metric (0 = exact).
double tolerance_for(const std::string& metric);

// Flattens the numeric leaves of `root`'s members named in `keys`.
std::map<std::string, double> flatten_metrics(const json::Value& root,
                                              const std::vector<std::string>& keys);

struct Mismatch {
  std::string metric;
  double expected = 0;
  double actual = 0;
  double tolerance = 0;  // relative; 0 = exact
  bool missing = false;  // metric absent from the current run
};

struct CheckResult {
  std::size_t checked = 0;
  std::vector<Mismatch> mismatches;
  bool pass() const { return mismatches.empty() && checked > 0; }
};

CheckResult check_against_baseline(const std::map<std::string, double>& baseline,
                                   const std::map<std::string, double>& current);

// Baseline file round trip: a flat JSON object, non-numeric members ignored.
std::map<std::string, double> parse_baseline(const json::Value& v);

}  // namespace yoso::perf
