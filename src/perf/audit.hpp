// The scaling-law audit: fitted exponents vs. the paper's claims.
//
// Consumes the "scaling_audit" key recorded by tools/perf (the controlled
// fixed-ratio sweep, see perf/sweep.hpp) and renders a verdict per series:
//
//   ours.online.mult.bytes_per_gate    claimed O(1)  — band [-0.15, 0.15]
//   cdn.online.pdec.bytes_per_gate     claimed O(n)  — band [ 0.85, 1.25]
//   ours.offline.total.bytes_per_gate  claimed O(n)  — band [ 0.85, 1.75]
//
// (The offline upper band is deliberately loose: on the small-n sweep the
// per-gate cost still carries Theta(n^2)-ish key-setup terms amortized
// over Theta(n) gates, so the measured exponent sits above 1 and tightens
// as n grows.)  The audit also re-derives the paper's headline speedup at
// C = 1000, f = 0.05 from the measured per-element coefficients of the
// largest point and requires it to clear the paper's 28x floor.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/scaling.hpp"
#include "perf/critpath.hpp"

namespace yoso::perf {

struct AuditReport {
  std::vector<obs::ExponentCheck> checks;
  obs::SpeedupDerivation speedup;
  double speedup_floor = 28.0;  // the paper's headline ratio
  // Forecast-curve checks over the "critpath" key (perf/critpath.hpp):
  // speedup(k) non-decreasing, <= k, <= the parallelism ceiling.  An
  // absent key is a note, not a failure.
  std::vector<CritpathCheck> critpath;
  std::string critpath_note;
  bool pass = false;
  std::string error;  // non-empty when the bench data was unusable
};

// `bench` is the parsed bench file (the whole BENCH_comm.json document).
AuditReport audit_scaling(const json::Value& bench);

// Machine-readable verdict (fits, bands, derivation) for reports/CI logs.
std::string audit_report_json(const AuditReport& report);

}  // namespace yoso::perf
