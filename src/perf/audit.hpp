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
// largest point and requires it to clear the paper's 28x floor; the other
// paper-scale cells (C in {1000, 20000} x f in {0.05, 0.20}) are projected
// the same way but not gated.
//
// The parsed rows are the E3 (online) and E4 (offline) tables: perf audit
// prints them, so the communication claims have one record, the audit run.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/scaling.hpp"
#include "perf/critpath.hpp"

namespace yoso::perf {

// One recorded audit point, read back from its two ledgers.  Totals are
// elements/bytes over the whole circuit; divide by `gates` for per-gate.
struct AuditRow {
  double n = 0, t = 0, k = 0;
  double gates = 0;
  double ours_mult_bytes = 0, ours_mult_elems = 0;  // online.mult category
  double cdn_mult_bytes = 0, cdn_mult_elems = 0;    // cdn.mult.pdec category
  double offline_bytes = 0, offline_elems = 0;      // ours' offline phase total
  // Analytic cost of the naive variant the paper warns about (packed shares
  // left under tpk, Section 3.4): n partials for each of the 3 packed shares
  // per role per batch.  The audit circuit is one layer: ceil(gates/k)
  // batches.
  double naive_elems = 0;
};

struct AuditReport {
  std::vector<AuditRow> rows;  // sorted by n
  // Ours' offline ledger categories at the largest n (the E4 breakdown).
  json::Value offline_categories;
  std::vector<obs::ExponentCheck> checks;
  // Paper-scale projections from the largest row, C-major over
  // {1000, 20000} x {0.05, 0.20}; `speedup` is the gated C = 1000, f = 0.05
  // cell.
  std::vector<obs::SpeedupDerivation> projections;
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
