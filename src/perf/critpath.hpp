// Critical-path analysis: work/span and a parallel-speedup forecaster over
// the happens-before DAG (obs/dag/dag.hpp), and the forecast-curve gate.
//
// Node weights: each DAG node carries per-(phase, op) counts; a node's work
// is Sigma count * coefficient.  The coefficient table is a FIXED reference
// (kReferenceUsPerOp in critpath.cpp, fitted once from a Release run on the
// CI machine class) so the whole analysis — work, span, forecast curve —
// is a pure function of the seeded run: byte-identical across replays,
// machines, and enabled-vs-muted obs.  This machine's live µs/call column
// is `trace costs`.
//
// Work  = Sigma over nodes of work(node)          (one-worker runtime)
// Span  = longest weighted path through the DAG   (infinite-worker runtime)
// Parallelism = work / span                       (the speedup ceiling)
//
// The forecaster replays the DAG on k virtual workers with deterministic
// list scheduling: ready nodes are dispatched by longest-downstream-path
// priority (critical-path scheduling), ties broken by node id, workers by
// index.  speedup(k) = work / makespan(k).  Greedy list scheduling is not
// monotone in k in general (Graham anomalies), so makespan(k) is reported
// as the running minimum over k' <= k — k workers can always emulate fewer
// by idling.
//
// The "critpath" key (E16) comes from the audit runs: run_audit_point()
// (perf/sweep.hpp, seeds 9300 + n) runs ours over a NetBulletin so the
// board reconstructs the DAG, and prices it with the reference table;
// `perf record` commits the sweep to BENCH_comm.json, and CI gates it by
// re-recording that file byte for byte.  `trace critpath` analyses its own board, with
// optional fail-stop faults (silenced roles, background churn) that show
// how faults serialize the run: dropped posts become DAG leaves, the
// surviving roles' work concentrates on fewer parallel chains, and the
// forecast curve flattens (docs/OBSERVABILITY.md, "Causality & critical
// path").
//
// check_critpath() is the CI gate over a recorded "critpath" key:
// speedup(k) must be non-decreasing in k (the analyzer reports the
// running-min makespan, so a violation means the recording is corrupt or
// hand-edited), bounded by k, and bounded by the point's parallelism
// ceiling.
//
// This is the measurable target for a multi-core engine: once it exists,
// it must approach forecast(k) on the same seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/dag/dag.hpp"

namespace yoso::perf {

// Model-µs per op call.  A value type so tests can substitute a unit table.
struct CostCoeffs {
  double us_per_op[obs::kOpCount] = {};

  // The committed reference table (deterministic everywhere).
  static const CostCoeffs& reference_table();
};

// Sigma over (phase, op) of count * coefficient, in model-us.
double node_work_us(const obs::dag::DagNode& node, const CostCoeffs& coeffs);

struct PhaseCrit {
  std::size_t nodes = 0;
  double work = 0;  // model-us
  double span = 0;  // model-us
  double parallelism() const { return span > 0 ? work / span : 1.0; }
};

struct ForecastPoint {
  unsigned k = 1;
  double makespan = 0;  // model-us, running-min over k' <= k
  double speedup = 1;   // work / makespan
};

// One task placement from the list-scheduling simulation.
struct ScheduledTask {
  std::uint32_t node = 0;
  unsigned worker = 0;
  double start = 0;  // model-us
  double end = 0;
};

struct Schedule {
  double makespan = 0;
  std::vector<ScheduledTask> tasks;  // in dispatch order
};

struct CritReport {
  PhaseCrit total;
  PhaseCrit phases[3];  // setup / offline / online subgraphs
  std::vector<std::uint32_t> critical_path;  // node ids, source -> sink
  std::vector<ForecastPoint> forecast;
  std::size_t nodes = 0;
  std::size_t edges = 0;
};

inline const std::vector<unsigned>& default_forecast_ks() {
  static const std::vector<unsigned> ks = {1, 2, 4, 8, 16};
  return ks;
}

// Deterministic k-worker replay of the DAG (critical-path list scheduling).
Schedule list_schedule(const std::vector<obs::dag::DagNode>& nodes,
                       const std::vector<double>& work, unsigned k);

CritReport analyze(const std::vector<obs::dag::DagNode>& nodes, const CostCoeffs& coeffs,
                   const std::vector<unsigned>& ks = default_forecast_ks());

// {"nodes","edges","work","span","parallelism","phases":{...},
//  "forecast":{"k1":...}} — deterministic, so the byte-equality gate on the
// committed BENCH_comm.json pins every value exactly.
std::string crit_report_json(const CritReport& report);

// Standalone Chrome-trace document: the critical path as its own track plus
// one lane per virtual worker of the k-worker schedule (model-us
// timestamps).  Loads in Perfetto next to the run trace.
std::string critpath_perfetto_json(const std::vector<obs::dag::DagNode>& nodes,
                                   const CostCoeffs& coeffs, unsigned lanes_k);

// Display name for a DAG node ("c:off.beaver#3", "post:beaver.a", ...).
std::string node_display_name(const obs::dag::DagNode& node);

// One gated point from a recorded critpath key.
struct CritpathCheck {
  std::string point;          // "n4", "n8", ...
  bool monotone = true;       // speedup(k) non-decreasing in k
  bool bounded = true;        // speedup(k) <= k and <= parallelism
  double parallelism = 0;     // work / span
  double max_speedup = 0;     // forecast at the largest k
  std::string error;
  bool pass() const { return monotone && bounded && error.empty(); }
};

// Empty result + *error when the key is missing/unusable (a note for the
// auditor, not a failure — bench files without the key stay auditable).
std::vector<CritpathCheck> check_critpath(const json::Value& bench, std::string* error);

}  // namespace yoso::perf
