// Work/span analysis and a parallel-speedup forecaster over the
// happens-before DAG (dag.hpp).
//
// Node weights: each DAG node carries per-(phase, op) counts; a node's work
// is Sigma count * coefficient.  The default coefficient table is a FIXED
// reference (kReferenceUsPerOp below, fitted once from a Release run on the
// CI machine class) so the whole analysis — work, span, forecast curve —
// is a pure function of the seeded run: byte-identical across replays,
// machines, and enabled-vs-muted obs.  `CostCoeffs::measured` swaps in the
// live self-time averages for local what-does-MY-machine-say runs; exports
// label which table produced them.
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
// by idling — which CI gates as: speedup non-decreasing, <= k, and <= the
// parallelism ceiling.
//
// This is the measurable target for ROADMAP §3: the thread pool, once it
// exists, must approach forecast(k) on the same seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/dag/dag.hpp"

namespace yoso::obs::dag {

struct CostCoeffs {
  double us_per_op[kOpCount] = {};
  bool reference = true;  // fixed table vs live-measured

  // The committed reference table (deterministic everywhere).
  static const CostCoeffs& reference_table();
  // Live self-time averages from `cell` (self_ns / count per op), falling
  // back to the reference value for ops the run never timed.  Requires an
  // enabled run; results are machine-dependent.
  static CostCoeffs measured(const InstrumentCell& cell);
};

// Sigma over (phase, op) of count * coefficient, in model-us.
double node_work_us(const DagNode& node, const CostCoeffs& coeffs);

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
  bool reference_costs = true;
};

inline const std::vector<unsigned>& default_forecast_ks() {
  static const std::vector<unsigned> ks = {1, 2, 4, 8, 16};
  return ks;
}

// Deterministic k-worker replay of the DAG (critical-path list scheduling).
Schedule list_schedule(const std::vector<DagNode>& nodes, const std::vector<double>& work,
                       unsigned k);

CritReport analyze(const std::vector<DagNode>& nodes, const CostCoeffs& coeffs,
                   const std::vector<unsigned>& ks = default_forecast_ks());

// {"nodes","edges","work","span","parallelism","phases":{...},
//  "forecast":{"k1":...}} — deterministic with reference coefficients; the
// field names carry no .bytes/_us suffix so the perf baseline gates them
// exactly.
std::string crit_report_json(const CritReport& report);

// Standalone Chrome-trace document: the critical path as its own track plus
// one lane per virtual worker of the k-worker schedule (model-us
// timestamps).  Loads in Perfetto next to the run trace.
std::string critpath_perfetto_json(const std::vector<DagNode>& nodes, const CostCoeffs& coeffs,
                                   unsigned lanes_k);

// Display name for a DAG node ("c:off.beaver#3", "post:beaver.a", ...).
std::string node_display_name(const DagNode& node);

}  // namespace yoso::obs::dag
