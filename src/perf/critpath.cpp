#include "perf/critpath.hpp"

#include <algorithm>
#include <cstdlib>
#include <queue>

#include "circuit/workloads.hpp"
#include "mpc/failure.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "perf/sweep.hpp"

namespace yoso::perf {

using obs::kOpCount;
using obs::kPhaseCtxCount;
using obs::dag::DagNode;
using obs::dag::NodeKind;

namespace {

// Reference cost table: SELF-microseconds per op call, fitted once from a
// Release `trace costs --seed 7 --n 8` run on the CI machine class (nested
// profiled ops are counted separately, so coefficients must not re-include
// them — a PaillierEnc prices its two powms through the CtPowm rows, not
// here).  Committed as constants so every critpath figure is a pure
// function of the seeded run — the absolute scale is one machine's, the
// *structure* (work ratios, span, forecast curve) is what the gates
// consume.  Re-fit from that command's µs/call column when hardware
// shifts.  Indexed by Op; keep in sync with the enum (static_assert below).
constexpr double kReferenceUsPerOp[] = {
    40.0,    // CtPowmSec: constant-time modexp, the dominant primitive
    18.0,    // CtPowmPub: public-exponent modexp
    1.0,     // CtModInverse
    0.6,     // PaillierEnc: glue around its two counted powms
    1.0,     // PaillierEncSecret
    10.0,    // PaillierDec
    0.7,     // PaillierEval: ct-ct add/scal chains
    0.2,     // PaillierTpdec: glue around the counted powm_sec
    0.6,     // PaillierExtractRoot
    0.3,     // PaillierAdd: modular mul of ciphertexts (count-only)
    1.0,     // PaillierScal: ct^s (count-only)
    2.0,     // PaillierScalSecret (count-only)
    1.5,     // PaillierRerandomize (count-only)
    15.0,    // NizkProve: Chaum-Pedersen / mult proof glue
    19.0,    // NizkVerify
    4.0,     // SharePack: packed-poly evaluation over n points
    4.0,     // ShareUnpack: Lagrange reconstruction
    0.02,    // FieldMul: single 61-bit field multiply (count-only)
    0.3,     // FieldInv: Fermat inversion chain (count-only)
    1.3,     // CodecEncode: serialize one tagged wire message
    1.3,     // CodecDecode: parse + checksum one tagged wire message
};

static_assert(sizeof(kReferenceUsPerOp) / sizeof(kReferenceUsPerOp[0]) == kOpCount,
              "reference cost table must cover every Op");

constexpr const char* kPhaseKeys[3] = {"setup", "offline", "online"};

}  // namespace

const CostCoeffs& CostCoeffs::reference_table() {
  static const CostCoeffs table = [] {
    CostCoeffs c;
    for (unsigned o = 0; o < kOpCount; ++o) c.us_per_op[o] = kReferenceUsPerOp[o];
    return c;
  }();
  return table;
}

double node_work_us(const DagNode& node, const CostCoeffs& coeffs) {
  double work = 0;
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    for (unsigned o = 0; o < kOpCount; ++o) {
      const std::uint64_t count = node.counts.v[p][o];
      if (count != 0) work += static_cast<double>(count) * coeffs.us_per_op[o];
    }
  }
  return work;
}

std::string node_display_name(const DagNode& node) {
  switch (node.kind) {
    case NodeKind::Role: return "c:" + node.actor + "#" + std::to_string(node.role);
    case NodeKind::Post: return "post:" + node.label;
    case NodeKind::External: return "x:" + node.actor;
    case NodeKind::Residue: return "residue";
  }
  return "?";
}

Schedule list_schedule(const std::vector<DagNode>& nodes, const std::vector<double>& work,
                       unsigned k) {
  Schedule sched;
  const std::size_t n = nodes.size();
  if (n == 0 || k == 0) return sched;

  // Successor lists and downstream-critical-path priorities (ids are a
  // topological order, so one reverse sweep suffices).
  std::vector<std::vector<std::uint32_t>> succs(n);
  std::vector<std::size_t> indeg(n, 0);
  for (const DagNode& node : nodes) {
    indeg[node.id] = node.preds.size();
    for (std::uint32_t p : node.preds) succs[p].push_back(node.id);
  }
  std::vector<double> prio(n, 0);
  for (std::size_t i = n; i-- > 0;) {
    double best = 0;
    for (std::uint32_t s : succs[i]) best = std::max(best, prio[s]);
    prio[i] = work[i] + best;
  }

  // Ready max-heap: highest priority first, smallest id on ties — a total
  // order, so the schedule is deterministic.
  auto ready_less = [&prio](std::uint32_t a, std::uint32_t b) {
    if (prio[a] != prio[b]) return prio[a] < prio[b];
    return a > b;
  };
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, decltype(ready_less)> ready(
      ready_less);

  struct Running {
    double end;
    unsigned worker;
    std::uint32_t node;
  };
  auto running_greater = [](const Running& a, const Running& b) {
    if (a.end != b.end) return a.end > b.end;
    if (a.worker != b.worker) return a.worker > b.worker;
    return a.node > b.node;
  };
  std::priority_queue<Running, std::vector<Running>, decltype(running_greater)> running(
      running_greater);

  // Idle workers, smallest index first.
  std::priority_queue<unsigned, std::vector<unsigned>, std::greater<unsigned>> idle;
  for (unsigned w = 0; w < k; ++w) idle.push(w);

  for (std::uint32_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push(i);
  }

  double t = 0;
  sched.tasks.reserve(n);
  while (!ready.empty() || !running.empty()) {
    while (!ready.empty() && !idle.empty()) {
      const std::uint32_t node = ready.top();
      ready.pop();
      const unsigned w = idle.top();
      idle.pop();
      running.push(Running{t + work[node], w, node});
      sched.tasks.push_back(ScheduledTask{node, w, t, t + work[node]});
    }
    if (running.empty()) break;  // ready non-empty here is impossible: k >= 1
    t = running.top().end;
    while (!running.empty() && running.top().end == t) {
      const Running done = running.top();
      running.pop();
      idle.push(done.worker);
      for (std::uint32_t s : succs[done.node]) {
        if (--indeg[s] == 0) ready.push(s);
      }
    }
    sched.makespan = t;
  }
  return sched;
}

CritReport analyze(const std::vector<DagNode>& nodes, const CostCoeffs& coeffs,
                   const std::vector<unsigned>& ks) {
  CritReport report;
  report.nodes = nodes.size();
  const std::size_t n = nodes.size();

  std::vector<double> work(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    work[i] = node_work_us(nodes[i], coeffs);
    report.total.work += work[i];
    report.edges += nodes[i].preds.size();
  }
  report.total.nodes = n;

  // Longest weighted path (ids are topological).  dist = finish time of the
  // node on an infinite machine; the argmax's backtrack is the critical path.
  std::vector<double> dist(n, 0);
  std::uint32_t sink = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double in = 0;
    for (std::uint32_t p : nodes[i].preds) in = std::max(in, dist[p]);
    dist[i] = in + work[i];
    if (dist[i] > report.total.span) {
      report.total.span = dist[i];
      sink = static_cast<std::uint32_t>(i);
    }
  }
  if (n > 0 && report.total.span > 0) {
    std::uint32_t cur = sink;
    for (;;) {
      report.critical_path.push_back(cur);
      const DagNode& node = nodes[cur];
      if (node.preds.empty()) break;
      std::uint32_t best = node.preds[0];
      for (std::uint32_t p : node.preds) {
        if (dist[p] > dist[best]) best = p;
      }
      if (dist[best] <= 0) break;
      cur = best;
    }
    std::reverse(report.critical_path.begin(), report.critical_path.end());
  }

  // Per-phase work/span over the phase's induced subgraph (edges with both
  // endpoints in the phase).
  for (unsigned ph = 0; ph < 3; ++ph) {
    PhaseCrit& pc = report.phases[ph];
    std::vector<double> pdist(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (nodes[i].phase != ph) continue;
      ++pc.nodes;
      pc.work += work[i];
      double in = 0;
      for (std::uint32_t p : nodes[i].preds) {
        if (nodes[p].phase == ph) in = std::max(in, pdist[p]);
      }
      pdist[i] = in + work[i];
      pc.span = std::max(pc.span, pdist[i]);
    }
  }

  // Forecast: list-schedule on k workers; running-min over k irons out
  // Graham anomalies (k workers can emulate fewer by idling).
  std::vector<unsigned> sorted_ks = ks;
  std::sort(sorted_ks.begin(), sorted_ks.end());
  sorted_ks.erase(std::unique(sorted_ks.begin(), sorted_ks.end()), sorted_ks.end());
  double best_ms = -1;
  for (unsigned k : sorted_ks) {
    if (k == 0) continue;
    double ms = list_schedule(nodes, work, k).makespan;
    if (best_ms >= 0) ms = std::min(ms, best_ms);
    best_ms = ms;
    ForecastPoint fp;
    fp.k = k;
    fp.makespan = ms;
    fp.speedup = (ms > 0 && report.total.work > 0) ? report.total.work / ms : 1.0;
    report.forecast.push_back(fp);
  }
  return report;
}

namespace {

void write_phase_crit(json::Writer& w, const PhaseCrit& pc) {
  w.begin_object();
  w.field("nodes", static_cast<std::uint64_t>(pc.nodes));
  w.key("work").num(pc.work);
  w.key("span").num(pc.span);
  w.key("parallelism").num(pc.parallelism());
  w.end_object();
}

}  // namespace

std::string crit_report_json(const CritReport& report) {
  json::Writer w;
  w.begin_object();
  w.field("nodes", static_cast<std::uint64_t>(report.nodes));
  w.field("edges", static_cast<std::uint64_t>(report.edges));
  w.key("work").num(report.total.work);
  w.key("span").num(report.total.span);
  w.key("parallelism").num(report.total.parallelism());
  w.field("critical_path_nodes", static_cast<std::uint64_t>(report.critical_path.size()));
  w.key("phases").begin_object();
  for (unsigned ph = 0; ph < 3; ++ph) {
    w.key(kPhaseKeys[ph]);
    write_phase_crit(w, report.phases[ph]);
  }
  w.end_object();
  w.key("forecast").begin_object();
  for (const ForecastPoint& fp : report.forecast) {
    std::string key = "k";
    key += std::to_string(fp.k);
    w.key(key).num(fp.speedup);
  }
  w.end_object();
  w.end_object();
  return w.take();
}

std::string critpath_perfetto_json(const std::vector<DagNode>& nodes, const CostCoeffs& coeffs,
                                   unsigned lanes_k) {
  const std::size_t n = nodes.size();
  std::vector<double> work(n, 0);
  for (std::size_t i = 0; i < n; ++i) work[i] = node_work_us(nodes[i], coeffs);
  const CritReport report = analyze(nodes, coeffs, {lanes_k == 0 ? 1u : lanes_k});

  json::Writer w;
  w.begin_object();
  w.key("displayTimeUnit").str("ms");
  w.key("traceEvents").begin_array();

  w.begin_object();
  w.field("ph", "M").field("pid", 2).field("tid", 1).field("name", "process_name");
  w.key("args").begin_object().field("name", "yoso-critpath").end_object();
  w.end_object();
  w.begin_object();
  w.field("ph", "M").field("pid", 2).field("tid", 1).field("name", "thread_name");
  w.key("args").begin_object().field("name", "critical path").end_object();
  w.end_object();

  // The critical path as one sequential track: each node at its finish-time
  // offset on the infinite-machine timeline.
  double cursor = 0;
  for (std::uint32_t id : report.critical_path) {
    const DagNode& node = nodes[id];
    w.begin_object();
    w.field("ph", "X").field("pid", 2).field("tid", 1);
    w.field("name", node_display_name(node)).field("cat", "critpath");
    w.key("ts").num(cursor);
    w.key("dur").num(work[id]);
    w.key("args").begin_object();
    w.field("kind", obs::dag::node_kind_name(node.kind));
    w.field("node", static_cast<std::uint64_t>(id));
    w.key("work_model_us").num(work[id]);
    if (node.kind == NodeKind::Post) w.field("bytes", node.bytes);
    w.end_object();
    w.end_object();
    cursor += work[id];
  }

  // k-worker forecast lanes: where the list scheduler placed every node.
  const unsigned k = lanes_k == 0 ? 1u : lanes_k;
  const Schedule sched = list_schedule(nodes, work, k);
  for (unsigned lane = 0; lane < k; ++lane) {
    w.begin_object();
    w.field("ph", "M").field("pid", 2).field("tid", 10 + lane).field("name", "thread_name");
    w.key("args").begin_object();
    w.field("name", "worker " + std::to_string(lane) + "/" + std::to_string(k));
    w.end_object();
    w.end_object();
  }
  for (const ScheduledTask& task : sched.tasks) {
    const DagNode& node = nodes[task.node];
    w.begin_object();
    w.field("ph", "X").field("pid", 2).field("tid", 10 + task.worker);
    w.field("name", node_display_name(node)).field("cat", "forecast");
    w.key("ts").num(task.start);
    w.key("dur").num(task.end - task.start);
    w.key("args").begin_object();
    w.field("kind", obs::dag::node_kind_name(node.kind));
    w.field("node", static_cast<std::uint64_t>(task.node));
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  return w.take();
}

CritpathPoint run_critpath_point(const CritpathOptions& opt) {
  CritpathPoint pt;
  pt.n = opt.n;
  auto params = ProtocolParams::for_gap(opt.n, 0.25, 128);
  params.k = audit_packing(opt.n);
  params.validate();
  pt.t = params.t;
  pt.k = params.k;
  Circuit c = wide_mul_circuit(4 * opt.n);
  pt.gates = c.num_mul_gates();

  // Fresh profiler per point so the DAG's delta-snapshots start from a
  // clean cell (the recorder tolerates a nonzero base, but a clean one
  // keeps the reconciliation test in dag_test.cpp exact end to end).
  obs::profiler().reset();

  net::NetConfig cfg;
  cfg.faults.silence_per_committee = opt.silence;
  if (opt.churn_prob > 0) {
    cfg.churn.leave_prob = opt.churn_prob;
    cfg.churn.seed = opt.seed_base + opt.n;
  }
  Ledger ledger;
  net::NetBulletin board(ledger, cfg);

  YosoMpc ours(params, c, AdversaryPlan::honest(opt.n), opt.seed_base + opt.n, &board);
  try {
    ours.run(make_inputs(c, opt.n));
  } catch (const ProtocolAbort&) {
    // Faulted runs may classify-abort; the DAG up to the abort still prices.
    pt.completed = false;
  }

  const obs::dag::DagRecorder& dag = board.dag();
  pt.crit_json = crit_report_json(analyze(dag.nodes(), CostCoeffs::reference_table()));
  pt.dag_json = dag.report_json();
  return pt;
}

std::string critpath_sweep_json(const std::vector<CritpathPoint>& pts) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).begin_object();
    w.field("t", pt.t);
    w.field("k", pt.k);
    w.field("gates", static_cast<std::uint64_t>(pt.gates));
    w.field("completed", pt.completed);
    w.key("crit").raw(pt.crit_json);
    w.key("dag").raw(pt.dag_json);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::vector<CritpathCheck> check_critpath(const json::Value& bench, std::string* error) {
  std::vector<CritpathCheck> checks;
  const json::Value* cp = bench.find("critpath");
  if (cp == nullptr || !cp->is_object()) {
    if (error != nullptr) *error = "no critpath key; run `perf record`";
    return checks;
  }
  for (const auto& [key, point] : cp->members) {
    if (key.size() < 2 || key[0] != 'n') continue;
    CritpathCheck check;
    check.point = key;
    const json::Value* crit = point.find("crit");
    if (crit == nullptr || !crit->is_object() || crit->find("forecast") == nullptr) {
      check.error = "point carries no forecast";
      checks.push_back(std::move(check));
      continue;
    }
    const double work = crit->num_or("work", 0);
    const double span = crit->num_or("span", 0);
    check.parallelism = span > 0 ? work / span : 1.0;

    // forecast is {"k1": speedup, "k2": ..., ...}; sort by numeric k.
    std::vector<std::pair<unsigned, double>> curve;
    for (const auto& [kkey, v] : crit->find("forecast")->members) {
      if (kkey.size() < 2 || kkey[0] != 'k' || !v.is_number()) continue;
      const unsigned k = static_cast<unsigned>(std::strtoul(kkey.c_str() + 1, nullptr, 10));
      if (k > 0) curve.emplace_back(k, v.number);
    }
    std::sort(curve.begin(), curve.end());
    if (curve.empty()) {
      check.error = "empty forecast curve";
      checks.push_back(std::move(check));
      continue;
    }
    constexpr double kEps = 1e-9;
    double prev = 0;
    for (const auto& [k, speedup] : curve) {
      if (speedup + kEps < prev) check.monotone = false;
      if (speedup > static_cast<double>(k) + kEps) check.bounded = false;
      if (speedup > check.parallelism + kEps) check.bounded = false;
      prev = speedup;
      check.max_speedup = speedup;
    }
    checks.push_back(std::move(check));
  }
  if (checks.empty() && error != nullptr) *error = "critpath has no usable points";
  return checks;
}

}  // namespace yoso::perf
