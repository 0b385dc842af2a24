#include "perf/opcosts.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "baseline/cdn.hpp"
#include "circuit/workloads.hpp"
#include "mpc/protocol.hpp"
#include "obs/profile.hpp"
#include "perf/sweep.hpp"

namespace yoso::perf {

namespace {

// Same input derivation as the sweep recorder: Rng seeded with n.
std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 20))));
    }
  }
  return inputs;
}

// The op_costs point payload: totals plus a per-phase breakdown with the
// measured phase wall-clock.  Baselines flatten "ops" (counts exact,
// self_us within the `_us` factor band) and skip "by_phase" wholesale —
// the per-phase split is the cost model's input, not a gate.
std::string costs_point_json(const obs::InstrumentCell& cell) {
  json::Writer w;
  w.begin_object();
  w.key("ops").begin_object();
  for (unsigned o = 0; o < obs::kOpCount; ++o) {
    const obs::Op op = static_cast<obs::Op>(o);
    const std::uint64_t total = cell.op_total_count(op);
    if (total == 0) continue;
    w.key(obs::op_name(op)).begin_object();
    w.field("count", total);
    w.field("self_us", static_cast<double>(cell.op_total_self_ns(op)) / 1e3);
    w.end_object();
  }
  w.end_object();
  w.key("by_phase").begin_object();
  for (unsigned p = 0; p < obs::kPhaseCtxCount; ++p) {
    const obs::PhaseCtx ctx = static_cast<obs::PhaseCtx>(p);
    const std::uint64_t wall_ns = cell.phase_wall_ns(ctx);
    bool any = wall_ns != 0;
    for (unsigned o = 0; o < obs::kOpCount && !any; ++o) {
      any = cell.op_count(ctx, static_cast<obs::Op>(o)) != 0;
    }
    if (!any) continue;
    w.key(obs::phase_ctx_name(ctx)).begin_object();
    w.field("wall_us", static_cast<double>(wall_ns) / 1e3);
    w.key("ops").begin_object();
    for (unsigned o = 0; o < obs::kOpCount; ++o) {
      const obs::Op op = static_cast<obs::Op>(o);
      const std::uint64_t count = cell.op_count(ctx, op);
      if (count == 0) continue;
      w.key(obs::op_name(op)).begin_object();
      w.field("count", count);
      w.field("self_us", static_cast<double>(cell.op_self_ns(ctx, op)) / 1e3);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace

ProfilePoint run_profile_point(unsigned n) {
  ProfilePoint pt;
  pt.n = n;
  auto params = ProtocolParams::for_gap(n, 0.25, 128);
  params.k = audit_packing(n);
  params.validate();
  pt.t = params.t;
  pt.k = params.k;
  Circuit c = wide_mul_circuit(4 * n);
  pt.gates = c.num_mul_gates();

  // Fresh cell per point: the sweep caller decides what to do with the
  // previous point's numbers, the point itself must be self-contained.
  obs::profiler().reset();

  YosoMpc ours(params, c, AdversaryPlan::honest(n), 9300 + n);
  ours.run(make_inputs(c, n));

  CdnBaseline cdn(params, c, AdversaryPlan::honest(n), 9400 + n);
  cdn.run(make_inputs(c, n));

  const obs::InstrumentCell cell = obs::profiler().snapshot();
  pt.counts_json = cell.snapshot_json(false);
  pt.costs_json = costs_point_json(cell);
  return pt;
}

namespace {

std::string sweep_json(const std::vector<ProfilePoint>& pts, bool costs) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).begin_object();
    w.field("t", pt.t);
    w.field("k", pt.k);
    w.field("gates", static_cast<std::uint64_t>(pt.gates));
    w.key(costs ? "costs" : "counts").raw(costs ? pt.costs_json : pt.counts_json);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace

std::string profile_sweep_json(const std::vector<ProfilePoint>& pts) {
  return sweep_json(pts, false);
}

std::string op_costs_sweep_json(const std::vector<ProfilePoint>& pts) {
  return sweep_json(pts, true);
}

CostModel fit_cost_model(const json::Value& bench) {
  CostModel model;
  const json::Value* costs = bench.find("op_costs");
  if (costs == nullptr || !costs->is_object()) {
    model.error = "no op_costs key; run `perf record`";
    return model;
  }

  struct PointRef {
    unsigned n = 0;
    const json::Value* by_phase = nullptr;
  };
  std::vector<PointRef> points;
  std::map<std::string, CostTerm> terms;  // global per-op totals

  for (const auto& [key, point] : costs->members) {
    if (key.size() < 2 || key[0] != 'n') continue;
    const unsigned n = static_cast<unsigned>(std::strtoul(key.c_str() + 1, nullptr, 10));
    if (n == 0) continue;
    const json::Value* ops = nullptr;
    if (const json::Value* c = point.find("costs")) ops = c->find("ops");
    if (ops == nullptr || !ops->is_object()) continue;
    for (const auto& [op, v] : ops->members) {
      CostTerm& term = terms[op];
      term.op = op;
      term.count += v.u64_or("count", 0);
      term.self_us += v.num_or("self_us", 0);
    }
    PointRef ref;
    ref.n = n;
    if (const json::Value* c = point.find("costs")) ref.by_phase = c->find("by_phase");
    points.push_back(ref);
  }

  if (points.empty()) {
    model.error = "op_costs has no usable points (profiler muted or disabled?)";
    return model;
  }

  // One coefficient per primitive: the sweep-wide mean self-µs per call.
  // Count-only primitives (paillier.add, field.mul, ...) carry zero
  // self-time and so predict zero — that is the point: their cost is
  // already attributed to the timed primitives they sit inside.
  for (auto& [op, term] : terms) {
    if (term.count > 0) term.us_per_op = term.self_us / static_cast<double>(term.count);
    model.terms.push_back(term);
  }

  double total_self_us = 0;
  for (const CostTerm& t : model.terms) total_self_us += t.self_us;
  if (total_self_us <= 0) {
    model.error = "op_costs carries no self-time; record with timings enabled";
    return model;
  }

  std::vector<double> xs, ys;
  for (const PointRef& ref : points) {
    if (ref.by_phase == nullptr || !ref.by_phase->is_object()) continue;
    for (const auto& [phase, ph] : ref.by_phase->members) {
      const double measured = ph.num_or("wall_us", 0);
      if (measured <= 0) continue;
      double predicted = 0;
      if (const json::Value* ops = ph.find("ops")) {
        for (const auto& [op, v] : ops->members) {
          auto it = terms.find(op);
          if (it == terms.end()) continue;
          predicted += static_cast<double>(v.u64_or("count", 0)) * it->second.us_per_op;
        }
      }
      CostModelRow row;
      row.phase = phase;
      row.n = ref.n;
      row.predicted_us = predicted;
      row.measured_us = measured;
      row.explained = predicted / measured;
      model.rows.push_back(row);
      xs.push_back(predicted);
      ys.push_back(measured);
      if (ref.n > model.n_max) model.n_max = ref.n;
    }
  }
  if (model.rows.empty()) {
    model.error = "op_costs has no phase wall-clock measurements";
    return model;
  }

  model.fit = obs::fit_linear(xs, ys);

  double pred_max = 0, meas_max = 0;
  for (const CostModelRow& row : model.rows) {
    if (row.n != model.n_max) continue;
    pred_max += row.predicted_us;
    meas_max += row.measured_us;
  }
  model.explained_at_n_max = meas_max > 0 ? pred_max / meas_max : 0;
  model.ok = true;
  model.pass = model.explained_at_n_max >= model.explained_floor;
  return model;
}

std::string cost_model_json(const CostModel& model) {
  json::Writer w;
  w.begin_object();
  w.field("ok", model.ok);
  w.field("pass", model.pass);
  if (!model.error.empty()) w.field("error", model.error);
  w.field("n_max", static_cast<std::uint64_t>(model.n_max));
  w.field("explained_at_n_max", model.explained_at_n_max);
  w.field("explained_floor", model.explained_floor);
  if (model.fit.ok) {
    w.key("fit").begin_object();
    w.field("slope", model.fit.slope);
    w.field("intercept", model.fit.intercept);
    w.field("r2", model.fit.r2);
    w.field("ci_lo", model.fit.ci_lo);
    w.field("ci_hi", model.fit.ci_hi);
    w.field("points", static_cast<std::uint64_t>(model.fit.points));
    w.end_object();
  }
  w.key("terms").begin_array();
  for (const CostTerm& t : model.terms) {
    w.begin_object();
    w.field("op", t.op);
    w.field("count", t.count);
    w.field("self_us", t.self_us);
    w.field("us_per_op", t.us_per_op);
    w.end_object();
  }
  w.end_array();
  w.key("rows").begin_array();
  for (const CostModelRow& row : model.rows) {
    w.begin_object();
    w.field("phase", row.phase);
    w.field("n", static_cast<std::uint64_t>(row.n));
    w.field("predicted_us", row.predicted_us);
    w.field("measured_us", row.measured_us);
    w.field("explained", row.explained);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace yoso::perf
