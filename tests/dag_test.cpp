// The causality observatory (src/obs/dag): happens-before DAG
// reconstruction, the exact counts-reconciliation contract, structural
// invariants under seeded wire-fault/churn schedules, and the critical-path
// analyzer's work/span/forecast guarantees (src/perf/critpath.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "circuit/workloads.hpp"
#include "common/json.hpp"
#include "crypto/rand.hpp"
#include "mpc/failure.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "obs/dag/dag.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/runtime.hpp"
#include "perf/critpath.hpp"
#include "perf/sweep.hpp"

namespace yoso::obs::dag {
namespace {

using perf::analyze;
using perf::CostCoeffs;
using perf::crit_report_json;
using perf::critpath_perfetto_json;
using perf::CritReport;
using perf::ForecastPoint;
using perf::list_schedule;
using perf::node_work_us;
using perf::PhaseCrit;
using perf::Schedule;
using perf::ScheduledTask;

class DagTest : public ::testing::Test {
protected:
  void SetUp() override {
    set_enabled(true);
    profiler().reset();
  }
};

// ---------------------------------------------------------------------------
// Recorder structure: publish -> consume edge resolution (the rule the
// flow matrix view reads back) on a hand-driven publish script.

TEST_F(DagTest, ResolvesPublishConsumeEdgesLikeFlowMatrix) {
  DagRecorder rec;
  // Dealer posts an input; the setup committee (two roles) consumes it; the
  // offline committee consumes the setup posts; its own post is dropped.
  rec.begin_post("dealer", 0, 0, true);
  rec.end_post("input", 100, 1, true);
  rec.begin_post("setup.cmt", 0, 0, false);
  rec.end_post("pk", 50, 1, true);
  rec.begin_post("setup.cmt", 1, 0, false);
  rec.end_post("pk", 50, 1, true);
  rec.begin_post("off.cmt", 0, 1, false);
  rec.end_post("beaver", 70, 1, false);  // rejected by the board
  rec.finalize();

  std::string err;
  ASSERT_TRUE(rec.validate(&err)) << err;

  // Index nodes by (kind, actor/role) for assertions.
  const auto& nodes = rec.nodes();
  const DagNode* dealer = nullptr;
  const DagNode* input_post = nullptr;
  const DagNode* setup0 = nullptr;
  const DagNode* setup1 = nullptr;
  const DagNode* off0 = nullptr;
  const DagNode* beaver_post = nullptr;
  std::vector<std::uint32_t> pk_posts;
  for (const DagNode& n : nodes) {
    if (n.kind == NodeKind::External) dealer = &n;
    if (n.kind == NodeKind::Post && n.label == "input") input_post = &n;
    if (n.kind == NodeKind::Post && n.label == "pk") pk_posts.push_back(n.id);
    if (n.kind == NodeKind::Post && n.label == "beaver") beaver_post = &n;
    if (n.kind == NodeKind::Role && n.actor == "setup.cmt" && n.role == 0) setup0 = &n;
    if (n.kind == NodeKind::Role && n.actor == "setup.cmt" && n.role == 1) setup1 = &n;
    if (n.kind == NodeKind::Role && n.actor == "off.cmt") off0 = &n;
  }
  ASSERT_NE(dealer, nullptr);
  ASSERT_NE(input_post, nullptr);
  ASSERT_NE(setup0, nullptr);
  ASSERT_NE(setup1, nullptr);
  ASSERT_NE(off0, nullptr);
  ASSERT_NE(beaver_post, nullptr);
  ASSERT_EQ(pk_posts.size(), 2u);

  // The dealer saw an empty board; its post is produced by it alone.
  EXPECT_TRUE(dealer->preds.empty());
  ASSERT_EQ(input_post->preds.size(), 1u);
  EXPECT_EQ(input_post->preds[0], dealer->id);

  // Both setup roles consume the dealer's delivered post.
  EXPECT_EQ(setup0->preds, std::vector<std::uint32_t>{input_post->id});
  EXPECT_EQ(setup1->preds, std::vector<std::uint32_t>{input_post->id});

  // The next committee consumes both pk posts of the previous activation.
  std::vector<std::uint32_t> want = pk_posts;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(off0->preds, want);

  // The dropped post exists (its pipeline work is real) but feeds nobody.
  EXPECT_FALSE(beaver_post->delivered);
  for (const DagNode& n : nodes) {
    for (std::uint32_t p : n.preds) EXPECT_NE(p, beaver_post->id);
  }
}

TEST_F(DagTest, AttributesCountDeltasToTheRightNodes) {
  InstrumentCell task;
  ScopedCell guard(&task);
  DagRecorder rec;
  {
    ScopedOpContext ctx(PhaseCtx::Setup);
    OBS_OP_COUNT_N(FieldMul, 5);
  }
  rec.begin_post("cmt", 0, 0, false);  // the 5 muls belong to the role
  {
    ScopedOpContext ctx(PhaseCtx::Setup);
    OBS_OP_COUNT_N(CodecEncode, 2);
  }
  rec.end_post("msg", 10, 1, true);  // the 2 encodes belong to the post
  {
    ScopedOpContext ctx(PhaseCtx::Online);
    OBS_OP_COUNT_N(FieldInv, 3);
  }
  rec.finalize();  // the 3 inversions land in the residue

  const unsigned setup = static_cast<unsigned>(PhaseCtx::Setup);
  const unsigned online = static_cast<unsigned>(PhaseCtx::Online);
  const DagNode* role = nullptr;
  const DagNode* post = nullptr;
  const DagNode* residue = nullptr;
  for (const DagNode& n : rec.nodes()) {
    if (n.kind == NodeKind::Role) role = &n;
    if (n.kind == NodeKind::Post) post = &n;
    if (n.kind == NodeKind::Residue) residue = &n;
  }
  ASSERT_NE(role, nullptr);
  ASSERT_NE(post, nullptr);
  ASSERT_NE(residue, nullptr);
  EXPECT_EQ(role->counts.v[setup][static_cast<unsigned>(Op::FieldMul)], 5u);
  EXPECT_EQ(post->counts.v[setup][static_cast<unsigned>(Op::CodecEncode)], 2u);
  EXPECT_EQ(residue->counts.v[online][static_cast<unsigned>(Op::FieldInv)], 3u);

  // The reconciliation identity, exactly.
  EXPECT_TRUE(rec.recorded_total() == rec.profiler_delta());
  EXPECT_EQ(rec.recorded_total().total(), 10u);
}

// The audit point finalizes and prices ours' DAG before the CDN run starts,
// so the DAG holds every op of ours' run and none of the CDN's: its
// op_total is exactly the profile total minus the profile's by_phase.cdn
// counts.  A DAG finalized after the CDN run would fold the CDN's ops into
// its Residue node and break the identity.
TEST_F(DagTest, AuditPointDagReconcilesWithProfileMinusCdn) {
  const perf::AuditPoint pt = perf::run_audit_point(4);
  const json::Value counts = json::parse(pt.counts_json);
  const json::Value* ops = counts.find("ops");
  ASSERT_NE(ops, nullptr);
  std::uint64_t total = 0;
  std::uint64_t cdn = 0;
  for (const auto& [name, op] : ops->members) {
    total += op.u64_or("count", 0);
    const json::Value* by_cdn = op.find("by_phase")->find("cdn");
    if (by_cdn != nullptr) cdn += by_cdn->u64_or("count", 0);
  }
  EXPECT_GT(cdn, 0u);
  EXPECT_EQ(json::parse(pt.dag_json).u64_or("op_total", 0), total - cdn);
}

// ---------------------------------------------------------------------------
// Property: over seeded chaos schedules (drops, duplicates, corruption,
// truncation, lateness, silence, churn) the reconstructed DAG always
// validates — no undelivered post ever grows a consumer edge — and the node
// counts still reconcile exactly with the profiler.

TEST_F(DagTest, ChaosSchedulesNeverDangleConsumeEdges) {
  struct Case {
    double drop, dup, flip, trunc, late;
    unsigned silence;
    double churn;
  };
  const Case cases[] = {
      {0, 0, 0, 0, 0, 0, 0},          // clean baseline
      {0.15, 0, 0, 0, 0, 0, 0},       // drops only
      {0, 0.25, 0, 0, 0, 0, 0},       // duplicates only
      {0.1, 0.15, 0.05, 0.05, 0.1, 0, 0},  // everything at once
      {0.05, 0.1, 0, 0, 0, 1, 0.1},   // wire faults + silence + churn
  };
  const unsigned n = 4;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Case& cs : cases) {
      profiler().reset();
      auto params = ProtocolParams::for_gap(n, 0.25, 128);
      params.validate();
      Circuit c = wide_mul_circuit(8);
      net::NetConfig cfg;
      cfg.faults.drop_prob = cs.drop;
      cfg.faults.seed = seed;
      cfg.wire_faults.duplicate_prob = cs.dup;
      cfg.wire_faults.bitflip_prob = cs.flip;
      cfg.wire_faults.truncate_prob = cs.trunc;
      cfg.wire_faults.late_prob = cs.late;
      cfg.wire_faults.seed = seed + 17;
      cfg.faults.silence_per_committee = cs.silence;
      if (cs.churn > 0) {
        cfg.churn.leave_prob = cs.churn;
        cfg.churn.seed = seed;
      }
      Ledger ledger;
      net::NetBulletin board(ledger, cfg);
      YosoMpc mpc(params, c, AdversaryPlan::honest(n), 7000 + seed, &board);
      Rng rng(seed);
      std::vector<std::vector<mpz_class>> inputs(c.num_clients());
      for (const auto& g : c.gates()) {
        if (g.kind == GateKind::Input) {
          inputs[g.client].push_back(
              mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 16))));
        }
      }
      bool completed = true;
      try {
        mpc.run(inputs);
      } catch (const ProtocolAbort&) {
        completed = false;  // aborted runs still yield a valid prefix DAG
      }
      const DagRecorder& rec = board.dag();
      std::string err;
      EXPECT_TRUE(rec.validate(&err))
          << "seed=" << seed << " drop=" << cs.drop << " dup=" << cs.dup
          << " completed=" << completed << ": " << err;
      EXPECT_TRUE(rec.recorded_total() == rec.profiler_delta())
          << "counts drifted at seed=" << seed << " drop=" << cs.drop;
      EXPECT_FALSE(rec.nodes().empty());
      // Spot-check the leaf rule directly, independent of validate().
      for (const DagNode& node : rec.nodes()) {
        for (std::uint32_t p : node.preds) {
          const DagNode& pred = rec.nodes()[p];
          if (pred.kind == NodeKind::Post) {
            EXPECT_TRUE(pred.delivered)
                << "node " << node.id << " consumes undelivered post " << p;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Analyzer: synthetic DAGs with known work/span/forecast values.  Weights
// are driven through a coefficient table pricing exactly one op at 1us, so
// work == count.

CostCoeffs unit_coeffs() {
  CostCoeffs c;
  c.us_per_op[static_cast<unsigned>(Op::FieldMul)] = 1.0;
  return c;
}

DagNode unit_node(std::uint32_t id, std::uint64_t weight, std::vector<std::uint32_t> preds,
                  std::uint8_t phase = 1) {
  DagNode n;
  n.id = id;
  n.kind = NodeKind::Role;
  n.phase = phase;
  n.actor = "synthetic";
  n.counts.v[static_cast<unsigned>(PhaseCtx::Offline)][static_cast<unsigned>(Op::FieldMul)] =
      weight;
  std::sort(preds.begin(), preds.end());
  n.preds = std::move(preds);
  return n;
}

TEST(CritpathTest, ChainHasParallelismOneAndFlatForecast) {
  std::vector<DagNode> nodes;
  for (std::uint32_t i = 0; i < 10; ++i) {
    nodes.push_back(unit_node(i, 1, i == 0 ? std::vector<std::uint32_t>{}
                                           : std::vector<std::uint32_t>{i - 1}));
  }
  const CritReport r = analyze(nodes, unit_coeffs());
  EXPECT_DOUBLE_EQ(r.total.work, 10.0);
  EXPECT_DOUBLE_EQ(r.total.span, 10.0);
  EXPECT_DOUBLE_EQ(r.total.parallelism(), 1.0);
  EXPECT_EQ(r.critical_path.size(), 10u);
  for (const ForecastPoint& f : r.forecast) {
    EXPECT_DOUBLE_EQ(f.makespan, 10.0) << "k=" << f.k;
    EXPECT_DOUBLE_EQ(f.speedup, 1.0) << "k=" << f.k;
  }
}

TEST(CritpathTest, FanOutReachesKnownSpeedups) {
  // root(1) -> 8 parallel children(1 each) -> sink(1): work 10, span 3.
  std::vector<DagNode> nodes;
  nodes.push_back(unit_node(0, 1, {}));
  std::vector<std::uint32_t> mids;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    nodes.push_back(unit_node(i, 1, {0}));
    mids.push_back(i);
  }
  nodes.push_back(unit_node(9, 1, mids));
  const CritReport r = analyze(nodes, unit_coeffs());
  EXPECT_DOUBLE_EQ(r.total.work, 10.0);
  EXPECT_DOUBLE_EQ(r.total.span, 3.0);
  std::map<unsigned, double> makespan;
  for (const ForecastPoint& f : r.forecast) makespan[f.k] = f.makespan;
  // k workers finish the 8-wide middle layer in ceil(8/k) steps.
  EXPECT_DOUBLE_EQ(makespan[1], 10.0);
  EXPECT_DOUBLE_EQ(makespan[2], 6.0);
  EXPECT_DOUBLE_EQ(makespan[4], 4.0);
  EXPECT_DOUBLE_EQ(makespan[8], 3.0);
  EXPECT_DOUBLE_EQ(makespan[16], 3.0);  // span floor: no benefit past width
}

// Random forward DAGs: the forecast contract (monotone, <= k, <= the
// parallelism ceiling, k=1 == work) and schedule validity hold on any
// topology, not just the hand-built ones.
TEST(CritpathTest, RandomDagsSatisfyForecastAndScheduleInvariants) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(900 + seed);
    const std::uint32_t count = 20 + static_cast<std::uint32_t>(rng.u64_below(30));
    std::vector<DagNode> nodes;
    for (std::uint32_t id = 0; id < count; ++id) {
      std::vector<std::uint32_t> preds;
      if (id > 0) {
        const unsigned deg = static_cast<unsigned>(rng.u64_below(3));
        for (unsigned d = 0; d < deg; ++d) {
          const std::uint32_t p = static_cast<std::uint32_t>(rng.u64_below(id));
          if (std::find(preds.begin(), preds.end(), p) == preds.end()) preds.push_back(p);
        }
      }
      nodes.push_back(unit_node(id, 1 + rng.u64_below(20), std::move(preds)));
    }
    const CritReport r = analyze(nodes, unit_coeffs());
    EXPECT_GT(r.total.work, 0.0);
    EXPECT_GE(r.total.work, r.total.span);

    double prev = 0;
    for (const ForecastPoint& f : r.forecast) {
      EXPECT_GE(f.speedup, prev - 1e-9) << "seed=" << seed << " k=" << f.k;
      EXPECT_LE(f.speedup, static_cast<double>(f.k) + 1e-9) << "seed=" << seed;
      EXPECT_LE(f.speedup, r.total.parallelism() + 1e-9) << "seed=" << seed;
      if (f.k == 1) {
        EXPECT_DOUBLE_EQ(f.makespan, r.total.work);
      }
      EXPECT_GE(f.makespan, r.total.span - 1e-9) << "seed=" << seed;
      prev = f.speedup;
    }

    // Schedule validity at k=3: precedence respected, workers sequential.
    std::vector<double> work(nodes.size(), 0);
    for (const DagNode& n : nodes) work[n.id] = node_work_us(n, unit_coeffs());
    const Schedule sched = list_schedule(nodes, work, 3);
    ASSERT_EQ(sched.tasks.size(), nodes.size());
    std::map<std::uint32_t, const ScheduledTask*> by_node;
    std::map<unsigned, std::vector<const ScheduledTask*>> by_worker;
    double max_end = 0;
    for (const ScheduledTask& t : sched.tasks) {
      by_node[t.node] = &t;
      by_worker[t.worker].push_back(&t);
      EXPECT_DOUBLE_EQ(t.end - t.start, work[t.node]);
      if (t.end > max_end) max_end = t.end;
    }
    EXPECT_DOUBLE_EQ(max_end, sched.makespan);
    for (const DagNode& n : nodes) {
      for (std::uint32_t p : n.preds) {
        EXPECT_GE(by_node[n.id]->start, by_node[p]->end - 1e-9)
            << "node " << n.id << " started before pred " << p << " finished";
      }
    }
    for (auto& [worker, tasks] : by_worker) {
      std::sort(tasks.begin(), tasks.end(),
                [](const ScheduledTask* a, const ScheduledTask* b) { return a->start < b->start; });
      for (std::size_t i = 1; i < tasks.size(); ++i) {
        EXPECT_GE(tasks[i]->start, tasks[i - 1]->end - 1e-9)
            << "worker " << worker << " overlaps";
      }
    }
  }
}

// Per-phase decomposition: phase subgraph work sums to the total, and each
// phase span is at most the end-to-end span.
TEST(CritpathTest, PhaseDecompositionIsConsistent) {
  std::vector<DagNode> nodes;
  nodes.push_back(unit_node(0, 4, {}, 0));
  nodes.push_back(unit_node(1, 6, {0}, 1));
  nodes.push_back(unit_node(2, 2, {0}, 1));
  nodes.push_back(unit_node(3, 5, {1, 2}, 2));
  const CritReport r = analyze(nodes, unit_coeffs());
  EXPECT_DOUBLE_EQ(r.phases[0].work + r.phases[1].work + r.phases[2].work, r.total.work);
  EXPECT_DOUBLE_EQ(r.phases[0].work, 4.0);
  EXPECT_DOUBLE_EQ(r.phases[1].work, 8.0);
  EXPECT_DOUBLE_EQ(r.phases[1].span, 6.0);  // 2 and 3 are parallel
  EXPECT_DOUBLE_EQ(r.phases[2].work, 5.0);
  for (const PhaseCrit& p : r.phases) EXPECT_LE(p.span, r.total.span);
  EXPECT_DOUBLE_EQ(r.total.span, 15.0);  // 1 -> 2 -> 4
}

// ---------------------------------------------------------------------------
// End-to-end determinism: two same-seed protocol runs produce byte-identical
// DAG reports, analyses, and Perfetto exports — enabled or muted.

std::string run_and_analyze(bool enable_obs, std::string* perfetto = nullptr) {
  set_enabled(enable_obs);
  profiler().reset();
  const unsigned n = 4;
  auto params = ProtocolParams::for_gap(n, 0.25, 128);
  params.validate();
  Circuit c = wide_mul_circuit(8);
  Ledger ledger;
  net::NetBulletin board(ledger, net::NetConfig{});
  YosoMpc mpc(params, c, AdversaryPlan::honest(n), 4242, &board);
  Rng rng(5);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 16))));
    }
  }
  mpc.run(inputs);
  const DagRecorder& rec = board.dag();
  const CritReport r = analyze(rec.nodes(), CostCoeffs::reference_table());
  if (perfetto != nullptr) {
    *perfetto = critpath_perfetto_json(rec.nodes(), CostCoeffs::reference_table(), 4);
  }
  set_enabled(true);
  return rec.report_json() + "\n" + crit_report_json(r);
}

TEST_F(DagTest, SameSeedRunsYieldByteIdenticalAnalysis) {
  std::string perfetto_a;
  std::string perfetto_b;
  const std::string a = run_and_analyze(true, &perfetto_a);
  const std::string b = run_and_analyze(true, &perfetto_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(perfetto_a, perfetto_b);
  // The muted run reconstructs the same DAG and prices it identically:
  // counts are unconditional, and the reference table needs no timings.
  const std::string muted = run_and_analyze(false);
  EXPECT_EQ(a, muted);
}

TEST_F(DagTest, PerfettoExportValidatesAsChromeTrace) {
  std::string perfetto;
  run_and_analyze(true, &perfetto);
  std::string err;
  EXPECT_TRUE(validate_trace_json(perfetto, &err)) << err;
}

}  // namespace
}  // namespace yoso::obs::dag
