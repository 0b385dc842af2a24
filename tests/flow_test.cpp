// Tests for the per-edge flow telemetry (src/obs/flow + src/obs/timeseries
// and their NetBulletin integration): the traffic matrix is a view of the
// happens-before DAG that must group posts by their first committee
// consumer, obey the conservation law (per phase, flow messages ==
// PhasePosts::delivered, with and without wire faults or fail-stop roles),
// and serialize a byte-identical "flow" report section for two identical
// seeded runs.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>

#include "circuit/workloads.hpp"
#include "common/json.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "obs/dag/dag.hpp"
#include "obs/flow.hpp"
#include "obs/report.hpp"
#include "obs/runtime.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace yoso {
namespace {

using net::NetBulletin;
using net::NetConfig;
using net::PhasePosts;
using net::WireFaultPlan;
using obs::FlowCell;
using obs::FlowKey;
using obs::FlowMatrix;

constexpr unsigned kBits = 192;

std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 16))));
    }
  }
  return inputs;
}

struct FlowRun {
  bool completed = false;
  std::string report;
  std::array<PhasePosts, 3> posts{};
  std::map<FlowKey, FlowCell> edges;
};

FlowRun run_flow(std::uint64_t seed, NetConfig cfg) {
  obs::set_enabled(true);
  obs::timeseries().reset();
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = inner_product_circuit(3);
  auto inputs = make_inputs(c, seed);
  Ledger ledger;
  NetBulletin board(ledger, std::move(cfg));
  YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), seed, &board);
  FlowRun r;
  try {
    mpc.run(inputs);
    r.completed = true;
  } catch (const ProtocolAbort&) {
    r.completed = false;
  }
  r.edges = board.flow().edges();
  for (Phase p : {Phase::Setup, Phase::Offline, Phase::Online}) {
    r.posts[static_cast<std::size_t>(p)] = board.phase_posts(p);
  }
  r.report = board.report_json();
  return r;
}

// Sum of edge messages per phase.
std::array<std::uint64_t, 3> flow_messages(const std::map<FlowKey, FlowCell>& edges) {
  std::array<std::uint64_t, 3> totals{};
  for (const auto& [key, cell] : edges) {
    totals[key.phase] += cell.messages;
  }
  return totals;
}

void expect_conserved(const FlowRun& run) {
  const auto totals = flow_messages(run.edges);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(totals[i], run.posts[i].delivered)
        << "phase " << i << ": flow matrix disagrees with board accounting";
  }
}

// --- FlowMatrix unit --------------------------------------------------------

// A hand-driven publish script: the view reads consumers off the DAG.
TEST(FlowMatrix, RecordResolveFinalize) {
  obs::dag::DagRecorder rec;
  rec.begin_post("alpha", 0, 1, false);
  rec.end_post("cat.a", 100, 4, true);
  rec.begin_post("alpha", 1, 1, false);
  rec.end_post("cat.a", 50, 2, true);
  rec.begin_post("alpha", 2, 1, false);
  rec.end_post("cat.a", 9, 9, false);  // dropped: never appears
  // A client reads alpha's posts before the next committee acts; it is not
  // their consumer.
  rec.begin_post("client", 0, 1, true);
  rec.end_post("cat.in", 5, 1, true);
  rec.begin_post("gamma", 0, 2, false);
  rec.end_post("cat.c", 7, 1, true);
  rec.begin_post("gamma", 0, 2, false);
  rec.end_post("cat.c", 10, 1, true);
  rec.begin_post("gamma", 1, 2, false);
  rec.end_post("cat.c", 3, 3, false);  // undelivered final post
  rec.finalize();
  std::string err;
  ASSERT_TRUE(rec.validate(&err)) << err;

  const FlowMatrix fm(rec.nodes());
  ASSERT_EQ(fm.edges().size(), 3u);
  const FlowCell& merged = fm.edges().at(FlowKey{"alpha", "gamma", "cat.a", 1});
  EXPECT_EQ(merged.messages, 2u);
  EXPECT_EQ(merged.bytes, 150u);
  EXPECT_EQ(merged.elements, 6u);
  EXPECT_EQ(fm.edges().at(FlowKey{"client", "gamma", "cat.in", 1}).messages, 1u);
  // gamma's posts have no committee after them: the observers take them.
  const FlowCell& last = fm.edges().at(FlowKey{"gamma", "observers", "cat.c", 2});
  EXPECT_EQ(last.messages, 2u);
  EXPECT_EQ(last.bytes, 17u);
  EXPECT_EQ(last.elements, 2u);

  // Without the trailing residue a consumer-less post still resolves to the
  // observers.
  obs::dag::DagRecorder open;
  open.begin_post("beta", 0, 0, false);
  open.end_post("cat.b", 1, 1, true);
  const FlowMatrix pending(open.nodes());
  ASSERT_EQ(pending.edges().size(), 1u);
  EXPECT_EQ(pending.edges().begin()->first.dst, "observers");
}

TEST(FlowMatrix, WriteJsonIsSortedAndInsertionOrderFree) {
  // The same two posts published in opposite orders.
  obs::dag::DagRecorder a, b;
  a.begin_post("x", 0, 0, true);
  a.end_post("c1", 1, 1, true);
  a.begin_post("a", 0, 1, true);
  a.end_post("c2", 2, 1, true);
  a.begin_post("dst", 0, 1, false);
  b.begin_post("a", 0, 1, true);
  b.end_post("c2", 2, 1, true);
  b.begin_post("x", 0, 0, true);
  b.end_post("c1", 1, 1, true);
  b.begin_post("dst", 0, 1, false);
  json::Writer wa, wb;
  FlowMatrix(a.nodes()).write_json(wa);
  FlowMatrix(b.nodes()).write_json(wb);
  const std::string ja = wa.take();
  EXPECT_EQ(ja, wb.take());
  const json::Value doc = json::parse(ja);
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.items.size(), 2u);
  EXPECT_EQ(doc.items[0].str_or("src", ""), "a");  // sorted by key, not insertion
  EXPECT_EQ(doc.items[1].str_or("src", ""), "x");
  EXPECT_EQ(doc.items[0].str_or("dst", ""), "dst");
  EXPECT_EQ(doc.items[0].u64_or("bytes", 0), 2u);
}

// --- NetBulletin integration ------------------------------------------------

TEST(FlowTest, ConservationOnCleanRun) {
  FlowRun run = run_flow(6101, NetConfig{});
  EXPECT_TRUE(run.completed);
  expect_conserved(run);
  EXPECT_FALSE(run.edges.empty());
  // Every edge has a concrete consumer: the next committee or "observers".
  // With publish-time resolution only the final committee's output posts
  // fall through to the observers fallback; every other edge names the
  // next acting committee in the handover chain.
  std::size_t observer_edges = 0;
  for (const auto& [key, cell] : run.edges) {
    EXPECT_FALSE(key.dst.empty());
    EXPECT_GT(cell.messages, 0u);
    if (key.dst == "observers") {
      ++observer_edges;
      EXPECT_EQ(key.category, "online.output.pdec") << key.src;
    }
  }
  EXPECT_GT(run.edges.size(), 2 * observer_edges);
  EXPECT_GT(run.posts[1].delivered, 0u);
  EXPECT_GT(run.posts[2].delivered, 0u);
}

TEST(FlowTest, ConservationUnderGracedWireFaults) {
  NetConfig cfg;
  cfg.wire_faults.duplicate_prob = 0.3;
  cfg.wire_faults.late_prob = 0.2;
  cfg.wire_faults.late_delay_s = 1.0;
  cfg.wire_faults.seed = 61;
  cfg.grace_window_s = 2.0;  // late posts still land
  FlowRun run = run_flow(6102, cfg);
  EXPECT_TRUE(run.completed);
  expect_conserved(run);
  // The injected duplicate copies were dropped by the board, so the flow
  // matrix must count strictly fewer messages than were originated.
  std::uint64_t originated = 0, flow_total = 0;
  for (const auto& pp : run.posts) originated += pp.originated;
  for (const auto& [key, cell] : run.edges) flow_total += cell.messages;
  EXPECT_LT(flow_total, originated);
}

TEST(FlowTest, ConservationUnderLossyWireFaults) {
  NetConfig lossy;
  lossy.wire_faults.bitflip_prob = 0.1;
  lossy.wire_faults.truncate_prob = 0.1;
  lossy.wire_faults.seed = 62;
  // Fail-stop roles never post at all: one silenced role per committee plus
  // capped churn.
  NetConfig failstop;
  failstop.faults.silence_per_committee = 1;
  failstop.churn.leave_prob = 0.1;
  failstop.churn.max_per_committee = 1;
  failstop.churn.seed = 63;
  // The run may abort (dropped posts starve the protocol); the board's
  // accounting and the flow matrix must stay conserved regardless.
  expect_conserved(run_flow(6103, lossy));
  const FlowRun silent = run_flow(6105, failstop);
  expect_conserved(silent);
  EXPECT_FALSE(silent.edges.empty());
}

TEST(FlowTest, ReportSectionIsDeterministicAndComplete) {
  FlowRun a = run_flow(6104, NetConfig{});
  FlowRun b = run_flow(6104, NetConfig{});

  const json::Value doc_a = json::parse(a.report);
  const json::Value doc_b = json::parse(b.report);

  // The grace window is stated even when zero.
  const json::Value* grace = doc_a.find("grace_window_s");
  ASSERT_NE(grace, nullptr);
  EXPECT_EQ(grace->number, 0.0);

  const json::Value* flow_a = doc_a.find("flow");
  const json::Value* flow_b = doc_b.find("flow");
  ASSERT_NE(flow_a, nullptr);
  ASSERT_NE(flow_b, nullptr);
  json::Writer wa, wb;
  json::write(wa, *flow_a);
  json::write(wb, *flow_b);
  EXPECT_EQ(wa.take(), wb.take()) << "identical seeded runs must serialize identically";

  const json::Value* edges = flow_a->find("edges");
  const json::Value* series = flow_a->find("series");
  ASSERT_NE(edges, nullptr);
  ASSERT_NE(series, nullptr);
  EXPECT_FALSE(edges->items.empty());
  // The virtual-clock series sampled at every round flush are in the report.
  EXPECT_NE(series->find("net.inflight.bytes"), nullptr);
  EXPECT_NE(series->find("net.queue.posts"), nullptr);
}

// --- Time series ------------------------------------------------------------

TEST(TimeSeries, HandlesStayValidAcrossReset) {
  obs::set_enabled(true);
  auto& reg = obs::timeseries();
  reg.reset();
  obs::Series& s = reg.series("test.series");
  s.sample(1.0, 2.0);
  ASSERT_EQ(s.points().size(), 1u);
  reg.reset();
  EXPECT_TRUE(s.points().empty());  // same handle, cleared points
  s.sample(2.0, 3.0);
  EXPECT_EQ(&reg.series("test.series"), &s);
  reg.reset();
}

TEST(TimeSeries, SamplingIsMutedWhenDisabled) {
  auto& reg = obs::timeseries();
  reg.reset();
  obs::set_enabled(false);
  reg.series("test.muted").sample(1.0, 1.0);
  EXPECT_TRUE(reg.series("test.muted").points().empty());
  obs::set_enabled(true);
  reg.series("test.muted").sample(1.0, 1.0);
  EXPECT_EQ(reg.series("test.muted").points().size(), 1u);
  reg.reset();
}

TEST(TimeSeries, ReportOmitsEmptySeriesAndSortsNames) {
  obs::set_enabled(true);
  auto& reg = obs::timeseries();
  reg.reset();
  reg.series("zz.series").sample(1.0, 10.0);
  reg.series("aa.series").sample(0.5, 5.0);
  reg.series("empty.series");  // no samples: omitted
  const json::Value doc = json::parse(reg.report_json());
  ASSERT_EQ(doc.members.size(), 2u);
  EXPECT_EQ(doc.members[0].first, "aa.series");
  EXPECT_EQ(doc.members[1].first, "zz.series");
  ASSERT_EQ(doc.members[0].second.items.size(), 1u);
  EXPECT_EQ(doc.members[0].second.items[0].items[1].number, 5.0);
  reg.reset();
}

TEST(TimeSeries, SeriesBecomeCounterTracksInChromeTrace) {
  obs::set_enabled(true);
  obs::tracer().reset();
  auto& reg = obs::timeseries();
  reg.reset();
  {
    obs::Span span("covering", "test");
    reg.series("test.counter").sample(0.25, 42.0);
  }
  const std::string trace = obs::tracer().chrome_trace_json();
  EXPECT_NE(trace.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(trace.find("test.counter"), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::validate_trace_json(trace, &error)) << error;
  const json::Value doc = json::parse(trace);
  bool found = false;
  for (const auto& ev : doc.find("traceEvents")->items) {
    if (ev.str_or("ph", "") == "C" && ev.str_or("name", "") == "test.counter") {
      found = true;
      EXPECT_EQ(ev.num_or("ts", 0), 0.25 * 1e6);  // virtual seconds -> us
      const json::Value* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->num_or("value", 0), 42.0);
    }
  }
  EXPECT_TRUE(found);
  reg.reset();
  obs::tracer().reset();
}

}  // namespace
}  // namespace yoso
