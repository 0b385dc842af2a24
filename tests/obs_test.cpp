// Tests for the src/obs tracing & metrics layer: span nesting, dual
// (virtual vs wall) timestamps, deterministic Chrome-trace export,
// histogram bucketing, and the unified run-report schema.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "mpc/failure.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/runtime.hpp"
#include "obs/trace.hpp"
#include "yoso/bulletin.hpp"
#include "yoso/ledger.hpp"

namespace yoso::obs {
namespace {

// Each test runs against the process-global tracer/metrics; reset both and
// force-enable recording so test order cannot matter.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    set_enabled(true);
    tracer().reset();
    tracer().detach_virtual_clock(this);
    metrics().reset();
  }
  void TearDown() override {
    tracer().detach_virtual_clock(this);
    set_enabled(true);
  }
};

TEST_F(ObsTest, SpansNestByOpenStack) {
  {
    Span outer("outer", "test");
    {
      Span inner("inner", "test");
      Span("instant", "test").attr("k", "v");
    }
  }
  const auto& spans = tracer().spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "instant");
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[2].depth, 2u);
  for (const auto& s : spans) EXPECT_FALSE(s.open);
  EXPECT_EQ(tracer().open_depth(), 0u);
}

TEST_F(ObsTest, EndingAnOuterSpanUnwindsOpenInnerSpans) {
  std::uint32_t outer = tracer().begin_span("outer", "test");
  tracer().begin_span("inner", "test");
  tracer().end_span(outer);  // e.g. an exception unwound past `inner`
  const auto& spans = tracer().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_FALSE(spans[0].open);
  EXPECT_FALSE(spans[1].open);
  EXPECT_EQ(tracer().open_depth(), 0u);
}

TEST_F(ObsTest, ExplicitEndMakesTheDestructorANoOp) {
  Span s("early", "test");
  s.end();
  s.end();  // idempotent
  ASSERT_EQ(tracer().spans().size(), 1u);
  EXPECT_FALSE(tracer().spans()[0].open);
}

TEST_F(ObsTest, VirtualClockDrivesVirtTimestampsWallAlwaysRecorded) {
  double now = 1.5;
  tracer().attach_virtual_clock(this, [&now] { return now; });
  std::uint32_t id = tracer().begin_span("s", "test");
  now = 2.0;
  tracer().end_span(id);
  const SpanRecord& rec = tracer().spans()[0];
  EXPECT_DOUBLE_EQ(rec.virt_start, 1.5);
  EXPECT_DOUBLE_EQ(rec.virt_end, 2.0);
}

// No clock is attached, so there is no time to export: the span still
// appears, pinned at ts = dur = 0, and the export stays a pure function of
// what was recorded.
TEST_F(ObsTest, WithoutVirtualClockVirtStaysUnset) {
  std::uint32_t id = tracer().begin_span("s", "test");
  tracer().end_span(id);
  const SpanRecord& rec = tracer().spans()[0];
  EXPECT_LT(rec.virt_start, 0);
  EXPECT_LT(rec.virt_end, 0);
  const json::Value doc = json::parse(tracer().chrome_trace_json());
  const json::Value& ev = doc.find("traceEvents")->items[1];
  EXPECT_EQ(ev.str_or("name", ""), "s");
  EXPECT_EQ(ev.num_or("ts", -1), 0.0);
  EXPECT_EQ(ev.num_or("dur", -1), 0.0);
}

TEST_F(ObsTest, DetachIsKeyedByOwnerSoStaleOwnersCannotClobber) {
  int other = 0;
  tracer().attach_virtual_clock(this, [] { return 1.0; });
  tracer().attach_virtual_clock(&other, [] { return 2.0; });
  tracer().detach_virtual_clock(this);  // stale owner: must be a no-op
  EXPECT_TRUE(tracer().has_virtual_clock());
  tracer().detach_virtual_clock(&other);
  EXPECT_FALSE(tracer().has_virtual_clock());
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  set_enabled(false);
  {
    Span s("muted", "test");
    s.attr("k", 1);
  }
  EXPECT_TRUE(tracer().spans().empty());
  set_enabled(true);
}

TEST_F(ObsTest, ChromeTraceRoundTripsThroughTheParser) {
  double now = 0.25;
  tracer().attach_virtual_clock(this, [&now] { return now; });
  std::uint32_t id = tracer().begin_span("phase.setup", "phase");
  tracer().attr(id, "committee", "setup.tkgen");
  tracer().attr_num(id, "n", 6);
  now = 0.75;
  tracer().end_span(id);

  const std::string text = tracer().chrome_trace_json();
  std::string error;
  EXPECT_TRUE(validate_trace_json(text, &error)) << error;

  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.str_or("displayTimeUnit", ""), "ms");
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 2u);  // process_name metadata + 1 span
  const json::Value& meta = events->items[0];
  EXPECT_EQ(meta.str_or("ph", ""), "M");
  const json::Value& ev = events->items[1];
  EXPECT_EQ(ev.str_or("ph", ""), "X");
  EXPECT_EQ(ev.str_or("name", ""), "phase.setup");
  EXPECT_EQ(ev.str_or("cat", ""), "phase");
  EXPECT_DOUBLE_EQ(ev.num_or("ts", -1), 0.25 * 1e6);   // virtual seconds -> us
  EXPECT_DOUBLE_EQ(ev.num_or("dur", -1), 0.5 * 1e6);
  const json::Value* args = ev.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->str_or("committee", ""), "setup.tkgen");
  EXPECT_DOUBLE_EQ(args->num_or("n", -1), 6);
}

TEST_F(ObsTest, ExportIsDeterministicUnderTheVirtualClock) {
  const auto record_once = [this] {
    tracer().reset();
    double now = 0;
    tracer().attach_virtual_clock(this, [&now] { return now; });
    for (int i = 0; i < 4; ++i) {
      std::uint32_t id = tracer().begin_span("step", "test");
      tracer().attr_num(id, "i", i);
      now += 0.125;
      tracer().end_span(id);
    }
    return tracer().chrome_trace_json();
  };
  EXPECT_EQ(record_once(), record_once());
}

TEST_F(ObsTest, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(validate_trace_json("not json", &error));
  EXPECT_FALSE(validate_trace_json("[]", &error));
  EXPECT_FALSE(validate_trace_json(R"({"traceEvents":1})", &error));
  EXPECT_FALSE(validate_trace_json(R"({"traceEvents":[{"ph":"X","pid":1,"tid":1}]})", &error));
  EXPECT_FALSE(validate_trace_json(
      R"({"traceEvents":[{"name":"s","ph":"Q","pid":1,"tid":1,"ts":0,"dur":0}]})", &error));
  EXPECT_FALSE(validate_trace_json(
      R"({"traceEvents":[{"name":"s","ph":"X","pid":1,"tid":1,"ts":-5,"dur":0}]})", &error));
  EXPECT_TRUE(validate_trace_json(
      R"({"traceEvents":[{"name":"s","ph":"X","pid":1,"tid":1,"ts":0,"dur":3.5}]})", &error))
      << error;
}

TEST_F(ObsTest, HistogramLog2Bucketing) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64);
  EXPECT_EQ(Histogram::bucket_max(0), 0u);
  EXPECT_EQ(Histogram::bucket_max(1), 1u);
  EXPECT_EQ(Histogram::bucket_max(11), 2047u);
  EXPECT_EQ(Histogram::bucket_max(64), ~std::uint64_t{0});

  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(900);
  h.observe(900);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1801u);
  EXPECT_EQ(h.max(), 900u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(10), 2u);
}

TEST_F(ObsTest, MetricsHandlesAreStableAndReportParses) {
  Counter& c = metrics().counter("test.counter");
  c.add(3);
  EXPECT_EQ(&c, &metrics().counter("test.counter"));
  EXPECT_EQ(c.value(), 3u);
  metrics().gauge("test.gauge").set(-7);
  metrics().histogram("test.hist").observe(100);

  const json::Value doc = json::parse(metrics().report_json());
  EXPECT_DOUBLE_EQ(doc.find("counters")->num_or("test.counter", -1), 3);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->num_or("test.gauge", 0), -7);
  const json::Value* hist = doc.find("histograms")->find("test.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->num_or("count", -1), 1);
  EXPECT_DOUBLE_EQ(hist->num_or("sum", -1), 100);

  metrics().reset();
  EXPECT_EQ(c.value(), 0u);

  set_enabled(false);
  c.add(5);
  EXPECT_EQ(c.value(), 0u);  // muted registry ignores updates
  set_enabled(true);
}

TEST_F(ObsTest, RunReportParsesWithAndWithoutFailure) {
  Ledger ledger;
  Bulletin board(ledger);
  board.publish_external("dealer", Phase::Setup, "setup.tpk", 64, 1);
  metrics().counter("paillier.enc").add(2);

  const json::Value plain = json::parse(run_report_json(board));
  ASSERT_NE(plain.find("board"), nullptr);
  ASSERT_NE(plain.find("metrics"), nullptr);
  EXPECT_EQ(plain.find("failure"), nullptr);
  EXPECT_DOUBLE_EQ(plain.find("metrics")->find("counters")->num_or("paillier.enc", -1), 2);

  FailureReport failure;
  failure.committee = "offline.mask \"L1\"";  // exercises escaping
  failure.gate = "offline.reenc.mask";
  failure.threshold = 3;
  failure.verified = 1;
  failure.missing = 2;
  const json::Value with = json::parse(run_report_json(board, &failure));
  const json::Value* f = with.find("failure");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->str_or("committee", ""), "offline.mask \"L1\"");
  EXPECT_DOUBLE_EQ(f->num_or("threshold", -1), 3);
  EXPECT_EQ(f->find("silence_decisive")->boolean, true);

  // The board section embeds the ledger report; both must stay parseable.
  const json::Value* board_doc = with.find("board");
  ASSERT_NE(board_doc->find("posts"), nullptr);
  ASSERT_NE(board_doc->find("ledger"), nullptr);
}

}  // namespace
}  // namespace yoso::obs
