// Tests for the bench-file plumbing behind the performance observatory:
// the one-key-per-line BENCH_comm.json merge now goes through the
// json::parse funnel (round trips exactly, rejects malformed files instead
// of silently clobbering them), baselines flatten to suffix-toleranced
// metric maps, and the one --sweep parser rejects malformed lists.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "perf/baseline.hpp"
#include "perf/benchfile.hpp"
#include "perf/sweep.hpp"

namespace yoso {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
}

// --- merge_bench_json -------------------------------------------------------

TEST(BenchJson, MergeCreatesAndKeepsOneKeyPerLine) {
  const std::string path = temp_path("bench_create.json");
  spit(path, "");
  perf::merge_bench_json(path, "alpha", R"({"x":1})");
  perf::merge_bench_json(path, "beta", "[1,2,3]");
  const std::string text = slurp(path);
  EXPECT_EQ(text, "{\n\"alpha\": {\"x\":1},\n\"beta\": [1,2,3]\n}\n");

  // Replacing a key keeps the others and the layout.
  perf::merge_bench_json(path, "alpha", R"({"x":2})");
  EXPECT_EQ(slurp(path), "{\n\"alpha\": {\"x\":2},\n\"beta\": [1,2,3]\n}\n");
}

TEST(BenchJson, RoundTripsNestedValuesExactly) {
  const std::string path = temp_path("bench_roundtrip.json");
  spit(path, "");
  const std::string value =
      R"({"n4":{"ours":{"online":{"total":{"messages":18446744073709551615,"bytes":123}}},"s":"a\"b"}})";
  perf::merge_bench_json(path, "online_comm", value);
  auto entries = perf::read_bench_entries(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, "online_comm");
  // Integers survive exactly (u64 max would be mangled by a double round
  // trip) and escapes re-serialize canonically.
  EXPECT_EQ(entries[0].second, value);

  // A second merge cycle produces a byte-identical file.
  const std::string before = slurp(path);
  perf::merge_bench_json(path, "online_comm", entries[0].second);
  EXPECT_EQ(slurp(path), before);
}

TEST(BenchJson, RejectsMalformedFileAndValue) {
  const std::string path = temp_path("bench_malformed.json");
  spit(path, "{\"good\": 1\n");  // truncated object
  EXPECT_THROW(perf::merge_bench_json(path, "k", "1"), std::invalid_argument);
  // The malformed file was not clobbered by the failed merge.
  EXPECT_EQ(slurp(path), "{\"good\": 1\n");

  spit(path, "{}\n");
  EXPECT_THROW(perf::merge_bench_json(path, "k", "{broken"), std::invalid_argument);
  EXPECT_THROW(perf::merge_bench_json(path, "k", ""), std::invalid_argument);
}

TEST(BenchJson, MissingFileReadsEmpty) {
  EXPECT_TRUE(perf::read_bench_entries(temp_path("does_not_exist.json")).empty());
}

// --- baseline flatten + check -----------------------------------------------

TEST(Baseline, FlattensNumericLeavesAndSkipsCategories) {
  const json::Value doc = json::parse(
      R"({"online_comm":{"n4":{"ours":{"online":{"total":{"messages":10,"bytes":999},)"
      R"("categories":{"online.mult":{"bytes":1}}}},"label":"text"}},"ignored":{"x":1}})");
  auto metrics = perf::flatten_metrics(doc, {"online_comm"});
  EXPECT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics.at("online_comm.n4.ours.online.total.messages"), 10);
  EXPECT_EQ(metrics.at("online_comm.n4.ours.online.total.bytes"), 999);
  EXPECT_EQ(metrics.count("online_comm.n4.ours.online.categories.online.mult.bytes"), 0u);
}

TEST(Baseline, ToleranceBySuffix) {
  EXPECT_DOUBLE_EQ(perf::tolerance_for("a.b.bytes"), 0.10);
  EXPECT_DOUBLE_EQ(perf::tolerance_for("a.b.messages"), 0.0);
  EXPECT_DOUBLE_EQ(perf::tolerance_for("a.b.elements"), 0.0);
  EXPECT_DOUBLE_EQ(perf::tolerance_for("scaling_audit.n4.k"), 0.0);
  // Op call counts are exact, and so is any measured-time leaf: wall time
  // is not a baseline metric, so no suffix earns it a band.
  EXPECT_DOUBLE_EQ(perf::tolerance_for("profile.n4.counts.ops.ct.powm_sec.count"), 0.0);
  EXPECT_DOUBLE_EQ(perf::tolerance_for("profile.n4.counts.ops.ct.powm_sec.self_us"), 0.0);
}

// The profile point payload: the "ops" totals flatten (counts exact) while
// the per-phase split is skipped like "categories", so the profile.* keys
// stay at one total per primitive.
TEST(Baseline, FlattensOpCostsButSkipsByPhase) {
  const json::Value doc = json::parse(
      R"({"profile":{"n4":{"k":1,"counts":{"ops":{"ct.powm_sec":{"count":96,)"
      R"("by_phase":{"setup":{"count":40},"online":{"count":56}}}}}}}})");
  auto metrics = perf::flatten_metrics(doc, {"profile"});
  EXPECT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics.at("profile.n4.k"), 1);
  EXPECT_EQ(metrics.at("profile.n4.counts.ops.ct.powm_sec.count"), 96);
  for (const auto& [key, value] : metrics) {
    EXPECT_EQ(key.find("by_phase"), std::string::npos) << key;
  }
}

TEST(Baseline, CheckFlagsRegressionsMissingAndPasses) {
  std::map<std::string, double> baseline = {
      {"x.bytes", 1000}, {"x.messages", 10}, {"gone.elements", 5}};
  std::map<std::string, double> current = {
      {"x.bytes", 1099}, {"x.messages", 10}, {"extra.bytes", 1}};
  perf::CheckResult ok = perf::check_against_baseline(
      {{"x.bytes", 1000}, {"x.messages", 10}}, current);
  EXPECT_TRUE(ok.pass());
  EXPECT_EQ(ok.checked, 2u);

  // +25% bytes is outside the +-10% band; a missing metric always fails.
  current["x.bytes"] = 1250;
  perf::CheckResult bad = perf::check_against_baseline(baseline, current);
  EXPECT_FALSE(bad.pass());
  ASSERT_EQ(bad.mismatches.size(), 2u);
  EXPECT_EQ(bad.mismatches[0].metric, "gone.elements");
  EXPECT_TRUE(bad.mismatches[0].missing);
  EXPECT_EQ(bad.mismatches[1].metric, "x.bytes");
  EXPECT_DOUBLE_EQ(bad.mismatches[1].tolerance, 0.10);

  // An exact metric fails on any drift, even a tiny one.
  current["x.bytes"] = 1000;
  current["x.messages"] = 11;
  EXPECT_FALSE(perf::check_against_baseline(baseline, current).pass());

  // An empty baseline never passes (it checks nothing).
  EXPECT_FALSE(perf::check_against_baseline({}, current).pass());
}

TEST(Baseline, ParsesFlatObjectIgnoringNonNumbers) {
  auto metrics =
      perf::parse_baseline(json::parse(R"({"a.bytes":10,"note":"text","b.messages":3})"));
  EXPECT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics.at("a.bytes"), 10);
}

// --- --sweep parsing --------------------------------------------------------

// perf record, bench_profile and bench_critpath share this parser; each
// exits 2 with usage on a throw, before any protocol run starts.
TEST(ParseSweep, AcceptsListsAndRejectsBadTokens) {
  EXPECT_EQ(perf::parse_sweep("4,8"), (std::vector<unsigned>{4, 8}));
  EXPECT_EQ(perf::parse_sweep("12"), (std::vector<unsigned>{12}));
  EXPECT_THROW(perf::parse_sweep(""), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("abc"), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("4,,8"), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("0"), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("4,x"), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("4,"), std::invalid_argument);
}

}  // namespace
}  // namespace yoso
