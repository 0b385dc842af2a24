// Tests for the bench-file plumbing behind the performance observatory:
// the one-key-per-line BENCH_comm.json merge now goes through the
// json::parse funnel (round trips exactly, rejects malformed files instead
// of silently clobbering them), and the one --sweep parser rejects malformed
// lists.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

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

// --- --sweep parsing --------------------------------------------------------

// `perf record --sweep` exits 2 with usage on a throw, before any protocol
// run starts.
TEST(ParseSweep, AcceptsListsAndRejectsBadTokens) {
  EXPECT_EQ(perf::parse_sweep("4,8"), (std::vector<unsigned>{4, 8}));
  EXPECT_EQ(perf::parse_sweep("12"), (std::vector<unsigned>{12}));
  EXPECT_THROW(perf::parse_sweep(""), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("abc"), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("4,,8"), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("0"), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("4,x"), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("4,"), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("4294967296"), std::invalid_argument);
}

// The token parser under parse_sweep and the numeric flags of trace, chaos
// and service; a nullopt makes the CLI print usage and exit 2 instead of
// running with a silently truncated value.
TEST(ParseSweep, ParseUintAcceptsDigitsWithinRange) {
  EXPECT_EQ(perf::parse_uint("0"), 0u);
  EXPECT_EQ(perf::parse_uint("42"), 42u);
  EXPECT_EQ(perf::parse_uint("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(perf::parse_uint("6", 1, 16), 6u);
  for (const char* bad : {"", "abc", "x", "4x", " 4", "4 ", "+4", "-4", "0x10", "1.5",
                          "18446744073709551616"}) {
    EXPECT_EQ(perf::parse_uint(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(perf::parse_uint("0", 1), std::nullopt);
  EXPECT_EQ(perf::parse_uint("4294967296", 0, UINT32_MAX), std::nullopt);
}

// The probability parser behind trace's --churn: a finite decimal in [0, 1],
// nothing else, so a typo cannot silently mean "no churn".
TEST(ParseSweep, ParseProbAcceptsFiniteDecimalsInUnitInterval) {
  EXPECT_EQ(perf::parse_prob("0"), 0.0);
  EXPECT_EQ(perf::parse_prob("1"), 1.0);
  EXPECT_EQ(perf::parse_prob("0.1"), 0.1);
  EXPECT_EQ(perf::parse_prob("1.0"), 1.0);
  EXPECT_EQ(perf::parse_prob(".25"), 0.25);
  for (const char* bad : {"", "abc", "0.1x", " 0.1", "0.1 ", "-0.5", "1.5", "1.0000001", "nan",
                          "NaN", "inf", "-inf", "+0.5", "0x0.8", "1e400"}) {
    EXPECT_EQ(perf::parse_prob(bad), std::nullopt) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace yoso
