// Fixture tests for the secret-hygiene linter (tools/lint).  Each negative
// fixture is a miniature tree that must trip exactly its target rule; the
// clean fixtures and the real repository must pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "lint_core.hpp"

namespace yoso::lint {
namespace {

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(LINT_FIXTURE_DIR) / name;
}

std::vector<std::string> rules_fired(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const auto& f : findings) rules.push_back(f.rule);
  std::sort(rules.begin(), rules.end());
  rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
  return rules;
}

TEST(LintFixtures, RawPowmFires) {
  auto findings = lint_tree(fixture("raw_powm"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"raw-powm"});
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].file, "src/bad.cpp");
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintFixtures, RawInvertFires) {
  auto findings = lint_tree(fixture("raw_invert"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"raw-invert"});
}

TEST(LintFixtures, MemcmpFires) {
  auto findings = lint_tree(fixture("memcmp"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"memcmp"});
}

TEST(LintFixtures, UnwhitelistedDeclassifyFires) {
  auto findings = lint_tree(fixture("declassify"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"declassify"});
}

TEST(LintFixtures, DeclassifyWhitelistSuppresses) {
  std::string err;
  Whitelist wl = Whitelist::parse("declassify src/bad.cpp -- fixture exemption\n", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(lint_tree(fixture("declassify"), wl).empty());
}

TEST(LintFixtures, NondeterminismFiresInConsensusScope) {
  auto findings = lint_tree(fixture("nondet"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"nondeterminism"});
  // unordered_map, time( and rand( each fire on their own line.
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintFixtures, BannedIncludeFires) {
  auto findings = lint_tree(fixture("banned_include"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"banned-include"});
  EXPECT_EQ(findings.size(), 2u);  // <random> and <unordered_map>
}

TEST(LintFixtures, CodecSwitchFlagsMissingCase) {
  auto findings = lint_tree(fixture("codec_switch"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"codec-switch"});
  // kTagBeta missing from both handler files.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("kTagBeta"), std::string::npos);
}

TEST(LintFixtures, RawJsonFiresOutsideTheWriterFunnel) {
  auto findings = lint_tree(fixture("raw_json"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"raw-json"});
  // src/common/json.cpp is exempt: only src/bad.cpp fires.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/bad.cpp");
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintFixtures, RawJsonWhitelistSuppresses) {
  std::string err;
  Whitelist wl = Whitelist::parse("raw-json src/bad.cpp -- fixture exemption\n", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(lint_tree(fixture("raw_json"), wl).empty());
}

TEST(LintFixtures, RawJsonIgnoresComments) {
  // A commented-out `\"key\":` must not fire; only live string literals do.
  auto findings = lint_file("src/x.cpp", "// return \"{\\\"key\\\":1}\";\n", Whitelist());
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintFixtures, CommentsAndStringsAreIgnored) {
  EXPECT_TRUE(lint_tree(fixture("comment_only"), Whitelist()).empty());
}

TEST(LintFixtures, PrgDisciplineFires) {
  auto findings = lint_tree(fixture("prg_discipline"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"prg-discipline"});
  // Rng ctor and gmp_randinit fire; the prg::derive_prg line is blessed.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_EQ(findings[1].line, 6u);
}

TEST(LintFixtures, PrgDisciplineWhitelistSuppresses) {
  std::string err;
  Whitelist wl = Whitelist::parse("prg-discipline src/bad.cpp -- fixture exemption\n", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(lint_tree(fixture("prg_discipline"), wl).empty());
}

TEST(LintFixtures, MutableGlobalFires) {
  auto findings = lint_tree(fixture("mutable_global"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"mutable-global"});
  // Only the mutable static fires; const/constexpr/function lines are clean.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(LintFixtures, OneShotFires) {
  auto findings = lint_tree(fixture("one_shot"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"one-shot"});
  ASSERT_EQ(findings.size(), 3u);
  // (a) the duplicate (committee, label) publish, the doubled round …
  EXPECT_EQ(findings[0].file, "src/mpc/bad.cpp");
  EXPECT_EQ(findings[0].line, 7u);
  EXPECT_NE(findings[0].message.find("mult-share"), std::string::npos);
  EXPECT_EQ(findings[1].file, "src/mpc/bad.cpp");
  EXPECT_EQ(findings[1].line, 14u);
  EXPECT_NE(findings[1].message.find("pdec"), std::string::npos);
  // … and (b) the Secret<…> member retained in a role-scope header.
  EXPECT_EQ(findings[2].file, "src/mpc/bad_state.hpp");
  EXPECT_EQ(findings[2].line, 9u);
}

TEST(LintFixtures, ObsHotLoopFires) {
  auto findings = lint_tree(fixture("obs_hot_loop"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"obs-hot-loop"});
  // The raw OBS_COUNT / OBS_HIST sites fire; the OBS_OP profiler seam is
  // clean, and the same macro outside src/crypto|paillier (src/obs/ok.cpp)
  // is out of the rule's path scope.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/paillier/bad.cpp");
  EXPECT_EQ(findings[0].line, 5u);
  EXPECT_EQ(findings[1].line, 7u);
}

TEST(LintFixtures, ObsHotLoopWhitelistSuppresses) {
  std::string err;
  Whitelist wl =
      Whitelist::parse("obs-hot-loop src/paillier/bad.cpp -- fixture exemption\n", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(lint_tree(fixture("obs_hot_loop"), wl).empty());
}

TEST(LintFixtures, TsanSuppressionWithoutReasonFires) {
  auto findings = lint_tree(fixture("tsan_reason"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"tsan-suppression"});
  // The reasoned entry is clean; the bare one fires.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "tools/tsan/suppressions.txt");
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintFixtures, ServiceScopeIsConsensusVisible) {
  // src/service joined the consensus scope: scheduling decisions replicate
  // across workers, so the nondeterminism rule applies there too.
  auto findings = lint_tree(fixture("service_scope"), Whitelist());
  EXPECT_EQ(rules_fired(findings), std::vector<std::string>{"nondeterminism"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/service/bad.cpp");
}

TEST(LintStrip, DigitSeparatorsAreNotCharLiterals) {
  // 10'000 must not open a char-literal state that swallows the ';' and
  // leaves a later comment visible to the token rules.
  auto findings = lint_file("src/yoso/x.cpp",
                            "int clients = 10'000;\n"
                            "// the batch's submit time (lets the pool warm)\n",
                            Whitelist());
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintJson, FindingsJsonlMatchesFindings) {
  auto findings = lint_tree(fixture("raw_powm"), Whitelist());
  ASSERT_FALSE(findings.empty());
  const std::string jsonl = findings_jsonl(findings);
  // One object per finding, one per line.
  EXPECT_EQ(static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n')),
            findings.size());
  EXPECT_EQ(jsonl.substr(0, jsonl.find('\n')),
            "{\"rule\":\"raw-powm\",\"file\":\"src/bad.cpp\",\"line\":4,"
            "\"message\":\"raw GMP exponentiation; use powm_sec/powm_pub from "
            "common/ct_math.hpp\"}");
  EXPECT_EQ(findings_jsonl({}), "");
}

TEST(LintFixtures, CleanTreeIsClean) {
  EXPECT_TRUE(lint_tree(fixture("clean"), Whitelist()).empty());
}

TEST(LintWhitelist, RejectsEntryWithoutReason) {
  std::string err;
  Whitelist::parse("raw-powm src/foo.cpp\n", &err);
  EXPECT_FALSE(err.empty());
  Whitelist::parse("raw-powm src/foo.cpp --\n", &err);
  EXPECT_FALSE(err.empty());
}

TEST(LintWhitelist, ParsesCommentsAndEntries) {
  std::string err;
  Whitelist wl = Whitelist::parse("# header\n\nraw-powm src/a.cpp -- funnel\n", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(wl.size(), 1u);
  EXPECT_TRUE(wl.allows("raw-powm", "src/a.cpp"));
  EXPECT_FALSE(wl.allows("raw-powm", "src/b.cpp"));
  EXPECT_FALSE(wl.allows("raw-invert", "src/a.cpp"));
}

TEST(LintStrip, PreservesLineNumbers) {
  std::string s = "a /* x\n y */ b\n// c\nd \"mpz_powm\" e\n";
  std::string stripped = strip_comments_and_strings(s);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("mpz_powm"), std::string::npos);
}

// The acceptance criterion: the real tree lints clean under the real
// whitelist.  Mirrors the `repo_lint` ctest, but in-process so a failure
// prints the findings inline.
TEST(LintRepo, RealTreeIsClean) {
  const std::filesystem::path root(LINT_REPO_ROOT);
  Whitelist wl = Whitelist::load(root / "tools" / "lint" / "whitelist.txt");
  auto findings = lint_tree(root, wl);
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

}  // namespace
}  // namespace yoso::lint
