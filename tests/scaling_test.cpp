// Tests for the scaling-law auditor (src/obs/scaling + src/perf/audit):
// the log-log fitter must recover synthetic O(1) / O(n) / O(n log n)
// exponents with honest confidence bands, the band check must be inclusive
// and reject out-of-band slopes, the headline 28x ratio must re-derive
// from measured-style coefficients, and a synthetic sweep that violates
// the paper's claim must fail the audit.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "obs/scaling.hpp"
#include "perf/audit.hpp"

namespace yoso {
namespace {

using obs::check_exponent;
using obs::ExponentCheck;
using obs::fit_power_law;
using obs::PowerFit;
using obs::SpeedupDerivation;

// --- fit_power_law ----------------------------------------------------------

TEST(PowerFit, RecoversPureQuadratic) {
  std::vector<double> x = {2, 4, 8, 16, 32};
  std::vector<double> y;
  for (double v : x) y.push_back(3.0 * v * v);
  PowerFit fit = fit_power_law(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, std::log(3.0), 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_LT(fit.se_slope, 1e-9);
  EXPECT_LE(fit.ci_lo, fit.slope);
  EXPECT_GE(fit.ci_hi, fit.slope);
}

TEST(PowerFit, RecoversFlatSeries) {
  std::vector<double> x = {4, 6, 8, 12, 16};
  std::vector<double> y(x.size(), 5.0);  // O(1)
  PowerFit fit = fit_power_law(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);  // degenerate: no variance to explain
}

TEST(PowerFit, RecoversLinearSeries) {
  std::vector<double> x = {4, 6, 8, 12, 16};
  std::vector<double> y;
  for (double v : x) y.push_back(7.5 * v);  // O(n)
  PowerFit fit = fit_power_law(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
}

TEST(PowerFit, NLogNFitsBetweenLinearAndQuadratic) {
  std::vector<double> x = {4, 8, 16, 32, 64};
  std::vector<double> y;
  for (double v : x) y.push_back(v * std::log2(v));  // O(n log n)
  PowerFit fit = fit_power_law(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_GT(fit.slope, 1.05);
  EXPECT_LT(fit.slope, 1.5);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(PowerFit, RejectsDegenerateInput) {
  EXPECT_FALSE(fit_power_law({1, 2}, {1, 2}).ok);            // too few points
  EXPECT_FALSE(fit_power_law({1, 2, 3}, {1, 2}).ok);         // length mismatch
  EXPECT_FALSE(fit_power_law({1, 2, 3}, {1, 0, 2}).ok);      // nonpositive y
  EXPECT_FALSE(fit_power_law({-1, 2, 3}, {1, 2, 3}).ok);     // nonpositive x
  EXPECT_FALSE(fit_power_law({2, 2, 2}, {1, 2, 3}).ok);      // no x variance
}

TEST(PowerFit, ConfidenceBandWidensWithNoise) {
  std::vector<double> x = {4, 6, 8, 12, 16};
  std::vector<double> clean, noisy;
  for (std::size_t i = 0; i < x.size(); ++i) {
    clean.push_back(10.0 * x[i]);
    noisy.push_back(10.0 * x[i] * (i % 2 == 0 ? 1.3 : 0.75));
  }
  PowerFit f_clean = fit_power_law(x, clean);
  PowerFit f_noisy = fit_power_law(x, noisy);
  ASSERT_TRUE(f_clean.ok);
  ASSERT_TRUE(f_noisy.ok);
  EXPECT_GT(f_noisy.ci_hi - f_noisy.ci_lo, f_clean.ci_hi - f_clean.ci_lo);
  EXPECT_LT(f_noisy.r2, f_clean.r2);
}

TEST(TCritical, MatchesStudentTable) {
  EXPECT_DOUBLE_EQ(obs::t_critical_975(0), 0.0);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(1), 12.706);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(3), 3.182);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(10), 2.228);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(11), 1.96);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(1000), 1.96);
}

// --- check_exponent ---------------------------------------------------------

TEST(ExponentCheckTest, BandIsInclusiveAndRejectsOutliers) {
  std::vector<double> x = {4, 6, 8, 12, 16};
  std::vector<double> linear;
  for (double v : x) linear.push_back(2.0 * v);

  EXPECT_TRUE(check_exponent("lin", x, linear, {0.85, 1.25}).pass);
  EXPECT_TRUE(check_exponent("lin-edge", x, linear, {1.0, 1.25}).pass);   // lo == slope
  EXPECT_FALSE(check_exponent("lin-low", x, linear, {-0.15, 0.15}).pass);  // flat claim
  EXPECT_FALSE(check_exponent("lin-high", x, linear, {1.5, 2.5}).pass);

  ExponentCheck bad = check_exponent("degenerate", {1, 2}, {1, 2}, {0, 1});
  EXPECT_FALSE(bad.pass);  // unusable fit never passes
}

// --- derive_packed_speedup --------------------------------------------------

TEST(Speedup, RederivesHeadlineRatioFromMeasuredCoefficients) {
  // Measured coefficients of the audit sweep's largest point: e0 = 1
  // element per mu-share (ours posts n/k shares per gate), CDN posts 2
  // partials per gate per member.
  const unsigned n = 16, k = 4;
  SpeedupDerivation d =
      obs::derive_packed_speedup(1000, 0.05, 1.0 * n / k, 2.0 * n, n, k);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.k, 28u);  // the paper's packing factor at C=1000, f=0.05
  EXPECT_NEAR(d.e0, 1.0, 1e-9);
  EXPECT_NEAR(d.cdn_per_member, 2.0, 1e-9);
  EXPECT_GE(d.speedup, 28.0);  // the paper's floor
  EXPECT_NEAR(d.speedup, 2.0 * d.k, 0.15 * 2.0 * d.k);  // ~2k bracketing
}

TEST(Speedup, InfeasibleOnMissingData) {
  EXPECT_FALSE(obs::derive_packed_speedup(1000, 0.05, 0, 2.0, 16, 4).feasible);
  EXPECT_FALSE(obs::derive_packed_speedup(1000, 0.05, 4.0, 2.0, 0, 4).feasible);
  EXPECT_FALSE(obs::derive_packed_speedup(1000, 0.05, 4.0, 2.0, 16, 0).feasible);
}

// --- audit_scaling on synthetic sweeps --------------------------------------

// A synthetic scaling_audit key: ours online bytes/gate grow as
// n^ours_exponent, CDN linear, offline linear — with coefficients shaped
// like the real measurements (e0 = 1, CDN 2 partials/gate/member).
json::Value audit_fixture(double ours_exponent) {
  std::ostringstream ss;
  ss << "{\"scaling_audit\":{";
  bool first = true;
  for (unsigned n : {4u, 6u, 8u, 12u, 16u}) {
    const unsigned k = (n + 2) / 4 == 0 ? 1 : (n + 2) / 4;
    const unsigned gates = 4 * n;
    const double ours_bytes = 100.0 * std::pow(n, ours_exponent) * gates;
    const double ours_elems = static_cast<double>(n) / k * gates;  // e0 = 1
    const double cdn_elems = 2.0 * n * gates;
    const double cdn_bytes = 32.0 * cdn_elems;
    const double offline_bytes = 1000.0 * n * gates;
    const double offline_elems = 50.0 * n * gates;
    if (!first) ss << ",";
    first = false;
    ss << "\"n" << n << "\":{\"t\":1,\"k\":" << k << ",\"gates\":" << gates
       << ",\"ours\":{\"online\":{\"categories\":{\"online.mult\":{\"bytes\":" << ours_bytes
       << ",\"elements\":" << ours_elems << "}}},\"offline\":{\"total\":{\"bytes\":"
       << offline_bytes << ",\"elements\":" << offline_elems << "},\"categories\":{"
       << "\"offline.beaver\":{\"messages\":" << n << "}}}},"
       << "\"cdn\":{\"online\":{\"categories\":{\"cdn.mult.pdec\":"
       << "{\"bytes\":" << cdn_bytes << ",\"elements\":" << cdn_elems << "}}}}}";
  }
  ss << "}}";
  return json::parse(ss.str());
}

TEST(AuditScaling, PassesOnClaimConformingSweep) {
  perf::AuditReport report = perf::audit_scaling(audit_fixture(0.0));
  EXPECT_TRUE(report.error.empty());
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_TRUE(report.checks[0].pass) << report.checks[0].fit.slope;  // ours ~flat
  EXPECT_TRUE(report.checks[1].pass) << report.checks[1].fit.slope;  // cdn ~linear
  EXPECT_TRUE(report.checks[2].pass) << report.checks[2].fit.slope;  // offline ~linear
  EXPECT_TRUE(report.speedup.feasible);
  EXPECT_GE(report.speedup.speedup, report.speedup_floor);
  EXPECT_EQ(report.projections.size(), 4u);  // C in {1000, 20000} x f in {0.05, 0.20}
  EXPECT_TRUE(report.pass);

  // The E3/E4 table rows, sorted by n: per-gate mult costs, offline per
  // (n * gate) and the analytic naive column 3 n^2 ceil(gates/k) / gates.
  ASSERT_EQ(report.rows.size(), 5u);
  const double naive_per_gate[] = {48, 54, 96, 144, 192};
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const perf::AuditRow& row = report.rows[i];
    EXPECT_EQ(row.t, 1);
    EXPECT_DOUBLE_EQ(row.ours_mult_elems / row.gates, row.n / row.k);
    EXPECT_DOUBLE_EQ(row.cdn_mult_elems / row.gates, 2.0 * row.n);
    EXPECT_DOUBLE_EQ(row.offline_elems / (row.n * row.gates), 50.0);
    EXPECT_DOUBLE_EQ(row.naive_elems / row.gates, naive_per_gate[i]) << "n=" << row.n;
  }
  // The offline breakdown comes from the largest point's ledger.
  ASSERT_EQ(report.offline_categories.members.size(), 1u);
  EXPECT_EQ(report.offline_categories.members[0].second.u64_or("messages", 0), 16u);

  // The machine-readable verdict parses and agrees.
  const json::Value doc = json::parse(perf::audit_report_json(report));
  EXPECT_TRUE(doc.find("pass")->boolean);
  EXPECT_EQ(doc.find("checks")->items.size(), 3u);
}

TEST(AuditScaling, FailsWhenOnlineCostGrows) {
  // A sweep where our online cost secretly grows as n^0.5 — the flat-claim
  // band [-0.15, 0.15] must catch it and fail the whole audit.
  perf::AuditReport report = perf::audit_scaling(audit_fixture(0.5));
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_FALSE(report.checks[0].pass);
  EXPECT_NEAR(report.checks[0].fit.slope, 0.5, 0.05);
  EXPECT_FALSE(report.pass);
  EXPECT_FALSE(json::parse(perf::audit_report_json(report)).find("pass")->boolean);
}

TEST(AuditScaling, ReportsUnusableData) {
  EXPECT_FALSE(perf::audit_scaling(json::parse("{}")).error.empty());
  EXPECT_FALSE(
      perf::audit_scaling(json::parse(R"({"scaling_audit":{"n4":{}}})")).error.empty());
}

}  // namespace
}  // namespace yoso
