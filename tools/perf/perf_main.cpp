// perf — the performance observatory CLI over src/perf.
//
//   perf record [--sweep 4,6,8,12,16] [--json FILE]
//       Run the online/offline/audit/critpath sweeps and merge the results
//       into the bench file (default BENCH_comm.json, keys online_comm /
//       offline_comm / scaling_audit / profile / critpath / meta).  The
//       profile counts come from the audit runs.  Deterministic: seeded
//       protocol runs, so two records of the same sweep are byte-identical.
//   perf check [--json FILE] --baseline FILE
//       Compare the recorded metrics against a committed baseline; exit
//       nonzero listing every violated tolerance (bytes +-10%, counts and
//       parameters exact, missing metric = failure).
//   perf audit [--json FILE] [--report FILE]
//       Fit the scaling_audit sweep's per-gate exponents and verdict them
//       against the paper's claimed asymptotics; re-derive the headline
//       speedup at C=1000, f=0.05; gate the critpath forecast curves.
//       Exit nonzero on any violated band.
//   perf baseline [--json FILE] --out FILE
//       Seed a baseline file from the currently recorded metrics.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/report.hpp"
#include "perf/audit.hpp"
#include "perf/baseline.hpp"
#include "perf/benchfile.hpp"
#include "perf/critpath.hpp"
#include "perf/sweep.hpp"

namespace {

using namespace yoso;

const std::vector<std::string> kBenchKeys = {"online_comm", "offline_comm", "scaling_audit",
                                             "profile", "critpath"};

int usage() {
  std::fprintf(stderr,
               "usage: perf record [--sweep N,N,...] [--json FILE]\n"
               "       perf check [--json FILE] --baseline FILE\n"
               "       perf audit [--json FILE] [--report FILE]\n"
               "       perf baseline [--json FILE] --out FILE\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("perf: cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::map<std::string, double> current_metrics(const std::string& json_path) {
  const json::Value doc = json::parse(read_file(json_path));
  return perf::flatten_metrics(doc, kBenchKeys);
}

int cmd_record(const std::vector<unsigned>& sweep, const std::string& json_path) {
  std::vector<perf::OnlinePoint> online;
  std::vector<perf::OfflinePoint> offline;
  std::vector<perf::AuditPoint> audit;
  std::vector<perf::CritpathPoint> critpath;
  for (unsigned n : sweep) {
    std::printf("recording n=%u: online...", n);
    std::fflush(stdout);
    online.push_back(perf::run_online_point(n));
    std::printf(" offline...");
    std::fflush(stdout);
    offline.push_back(perf::run_offline_point(n));
    std::printf(" audit (k=%u)...", perf::audit_packing(n));
    std::fflush(stdout);
    audit.push_back(perf::run_audit_point(n));
    std::printf(" critpath...");
    std::fflush(stdout);
    perf::CritpathOptions copt;
    copt.n = n;
    critpath.push_back(perf::run_critpath_point(copt));
    std::printf(" done\n");
  }
  perf::merge_bench_json(json_path, "online_comm", perf::online_comm_json(online));
  perf::merge_bench_json(json_path, "offline_comm", perf::offline_comm_json(offline));
  perf::merge_bench_json(json_path, "scaling_audit", perf::scaling_audit_json(audit));
  perf::merge_bench_json(json_path, "profile", perf::profile_sweep_json(audit));
  perf::merge_bench_json(json_path, "critpath", perf::critpath_sweep_json(critpath));
  // Self-describing header: which build / obs generation recorded the file.
  perf::merge_bench_json(json_path, "meta", obs::run_metadata_json());
  return 0;
}

int cmd_check(const std::string& json_path, const std::string& baseline_path) {
  const auto baseline = perf::parse_baseline(json::parse(read_file(baseline_path)));
  const auto current = current_metrics(json_path);
  const perf::CheckResult result = perf::check_against_baseline(baseline, current);
  std::printf("checked %zu metrics against %s\n", result.checked, baseline_path.c_str());
  for (const perf::Mismatch& mm : result.mismatches) {
    if (mm.missing) {
      std::printf("  MISSING %-60s expected %.6g\n", mm.metric.c_str(), mm.expected);
    } else {
      const double delta =
          mm.expected != 0 ? (mm.actual - mm.expected) / mm.expected * 100.0 : 0.0;
      std::printf("  FAIL    %-60s expected %.6g got %.6g (%+.1f%%, tol %s%.0f%%)\n",
                  mm.metric.c_str(), mm.expected, mm.actual, delta,
                  mm.tolerance > 0 ? "+-" : "exact ", mm.tolerance * 100.0);
    }
  }
  if (!result.pass()) {
    std::printf("FAIL: %zu of %zu metrics out of tolerance\n", result.mismatches.size(),
                result.checked);
    return 1;
  }
  std::printf("OK: all metrics within tolerance\n");
  return 0;
}

int cmd_audit(const std::string& json_path, const std::string& report_path) {
  const json::Value doc = json::parse(read_file(json_path));
  const perf::AuditReport report = perf::audit_scaling(doc);
  if (!report.error.empty()) {
    std::fprintf(stderr, "perf audit: %s\n", report.error.c_str());
    return 1;
  }
  std::printf("=== scaling-law audit (%s) ===\n", json_path.c_str());
  std::printf("%-36s %8s %18s %8s %16s %s\n", "series", "slope", "95% CI", "r^2", "band",
              "verdict");
  for (const obs::ExponentCheck& check : report.checks) {
    std::printf("%-36s %8.3f [%7.3f,%7.3f] %8.4f [%5.2f,%5.2f] %s\n", check.name.c_str(),
                check.fit.slope, check.fit.ci_lo, check.fit.ci_hi, check.fit.r2, check.band.lo,
                check.band.hi, check.pass ? "PASS" : "FAIL");
  }
  const obs::SpeedupDerivation& sd = report.speedup;
  if (sd.feasible) {
    std::printf("\nHeadline re-derivation at C=%.0f, f=%.2f (sortition: c=%.0f, c'=%.0f, "
                "k=%u):\n",
                sd.C, sd.f, sd.c, sd.c_prime, sd.k);
    std::printf("  measured e0=%.3f elems/mu-share, CDN %.3f elems/gate/member\n", sd.e0,
                sd.cdn_per_member);
    std::printf("  baseline %.0f vs ours %.1f elems/gate -> speedup %.0fx (floor %.0fx) %s\n",
                sd.baseline_per_gate, sd.ours_per_gate, sd.speedup, report.speedup_floor,
                sd.speedup >= report.speedup_floor ? "PASS" : "FAIL");
  } else {
    std::printf("\nHeadline re-derivation: infeasible (missing audit data)  FAIL\n");
  }
  if (!report.critpath_note.empty()) {
    std::printf("\nCritical-path forecast: skipped (%s)\n", report.critpath_note.c_str());
  } else if (!report.critpath.empty()) {
    std::printf("\nCritical-path forecast gates (monotone, <= k, <= parallelism):\n");
    std::printf("  %-6s %12s %12s %9s %9s %s\n", "point", "parallelism", "max_speedup",
                "monotone", "bounded", "verdict");
    for (const perf::CritpathCheck& check : report.critpath) {
      if (!check.error.empty()) {
        std::printf("  %-6s %s  FAIL\n", check.point.c_str(), check.error.c_str());
        continue;
      }
      std::printf("  %-6s %12.2f %12.2f %9s %9s %s\n", check.point.c_str(), check.parallelism,
                  check.max_speedup, check.monotone ? "yes" : "NO",
                  check.bounded ? "yes" : "NO", check.pass() ? "PASS" : "FAIL");
    }
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::trunc | std::ios::binary);
    out << perf::audit_report_json(report) << "\n";
  }
  std::printf("\n%s\n", report.pass ? "AUDIT PASS" : "AUDIT FAIL");
  return report.pass ? 0 : 1;
}

int cmd_baseline(const std::string& json_path, const std::string& out_path) {
  const auto metrics = current_metrics(json_path);
  std::vector<std::pair<std::string, std::string>> entries;
  for (const auto& [metric, value] : metrics) {
    json::Writer w;
    w.num(value);
    entries.emplace_back(metric, w.take());
  }
  perf::write_bench_entries(out_path, entries);
  std::printf("[%s written: %zu metrics]\n", out_path.c_str(), entries.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string json_path = "BENCH_comm.json";
  std::string baseline_path, out_path, report_path;
  std::vector<unsigned> sweep = {4, 6, 8, 12, 16};
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      try {
        sweep = perf::parse_sweep(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "perf: %s\n", e.what());
        return usage();
      }
    } else {
      return usage();
    }
  }
  try {
    if (cmd == "record") return cmd_record(sweep, json_path);
    if (cmd == "check") {
      if (baseline_path.empty()) return usage();
      return cmd_check(json_path, baseline_path);
    }
    if (cmd == "audit") return cmd_audit(json_path, report_path);
    if (cmd == "baseline") {
      if (out_path.empty()) return usage();
      return cmd_baseline(json_path, out_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf: %s\n", e.what());
    return 1;
  }
  return usage();
}
