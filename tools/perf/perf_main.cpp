// perf — the performance observatory CLI over src/perf.
//
//   perf record [--sweep 4,6,8,12,16] [--json FILE]
//       Run the audit sweep (ours + CDN per n) and merge the results into
//       the bench file (default BENCH_comm.json, keys scaling_audit /
//       profile / critpath / meta).  Deterministic: seeded protocol runs,
//       so two records of the same sweep are byte-identical.  That makes
//       the committed BENCH_comm.json the perf gate: CI re-records a copy
//       in Release with the default sweep and fails on any byte difference.
//   perf audit [--json FILE] [--report FILE]
//       Print the E3 (online) and E4 (offline) per-gate tables of the
//       scaling_audit sweep, fit its per-gate exponents and verdict them
//       against the paper's claimed asymptotics; project the speedup to
//       paper scale and gate the C=1000, f=0.05 cell; gate the critpath
//       forecast curves.  Exit nonzero on any violated band.
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
#include "perf/benchfile.hpp"
#include "perf/critpath.hpp"
#include "perf/sweep.hpp"

namespace {

using namespace yoso;

int usage() {
  std::fprintf(stderr,
               "usage: perf record [--sweep N,N,...] [--json FILE]\n"
               "       perf audit [--json FILE] [--report FILE]\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("perf: cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

int cmd_record(const std::vector<unsigned>& sweep, const std::string& json_path) {
  std::vector<perf::AuditPoint> audit;
  for (unsigned n : sweep) {
    std::printf("recording n=%u (k=%u)...", n, perf::audit_packing(n));
    std::fflush(stdout);
    audit.push_back(perf::run_audit_point(n));
    std::printf(" done\n");
  }
  perf::merge_bench_json(json_path, "scaling_audit", perf::scaling_audit_json(audit));
  perf::merge_bench_json(json_path, "profile", perf::profile_sweep_json(audit));
  perf::merge_bench_json(json_path, "critpath", perf::critpath_sweep_json(audit));
  // Self-describing header: which build / obs generation recorded the file.
  perf::merge_bench_json(json_path, "meta", obs::run_metadata_json());
  return 0;
}

int cmd_audit(const std::string& json_path, const std::string& report_path) {
  const json::Value doc = json::parse(read_file(json_path));
  const perf::AuditReport report = perf::audit_scaling(doc);
  if (!report.error.empty()) {
    std::fprintf(stderr, "perf audit: %s\n", report.error.c_str());
    return 1;
  }
  const perf::AuditRow& first = report.rows.front();
  const perf::AuditRow& last = report.rows.back();
  std::printf("=== E3/E4: broadcast elements per multiplication gate (%s, scaling_audit) ===\n",
              json_path.c_str());
  std::printf("%4s %3s %3s | %10s %10s %10s | %12s %16s\n", "n", "t", "k", "ours mult",
              "CDN mult", "naive", "offline", "offline/(n*gate)");
  for (const perf::AuditRow& row : report.rows) {
    std::printf("%4.0f %3.0f %3.0f | %10.1f %10.1f %10.1f | %12.1f %16.2f\n", row.n, row.t,
                row.k, row.ours_mult_elems / row.gates, row.cdn_mult_elems / row.gates,
                row.naive_elems / row.gates, row.offline_elems / row.gates,
                row.offline_elems / (row.n * row.gates));
  }
  std::printf("\nShape (n: %.0f -> %.0f, %.1fx): ours grew %.2fx (paper: flat, O(1)), "
              "CDN %.2fx (O(n)), offline %.2fx (O(n))\n",
              first.n, last.n, last.n / first.n,
              (last.ours_mult_elems / last.gates) / (first.ours_mult_elems / first.gates),
              (last.cdn_mult_elems / last.gates) / (first.cdn_mult_elems / first.gates),
              (last.offline_elems / last.gates) / (first.offline_elems / first.gates));
  std::printf("\nOffline breakdown at n = %.0f (ours' ledger):\n", last.n);
  for (const auto& [cat, e] : report.offline_categories.members) {
    std::printf("  %-22s %8.0f msgs %10.0f elems %12.0f bytes\n", cat.c_str(),
                e.num_or("messages", 0), e.num_or("elements", 0), e.num_or("bytes", 0));
  }

  std::printf("\n%-36s %8s %18s %8s %16s %s\n", "series", "slope", "95% CI", "r^2", "band",
              "verdict");
  for (const obs::ExponentCheck& check : report.checks) {
    std::printf("%-36s %8.3f [%7.3f,%7.3f] %8.4f [%5.2f,%5.2f] %s\n", check.name.c_str(),
                check.fit.slope, check.fit.ci_lo, check.fit.ci_hi, check.fit.r2, check.band.lo,
                check.band.hi, check.pass ? "PASS" : "FAIL");
  }
  std::printf("\nPaper-scale projection from n = %.0f, k = %.0f (e0 = %.3f elems/mu-share, "
              "CDN %.3f elems/gate/member):\n",
              last.n, last.k, report.speedup.e0, report.speedup.cdn_per_member);
  for (const obs::SpeedupDerivation& sd : report.projections) {
    if (!sd.feasible) {
      std::printf("  C=%6.0f f=%.2f: infeasible%s\n", sd.C, sd.f,
                  &sd == &report.projections.front() ? "  FAIL" : "");
      continue;
    }
    std::printf("  C=%6.0f f=%.2f (c=%5.0f, c'=%5.0f, k=%u): baseline %8.0f vs ours %6.1f "
                "elems/gate -> %5.0fx",
                sd.C, sd.f, sd.c, sd.c_prime, sd.k, sd.baseline_per_gate, sd.ours_per_gate,
                sd.speedup);
    if (&sd == &report.projections.front()) {
      std::printf(" (floor %.0fx) %s", report.speedup_floor,
                  sd.speedup >= report.speedup_floor ? "PASS" : "FAIL");
    }
    std::printf("\n");
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string json_path = "BENCH_comm.json";
  std::string report_path;
  std::vector<unsigned> sweep = {4, 6, 8, 12, 16};
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
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
    if (cmd == "audit") return cmd_audit(json_path, report_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf: %s\n", e.what());
    return 1;
  }
  return usage();
}
