// E16: critical-path analysis and parallel-speedup forecast — the causality
// observatory (src/obs/dag, src/perf/critpath.hpp).
//
// Replays the audit-regime sweep, reconstructs the happens-before DAG from
// the board's publish stream, prices it with the fixed reference coefficient
// table, and commits work/span/parallelism plus the k-worker forecast curve
// to BENCH_comm.json under "critpath" (plus the run-metadata header under
// "meta").  Everything is counts-priced-by-constants, so the payload is
// bit-for-bit identical across re-runs and machines; this bench runs every
// point TWICE and refuses to write on any byte difference — the determinism
// gate CI leans on.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/json.hpp"
#include "obs/report.hpp"
#include "obs/runtime.hpp"
#include "perf/critpath.hpp"
#include "perf/sweep.hpp"

using namespace yoso;

namespace {

// One human line per point: work/span in model-ms plus the forecast knees.
void print_point(const perf::CritpathPoint& pt) {
  const json::Value crit = json::parse(pt.crit_json);
  const double work = crit.num_or("work", 0);
  const double span = crit.num_or("span", 0);
  std::printf("n=%-3u t=%-3u k=%-3u gates=%-5llu work=%10.1f ms span=%9.1f ms par=%5.2f",
              pt.n, pt.t, pt.k, static_cast<unsigned long long>(pt.gates), work / 1e3,
              span / 1e3, span > 0 ? work / span : 1.0);
  const json::Value* forecast = crit.find("forecast");
  if (forecast != nullptr && forecast->is_object()) {
    std::printf("  forecast:");
    for (const auto& [kkey, v] : forecast->members) {
      if (v.is_number()) std::printf(" %s=%.2fx", kkey.c_str(), v.number);
    }
  }
  std::printf("%s\n", pt.completed ? "" : "  (aborted run)");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> ns = {4, 6, 8};
  if (argc > 1) {
    try {
      ns = perf::parse_sweep(argv[1]);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\nusage: %s [n1,n2,...]\n", e.what(), argv[0]);
      return 2;
    }
  }

  obs::set_enabled(true);

  std::printf("=== E16: critical path + parallel-speedup forecast (audit regime) ===\n");
  std::vector<perf::CritpathPoint> points;
  for (unsigned n : ns) {
    perf::CritpathOptions opt;
    opt.n = n;
    perf::CritpathPoint pt = perf::run_critpath_point(opt);
    print_point(pt);

    // Determinism gate: a same-seed replay must reproduce the analysis
    // byte for byte (counts are unconditional, pricing is the reference
    // table) — if it does not, the DAG leaked nondeterminism and the
    // baseline would flap, so refuse to write.
    const perf::CritpathPoint again = perf::run_critpath_point(opt);
    if (again.crit_json != pt.crit_json || again.dag_json != pt.dag_json) {
      std::fprintf(stderr, "E16: n=%u is NOT deterministic across two runs; not writing\n", n);
      return 1;
    }
    points.push_back(std::move(pt));
  }
  std::printf("determinism: every point byte-identical across two same-seed runs\n");

  const std::string sweep = perf::critpath_sweep_json(points);
  bench::merge_bench_json("BENCH_comm.json", "critpath", sweep);
  bench::merge_bench_json("BENCH_comm.json", "meta", obs::run_metadata_json());
  std::printf("wrote critpath key (%zu points, %zu bytes) to BENCH_comm.json\n", points.size(),
              sweep.size());
  return 0;
}
