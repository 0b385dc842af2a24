// E15: per-primitive compute profile — the op counts of the audit-regime
// sweep (src/perf/sweep.hpp).
//
// Runs the audit sweep under the op profiler and commits the per-primitive
// call counts (with per-phase attribution) to BENCH_comm.json under
// "profile".  Counts are a pure function of the seeded run, so the emitted
// JSON is bit-for-bit identical across re-runs and machines — the same
// payload `tools/perf record` writes from its audit runs.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/runtime.hpp"
#include "perf/sweep.hpp"

using namespace yoso;

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

  // Counts record regardless of the mute switch, but enable recording so a
  // bench run doubles as a smoke test of the enabled path.
  obs::set_enabled(true);

  std::printf("=== E15: per-primitive op counts (audit regime) ===\n");
  std::vector<perf::AuditPoint> points;
  for (unsigned n : ns) {
    perf::AuditPoint pt = perf::run_audit_point(n);
    std::printf("n=%-3u t=%-3u k=%-3u gates=%llu\n", pt.n, pt.t, pt.k,
                static_cast<unsigned long long>(pt.gates));
    points.push_back(std::move(pt));
  }

  const std::string sweep = perf::profile_sweep_json(points);
  bench::merge_bench_json("BENCH_comm.json", "profile", sweep);
  std::printf("wrote profile key (%zu points, %zu bytes) to BENCH_comm.json\n", points.size(),
              sweep.size());
  return 0;
}
