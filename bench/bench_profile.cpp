// E15: per-primitive compute profile — the deterministic half of the
// compute observatory (src/perf/opcosts.hpp).
//
// Replays the audit-regime sweep under the op profiler and commits the
// per-primitive call counts (with per-phase attribution) to
// BENCH_comm.json under "profile".  Counts are a pure function of the
// seeded run, so the emitted JSON is bit-for-bit identical across
// re-runs and machines — making this key diffable in review, unlike the
// machine-dependent self-times that `tools/perf record` writes to the
// sibling "op_costs" key.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/json.hpp"
#include "obs/runtime.hpp"
#include "perf/opcosts.hpp"

using namespace yoso;

namespace {

std::vector<unsigned> parse_sweep(const char* arg) {
  std::vector<unsigned> ns;
  std::string s(arg);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const unsigned n =
        static_cast<unsigned>(std::strtoul(s.substr(pos, comma - pos).c_str(), nullptr, 10));
    if (n > 0) ns.push_back(n);
    pos = comma + 1;
  }
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> ns = argc > 1 ? parse_sweep(argv[1]) : std::vector<unsigned>{4, 6, 8};
  if (ns.empty()) {
    std::fprintf(stderr, "usage: %s [n1,n2,...]\n", argv[0]);
    return 2;
  }

  // Counts record regardless of the mute switch, but enable recording so a
  // bench run doubles as a smoke test of the enabled path.
  obs::set_enabled(true);

  std::printf("=== E15: per-primitive op counts (audit regime) ===\n");
  std::vector<perf::ProfilePoint> points;
  for (unsigned n : ns) {
    perf::ProfilePoint pt = perf::run_profile_point(n);
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
