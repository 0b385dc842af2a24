// E4: offline communication per gate vs. committee size n (Section 5.2).
//
// The paper: the offline phase costs O(n) broadcast elements per gate
// (Beaver contributions, wire randomness, epsilon/delta decryptions, and
// the KFF re-encryptions each contribute Theta(n) per gate).  This bench
// measures the real ledger across a sweep of n and prints the per-category
// breakdown for one configuration.
//
// The sweep itself lives in perf/sweep.hpp (tools/perf records the same
// points); this bench keeps the human-readable table and shape check.
#include <cstdio>
#include <vector>

#include "common/json.hpp"
#include "perf/benchfile.hpp"
#include "perf/sweep.hpp"

using namespace yoso;

int main() {
  std::printf("=== E4: offline broadcast elements per multiplication gate ===\n");
  std::printf("wide circuit of width n, |N| = 128\n\n");
  std::printf("%4s %3s %3s | %16s | %16s\n", "n", "t", "k", "offline elems/gate",
              "offline/(n*gate)");

  std::vector<perf::OfflinePoint> points;
  for (unsigned n : {4u, 6u, 8u, 12u, 16u}) {
    perf::OfflinePoint pt = perf::run_offline_point(n);
    const double per_gate = pt.offline_elems / static_cast<double>(pt.gates);
    std::printf("%4u %3u %3u | %16.1f | %16.2f\n", pt.n, pt.t, pt.k, per_gate, per_gate / n);
    points.push_back(std::move(pt));
  }

  const perf::OfflinePoint& first = points.front();
  const perf::OfflinePoint& last = points.back();
  const double first_ratio = first.offline_elems / static_cast<double>(first.gates);
  const double last_ratio = last.offline_elems / static_cast<double>(last.gates);
  std::printf("\nShape check (n: %u -> %u): offline elems/gate grew %.2fx over a %.1fx "
              "increase in n — paper predicts ~linear (O(n)).\n",
              first.n, last.n, last_ratio / first_ratio,
              static_cast<double>(last.n) / first.n);

  std::printf("\nPer-category offline breakdown at n = %u:\n", last.n);
  const json::Value report = json::parse(last.report);
  if (const json::Value* offline = report.find("offline")) {
    if (const json::Value* cats = offline->find("categories")) {
      for (const auto& [cat, e] : cats->members) {
        std::printf("  %-22s %8zu msgs %10zu elems %12zu bytes\n", cat.c_str(),
                    static_cast<std::size_t>(e.u64_or("messages", 0)),
                    static_cast<std::size_t>(e.u64_or("elements", 0)),
                    static_cast<std::size_t>(e.u64_or("bytes", 0)));
      }
    }
  }

  yoso::perf::merge_bench_json("BENCH_comm.json", "offline_comm",
                                perf::offline_comm_json(points));
  return 0;
}
