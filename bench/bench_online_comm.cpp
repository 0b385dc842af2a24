// E3: online communication per gate vs. committee size n (Section 5.3).
//
// Runs the real protocol and the CDN baseline on wide circuits of width n
// (the paper's amortization regime) and reports the measured *online*
// broadcast elements per multiplication gate.  The paper's claim: ours is
// O(1) per gate — flat in n — while the baseline pays Theta(n) partial
// decryptions per gate.  A third column shows the analytic cost of the
// "naive" variant the paper warns about (leaving packed shares under tpk,
// Section 3.4): n partials per packed share, i.e. O(n^2 / k) per gate.
//
// The sweep itself lives in perf/sweep.hpp (tools/perf records the same
// points); this bench keeps the human-readable table and shape check.
#include <cstdio>
#include <vector>

#include "circuit/batching.hpp"
#include "circuit/workloads.hpp"
#include "mpc/params.hpp"
#include "perf/benchfile.hpp"
#include "perf/sweep.hpp"
#include "sortition/analysis.hpp"

using namespace yoso;

int main() {
  std::printf("=== E3: online broadcast elements per multiplication gate ===\n");
  std::printf("wide circuit of width n (one batch row per committee), |N| = 128\n\n");
  std::printf("%4s %3s %3s | %14s | %14s | %14s | %10s\n", "n", "t", "k", "ours: mult/gate",
              "ours: total/gate", "CDN: total/gate", "naive/gate");

  std::vector<perf::OnlinePoint> points;
  for (unsigned n : {4u, 6u, 8u, 12u, 16u}) {
    perf::OnlinePoint pt = perf::run_online_point(n);
    const double gates = static_cast<double>(pt.gates);

    // Naive variant: every packed share (3 per role per batch) threshold-
    // decrypted under tpk online: 3 * n * n partials per batch of k gates.
    Circuit c = wide_mul_circuit(4 * n);
    double naive = 3.0 * n * n * batch_count(c, pt.k) / gates;

    std::printf("%4u %3u %3u | %14.1f | %14.1f | %14.1f | %10.1f\n", pt.n, pt.t, pt.k,
                pt.ours_mult_elems / gates, pt.ours_total_elems / gates,
                pt.cdn_total_elems / gates, naive);
    points.push_back(std::move(pt));
  }

  const perf::OnlinePoint& first = points.front();
  const perf::OnlinePoint& last = points.back();
  const double ours_first = first.ours_mult_elems / static_cast<double>(first.gates);
  const double ours_last = last.ours_mult_elems / static_cast<double>(last.gates);
  const double cdn_first = first.cdn_mult_elems / static_cast<double>(first.gates);
  const double cdn_last = last.cdn_mult_elems / static_cast<double>(last.gates);

  std::printf("\nShape check (n: %u -> %u, a %.1fx increase):\n", first.n, last.n,
              static_cast<double>(last.n) / first.n);
  std::printf("  ours  (mult/gate) grew %.2fx  — paper predicts ~flat (O(1))\n",
              ours_last / ours_first);
  std::printf("  CDN   (mult/gate)  grew %.2fx — paper predicts ~linear (O(n))\n",
              cdn_last / cdn_first);

  std::printf("\nPaper-scale projection (per-gate online, using measured per-element"
              " coefficients):\n");
  // Calibrate on the steady-state mult categories only: the baseline posts
  // cdn_slope elements per gate per member (2 partials, analytically), ours
  // posts e0 elements per mu-share with n/k shares per gate.
  double cdn_slope = cdn_last / last.n;
  double e0 = ours_last * last.k / last.n;
  for (double C : {1000.0, 20000.0}) {
    for (double f : {0.05, 0.20}) {
      auto g = analyze_gap(SortitionConfig{C, f});
      if (!g.feasible) continue;
      double baseline_at_cprime = cdn_slope * g.c_prime;
      double ours_at_c = e0 * g.c / g.k;  // n/k shares per gate
      std::printf("  C=%6.0f f=%.2f: baseline(c'=%5.0f) ~%8.0f elems/gate, ours(c=%5.0f) "
                  "~%5.1f -> projected speedup ~%6.0fx (paper k = %u)\n",
                  C, f, g.c_prime, baseline_at_cprime, g.c, ours_at_c,
                  baseline_at_cprime / ours_at_c, g.k);
    }
  }

  yoso::perf::merge_bench_json("BENCH_comm.json", "online_comm",
                                perf::online_comm_json(points));
  return 0;
}
