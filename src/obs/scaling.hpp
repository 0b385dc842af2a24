// Scaling-law auditor: turns the paper's asymptotic claims into measured,
// machine-checked exponents.
//
// The paper's headline numbers are slopes, not byte counts: online cost is
// O(1) per multiplication gate, offline is O(n), the CDN baseline's online
// cost is O(n).  fit_power_law() runs an ordinary least-squares fit on
// (log n, log y) and returns the fitted exponent with a 95% confidence
// band (Student-t on the slope's standard error), so an n-sweep of per-gate
// totals becomes a verdict: check_exponent() compares the fitted slope
// against a declared band and passes or fails.
//
// derive_packed_speedup() re-derives the paper's headline ratio (28x at
// C = 1000, f = 0.05) from *measured* data: the measured per-mu-share
// element coefficient e0 and the measured CDN per-member slope, projected
// to the committee sizes the sortition analysis (Section 6) prescribes.
//
// This header is pure analysis — no protocol state, no recording.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace yoso::obs {

struct PowerFit {
  bool ok = false;        // >= 3 usable points and positive x/y throughout
  std::size_t points = 0;
  double slope = 0;       // fitted exponent b in y ~ a * x^b
  double intercept = 0;   // log(a)
  double r2 = 0;
  double se_slope = 0;    // standard error of the slope
  double ci_lo = 0;       // 95% confidence band on the exponent
  double ci_hi = 0;
};

// OLS on (log x, log y).  Points with x <= 0 or y <= 0 are rejected (the
// fit reports ok = false rather than silently dropping them).
PowerFit fit_power_law(const std::vector<double>& x, const std::vector<double>& y);

struct LinearFit {
  bool ok = false;       // >= 3 points with nonzero x variance
  std::size_t points = 0;
  double slope = 0;      // b in y ~ a + b x
  double intercept = 0;  // a
  double r2 = 0;
  double se_slope = 0;
  double ci_lo = 0;      // 95% confidence band on the slope
  double ci_hi = 0;
};

// Plain (untransformed) OLS y ~ a + b x.  Used by the per-phase compute
// cost model: x = Σ count_p · µs_p predicted from per-op self-times,
// y = measured phase wall-clock; slope ≈ 1 with small residual means the
// primitive terms explain the phase (tools/perf audit, docs/PROFILING.md).
LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

// Two-sided 97.5% Student-t critical value for `df` degrees of freedom
// (exact table for df <= 10, 1.96 asymptote above).
double t_critical_975(std::size_t df);

struct ExponentBand {
  double lo = 0;
  double hi = 0;
};

struct ExponentCheck {
  std::string name;
  PowerFit fit;
  ExponentBand band;
  bool pass = false;  // fit ok and band.lo <= slope <= band.hi
};

ExponentCheck check_exponent(std::string name, const std::vector<double>& x,
                             const std::vector<double>& y, ExponentBand band);

struct SpeedupDerivation {
  bool feasible = false;
  double C = 0, f = 0;          // sortition regime
  double c = 0, c_prime = 0;    // committee sizes with / without the gap
  unsigned k = 0;               // packing factor at (C, f) — the paper's 28
  double e0 = 0;                // measured: ours online-mult elements per mu-share
  double cdn_per_member = 0;    // measured: CDN online-mult elements per gate per member
  double baseline_per_gate = 0; // cdn_per_member * c'
  double ours_per_gate = 0;     // e0 * c / k
  double speedup = 0;           // baseline_per_gate / ours_per_gate (~2k)
};

// `ours_mult_per_gate` / `cdn_mult_per_gate` are measured per-gate online
// multiplication costs (elements) at committee size n with packing k.
SpeedupDerivation derive_packed_speedup(double C, double f, double ours_mult_per_gate,
                                        double cdn_mult_per_gate, unsigned n, unsigned k);

}  // namespace yoso::obs
