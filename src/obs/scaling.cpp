#include "obs/scaling.hpp"

#include <cmath>

#include "sortition/analysis.hpp"

namespace yoso::obs {

double t_critical_975(std::size_t df) {
  // Two-sided 95% (upper 97.5% point).  df = m - 2 for a slope fit.
  static const double kTable[] = {0,     12.706, 4.303, 3.182, 2.776, 2.571,
                                  2.447, 2.365,  2.306, 2.262, 2.228};
  if (df == 0) return 0;
  if (df <= 10) return kTable[df];
  return 1.96;
}

PowerFit fit_power_law(const std::vector<double>& x, const std::vector<double>& y) {
  PowerFit fit;
  if (x.size() != y.size() || x.size() < 3) return fit;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] <= 0 || y[i] <= 0) return fit;
  }
  const std::size_t m = x.size();
  std::vector<double> lx(m), ly(m);
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < m; ++i) {
    lx[i] = std::log(x[i]);
    ly[i] = std::log(y[i]);
    mx += lx[i];
    my += ly[i];
  }
  mx /= static_cast<double>(m);
  my /= static_cast<double>(m);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < m; ++i) {
    sxx += (lx[i] - mx) * (lx[i] - mx);
    sxy += (lx[i] - mx) * (ly[i] - my);
    syy += (ly[i] - my) * (ly[i] - my);
  }
  if (sxx <= 0) return fit;
  fit.points = m;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  double sse = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double resid = ly[i] - (fit.intercept + fit.slope * lx[i]);
    sse += resid * resid;
  }
  fit.r2 = syy > 0 ? 1.0 - sse / syy : 1.0;
  const double df = static_cast<double>(m - 2);
  fit.se_slope = std::sqrt((sse / df) / sxx);
  const double t = t_critical_975(m - 2);
  fit.ci_lo = fit.slope - t * fit.se_slope;
  fit.ci_hi = fit.slope + t * fit.se_slope;
  fit.ok = true;
  return fit;
}

ExponentCheck check_exponent(std::string name, const std::vector<double>& x,
                             const std::vector<double>& y, ExponentBand band) {
  ExponentCheck check;
  check.name = std::move(name);
  check.fit = fit_power_law(x, y);
  check.band = band;
  check.pass = check.fit.ok && check.fit.slope >= band.lo && check.fit.slope <= band.hi;
  return check;
}

SpeedupDerivation derive_packed_speedup(double C, double f, double ours_mult_per_gate,
                                        double cdn_mult_per_gate, unsigned n, unsigned k) {
  SpeedupDerivation d;
  d.C = C;
  d.f = f;
  if (n == 0 || k == 0 || ours_mult_per_gate <= 0 || cdn_mult_per_gate <= 0) return d;
  const GapAnalysis g = analyze_gap(SortitionConfig{C, f, 64, 128, 128});
  if (!g.feasible || g.k == 0) return d;
  d.c = g.c;
  d.c_prime = g.c_prime;
  d.k = g.k;
  // Calibration: the baseline posts cdn_per_member elements per gate per
  // committee member; ours posts e0 elements per mu-share with c/k shares
  // per gate.  perf audit prints E3's paper-scale projection from it.
  d.cdn_per_member = cdn_mult_per_gate / n;
  d.e0 = ours_mult_per_gate * static_cast<double>(k) / n;
  d.baseline_per_gate = d.cdn_per_member * g.c_prime;
  d.ours_per_gate = d.e0 * g.c / static_cast<double>(g.k);
  if (d.ours_per_gate <= 0) return d;
  d.speedup = d.baseline_per_gate / d.ours_per_gate;
  d.feasible = true;
  return d;
}

}  // namespace yoso::obs
