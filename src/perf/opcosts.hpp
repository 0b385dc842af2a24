// Per-primitive compute costs: the profile sweep recorder and the
// per-phase linear cost model.
//
// run_profile_point() replays the audit-regime configuration (same
// circuits, same 9300/9400 + n seeds as perf/sweep.hpp) under the compute
// profiler, so one point exercises all four phase contexts — ours'
// setup/offline/online plus the CDN baseline — and yields per-primitive
// counts and self-times attributed per phase (src/obs/profile.hpp).
//
// Two bench keys come out of the same points:
//   * "profile"  — counts only.  A pure function of the seeded run, so
//     bench_profile commits it to BENCH_comm.json bit-for-bit (E15).
//   * "op_costs" — counts plus measured self-µs and phase wall-µs.  The
//     machine-dependent side, recorded by `perf record` and checked in
//     bench/baselines/ci.json with the wide `_us` factor tolerance.
//
// fit_cost_model() closes the loop: from a recorded op_costs section it
// estimates one µs-per-call coefficient per primitive (global mean
// self-time), predicts every phase's wall-clock as Σ count_p · µs_p, and
// OLS-fits measured against predicted across all (phase, n) pairs.  A
// slope near 1 with high explained fraction means the primitive terms
// account for the phase — and the per-op coefficients then say where an
// NTT or multi-exp win will land (docs/PROFILING.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/scaling.hpp"

namespace yoso::perf {

// One profiled audit-regime point, its JSON payloads prebuilt.
struct ProfilePoint {
  unsigned n = 0, t = 0, k = 0;
  std::uint64_t gates = 0;
  std::string counts_json;  // {"ops":{...counts only...}} — deterministic
  std::string costs_json;   // counts + self_us + by_phase wall_us
};

ProfilePoint run_profile_point(unsigned n);

// BENCH_comm.json values ({"n4": ..., "n8": ...}) for a recorded sweep.
std::string profile_sweep_json(const std::vector<ProfilePoint>& pts);
std::string op_costs_sweep_json(const std::vector<ProfilePoint>& pts);

// One estimated primitive coefficient.
struct CostTerm {
  std::string op;
  std::uint64_t count = 0;  // total calls across the sweep
  double self_us = 0;       // total measured self-time
  double us_per_op = 0;     // self_us / count
};

// One (phase, n) observation: predicted vs measured wall-clock.
struct CostModelRow {
  std::string phase;
  unsigned n = 0;
  double predicted_us = 0;  // sum over ops of count * us_per_op
  double measured_us = 0;   // profiler phase wall-clock
  double explained = 0;     // predicted / measured
};

struct CostModel {
  bool ok = false;
  std::string error;             // why the model could not be fitted
  std::vector<CostTerm> terms;   // per-primitive coefficients, sorted by name
  std::vector<CostModelRow> rows;
  obs::LinearFit fit;            // measured ~ a + b * predicted
  unsigned n_max = 0;
  double explained_at_n_max = 0;  // Σ predicted / Σ measured at the largest n
  double explained_floor = 0.75;  // audit pass bar (conservative vs the ~0.9
                                  // a Release machine shows; Debug and CI
                                  // runners carry more unprofiled overhead)
  bool pass = false;
};

// Fits the model from a parsed bench document's "op_costs" key.  Missing or
// unusable data reports ok = false with an error instead of failing the
// caller: pre-PR-9 bench files stay auditable.
CostModel fit_cost_model(const json::Value& bench);

std::string cost_model_json(const CostModel& model);

}  // namespace yoso::perf
