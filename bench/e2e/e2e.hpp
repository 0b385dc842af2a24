// Shared declarations of the end-to-end benchmark (README.md): the metric
// spec read from BENCHMARK.json, run results, and the order statistics the
// run and compare modes share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace yoso::e2e {

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0;  // end-to-end only: allowed worsening, share of the median
};

// BENCHMARK.json, the single source of metric names, units and bounds.
struct Spec {
  unsigned run_seconds = 0;
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

Spec load_spec(const std::string& path);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;  // trace mode: Chrome-trace output (empty = none)
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool guard_ok = true;  // trace mode: traced pass == untraced pass
  std::string notes;     // one line per failure, for stderr
  std::map<std::string, double> metrics;                 // name -> value
  std::map<std::string, std::vector<double>> samples;    // name -> samples behind it
  unsigned paillier_bits = 0;
  // Instances whose Π_Setup replica produced another key than preprocess()
  // did; offline_s of those carries prime-search noise.
  std::uint64_t replica_mismatches = 0;

  bool correct() const { return failed == 0 && guard_ok; }
};

// Names of the workloads this binary implements, in BENCHMARK.json order.
std::vector<std::string> workload_names();

// Runs one workload; throws std::invalid_argument on an unknown name.
RunResult run_workload(const RunOptions& opt);

// `yoso_e2e compare PARENT_DIR CHANGE_DIR`; returns the process exit code.
int compare_dirs(const Spec& spec, const std::string& parent_dir, const std::string& change_dir);

// --- order statistics ------------------------------------------------------

double median(std::vector<double> v);
// Quartiles exactly as Python's statistics.quantiles(v, n=4) ("exclusive"
// method); a single sample yields {v, v, v}.
std::vector<double> quartiles(std::vector<double> v);
// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

}  // namespace yoso::e2e
