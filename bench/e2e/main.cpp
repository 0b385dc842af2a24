// yoso_e2e — the repository's end-to-end benchmark (README.md).
//
//   yoso_e2e run --workload W --seed S [--seconds T] [--trace 0|1]
//                [--out-dir DIR] [--commit SHA]
//   yoso_e2e compare PARENT_DIR CHANGE_DIR
//   yoso_e2e list
//
// Reads BENCHMARK.json from the working directory.  `run` prints one
// "workload metric value unit" line per metric and, as its last line, the
// JSON result {"correct","attempted","failed","metrics"}; with --out-dir it
// also writes the result with its run-metadata header (and, traced, the
// Chrome-trace span file) there.  Exits 1 when an output check fails.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "e2e.hpp"

namespace {

using namespace yoso;
using namespace yoso::e2e;

constexpr const char* kSpecPath = "BENCHMARK.json";

struct Args {
  RunOptions run;
  std::string out_dir;
  std::string commit = "unknown";
};

Args parse_run_args(int argc, char** argv, const Spec& spec) {
  Args a;
  a.run.seconds = spec.run_seconds;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.run.workload = value;
    else if (flag == "--seed") a.run.seed = std::stoull(value);
    else if (flag == "--seconds") a.run.seconds = std::stod(value);
    else if (flag == "--trace" && (value == "0" || value == "1")) a.run.trace = value == "1";
    else if (flag == "--out-dir") a.out_dir = value;
    else if (flag == "--commit") a.commit = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.run.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.run.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

// The binary and BENCHMARK.json must name the same workloads and metrics.
void check_spec(const Spec& spec, const std::vector<MetricSpec>& listed, const RunResult& r) {
  if (spec.workloads != workload_names()) {
    throw std::logic_error("BENCHMARK.json workloads differ from the benchmark's own");
  }
  std::set<std::string> names;
  for (const MetricSpec& m : listed) {
    names.insert(m.name);
    if (r.metrics.count(m.name) == 0) {
      throw std::logic_error("metric " + m.name + " listed in BENCHMARK.json was not measured");
    }
  }
  for (const auto& [name, value] : r.metrics) {
    if (names.count(name) == 0) {
      throw std::logic_error("metric " + name + " is missing from BENCHMARK.json");
    }
  }
}

void write_metrics(json::Writer& w, const std::vector<MetricSpec>& listed, const RunResult& r) {
  w.key("metrics").begin_object();
  for (const MetricSpec& m : listed) {
    const auto it = r.metrics.find(m.name);
    if (it == r.metrics.end()) continue;  // only on an incorrect run
    w.key(m.name).begin_object();
    w.field("value", it->second).field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

void write_result_file(const std::string& path, const Args& a, const std::vector<MetricSpec>& listed,
                       const RunResult& r) {
  json::Writer w;
  w.begin_object();
  w.key("meta").begin_object();
  w.field("workload", a.run.workload);
  w.field("seed", a.run.seed);
  w.field("seconds", a.run.seconds);
  w.field("trace", a.run.trace);
  w.field("obs_enabled", a.run.trace);
  w.field("commit", a.commit);
  w.field("build_type", YOSO_E2E_BUILD_TYPE);
  w.field("compiler", YOSO_E2E_COMPILER);
  w.field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.field("paillier_bits", r.paillier_bits);
  w.field("toy_params", r.paillier_bits < 2048);
  w.field("replica_mismatches", r.replica_mismatches);
  w.key("sample_counts").begin_object();
  for (const MetricSpec& m : listed) {
    const auto it = r.samples.find(m.name);
    w.field(m.name, static_cast<std::uint64_t>(it == r.samples.end() ? 1 : it->second.size()));
  }
  w.end_object().end_object();
  w.field("correct", r.correct());
  w.field("attempted", r.attempted).field("failed", r.failed);
  write_metrics(w, listed, r);
  w.key("samples").begin_object();
  for (const auto& [name, values] : r.samples) {
    w.key(name).begin_array();
    for (double v : values) w.num(v);
    w.end_array();
  }
  w.end_object().end_object();
  std::ofstream out(path);
  out << w.take() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_main(int argc, char** argv) {
  const Spec spec = load_spec(kSpecPath);
  Args a = parse_run_args(argc, argv, spec);
  const std::string stem = a.out_dir.empty()
                               ? std::string()
                               : a.out_dir + "/" + a.run.workload + "-s" +
                                     std::to_string(a.run.seed) + (a.run.trace ? "-t1" : "-t0");
  if (a.run.trace && !stem.empty()) a.run.spans_path = stem + ".spans.json";

  const RunResult r = run_workload(a.run);
  const auto& listed = a.run.trace ? spec.per_layer : spec.end_to_end;
  std::cerr << r.notes;
  if (r.correct()) check_spec(spec, listed, r);

  for (const MetricSpec& m : listed) {
    const auto it = r.metrics.find(m.name);
    if (it == r.metrics.end()) continue;
    std::printf("%s %s %.6g %s\n", a.run.workload.c_str(), m.name.c_str(), it->second,
                m.unit.c_str());
  }
  if (!stem.empty()) write_result_file(stem + ".json", a, listed, r);

  json::Writer w;
  w.begin_object();
  w.field("correct", r.correct());
  w.field("attempted", r.attempted).field("failed", r.failed);
  write_metrics(w, listed, r);
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  return r.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "run") return run_main(argc, argv);
    if (mode == "compare" && argc == 4) return compare_dirs(load_spec(kSpecPath), argv[2], argv[3]);
    if (mode == "list") {
      for (const std::string& name : load_spec(kSpecPath).workloads) std::printf("%s\n", name.c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "yoso_e2e: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr,
               "usage: yoso_e2e run --workload W --seed S [--seconds T] [--trace 0|1] "
               "[--out-dir DIR] [--commit SHA]\n"
               "       yoso_e2e compare PARENT_DIR CHANGE_DIR\n"
               "       yoso_e2e list\n");
  return 2;
}
