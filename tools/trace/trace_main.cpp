// trace — the observability CLI over src/obs.
//
//   trace run [--seed S] [--n N] [--width W] [--degrade] [--wall]
//             [--silence R] [--churn P] [--out FILE] [--report FILE]
//       Run YosoMpc over a NetBulletin with tracing on; write the Chrome
//       trace-event JSON (stdout or --out) and, with --report, the unified
//       run report (board + metrics [+ failure]).  Deterministic: the same
//       seed yields byte-identical traces (unless --wall).
//   trace check [FILE]
//       Validate a trace document (stdin when FILE is absent); exit nonzero
//       on schema violations.
//   trace summarize [FILE]
//       Per-span-name table (count, total/mean duration, category), the
//       top-5 most expensive spans, and — when the trace carries op.count.*
//       counter tracks — a per-primitive count/total-µs table.
//   trace diff A B
//       Compare two traces by span name (count and total-duration deltas)
//       and by per-primitive op counts; exit nonzero when either differs.
//   trace costs [--seed S] [--n N] [--width W] [--degrade]
//       Run with the compute profiler on and print the per-primitive cost
//       table: calls, self-µs, µs/call, per-phase breakdown (E15's live
//       twin; docs/PROFILING.md).
//   trace critpath [--seed S] [--n N] [--width W] [--degrade] [--silence R]
//                  [--churn P] [--lanes K] [--out FILE] [--perfetto FILE]
//       Reconstruct the happens-before DAG of the run (src/obs/dag), price
//       it with the reference table (src/perf/critpath.hpp), print
//       the per-phase work/span table, the forecast speedup curve for
//       k ∈ {1,2,4,8,16}, and the top critical-path bottlenecks; --out
//       writes the deterministic critpath JSON, --perfetto a standalone
//       Chrome-trace document with the critical path and the k-worker
//       schedule as dedicated tracks.  --silence/--churn inject fail-stop
//       faults to show how they serialize the run.
//   trace export FILE --cat C
//       Re-emit a trace keeping only events of category C (plus metadata).
#include <cstdint>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "common/json.hpp"
#include "crypto/rand.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "net/wire_faults.hpp"  // mix64
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "perf/critpath.hpp"

namespace {

using yoso::chaos::FaultSchedule;

int usage() {
  std::fprintf(stderr,
               "usage: trace run [--seed S] [--n N] [--width W] [--degrade] [--wall]\n"
               "                 [--silence R] [--churn P] [--out FILE] [--report FILE]\n"
               "       trace check [FILE]\n"
               "       trace summarize [FILE]\n"
               "       trace diff A B\n"
               "       trace costs [--seed S] [--n N] [--width W] [--degrade]\n"
               "       trace critpath [--seed S] [--n N] [--width W] [--degrade]\n"
               "                      [--silence R] [--churn P] [--lanes K]\n"
               "                      [--out FILE] [--perfetto FILE]\n"
               "       trace export FILE --cat C\n");
  return 2;
}

std::string read_input(const std::string& path) {
  if (path.empty() || path == "-") {
    return std::string(std::istreambuf_iterator<char>(std::cin), {});
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool write_output(const std::string& path, const std::string& content) {
  if (path.empty() || path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  out << content << "\n";
  return static_cast<bool>(out);
}

std::vector<std::vector<mpz_class>> inputs_for(const yoso::Circuit& c, std::uint64_t seed) {
  yoso::Rng rng(yoso::net::mix64(seed ^ 0x10901575ULL));
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == yoso::GateKind::Input) {
      inputs[g.client].push_back(
          mpz_class(static_cast<unsigned long>(rng.u64_below(1u << 16))));
    }
  }
  return inputs;
}

struct RunOptions {
  std::uint64_t seed = 1;
  unsigned n = 6;
  unsigned width = 2;
  bool degrade = false;
  bool wall = false;
  std::string out;
  std::string report;
  unsigned silence = 0;    // fail-stop roles per committee
  double churn = 0;        // per-role departure probability per activation
  // critpath-only knobs.
  unsigned lanes = 4;      // worker lanes in the Perfetto export
  std::string perfetto;    // Perfetto artifact path
};

struct BoardBox {
  yoso::Ledger ledger;
  yoso::net::NetBulletin board;
  explicit BoardBox(yoso::net::NetConfig cfg) : board(ledger, std::move(cfg)) {}
};

// Resets the obs singletons and replays the schedule's protocol run with
// recording on.  Shared by `trace run` and `trace costs`.
int run_traced(const RunOptions& opt, std::vector<std::unique_ptr<BoardBox>>& boards,
               std::optional<yoso::FailureReport>& failure) {
  FaultSchedule schedule;
  schedule.seed = opt.seed;
  schedule.n = opt.n;
  schedule.circuit_width = opt.width;
  schedule.degradation = opt.degrade;
  schedule.silenced = opt.silence;
  schedule.churn_prob = opt.churn;

  yoso::obs::tracer().reset();
  yoso::obs::metrics().reset();
  yoso::obs::timeseries().reset();
  yoso::obs::profiler().reset();
  yoso::obs::set_enabled(true);

  const yoso::Circuit circuit = schedule.circuit();
  const auto inputs = inputs_for(circuit, opt.seed);

  const auto make_board = [&](bool) -> yoso::Bulletin* {
    boards.push_back(std::make_unique<BoardBox>(schedule.net_config()));
    return &boards.back()->board;
  };

  int status = 0;
  try {
    if (opt.degrade) {
      yoso::DegradedRunResult d = yoso::run_with_degradation(
          schedule.n, schedule.eps, schedule.paillier_bits, circuit, schedule.adversary(),
          schedule.seed, make_board, inputs);
      if (d.failure) failure = *d.failure;
      if (!d.ok()) status = 1;
    } else {
      yoso::Bulletin* board = make_board(false);
      yoso::YosoMpc mpc(schedule.params(), circuit, schedule.adversary(), schedule.seed, board);
      (void)mpc.run(inputs);
    }
  } catch (const yoso::ProtocolAbort& abort) {
    if (abort.report()) failure = *abort.report();
    status = 1;
  }
  for (auto& box : boards) box->board.flush();
  return status;
}

int cmd_run(const RunOptions& opt) {
  std::vector<std::unique_ptr<BoardBox>> boards;
  std::optional<yoso::FailureReport> failure;
  int status = run_traced(opt, boards, failure);

  const std::string trace = yoso::obs::tracer().chrome_trace_json(opt.wall);
  if (!write_output(opt.out, trace)) {
    std::fprintf(stderr, "trace run: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  if (!opt.report.empty() && !boards.empty()) {
    const std::string report = yoso::obs::run_report_json(
        boards.back()->board, failure ? &*failure : nullptr);
    if (!write_output(opt.report, report)) {
      std::fprintf(stderr, "trace run: cannot write %s\n", opt.report.c_str());
      return 1;
    }
  }
  return status;
}

int cmd_costs(const RunOptions& opt) {
  std::vector<std::unique_ptr<BoardBox>> boards;
  std::optional<yoso::FailureReport> failure;
  const int status = run_traced(opt, boards, failure);

  const yoso::obs::InstrumentCell cell = yoso::obs::profiler().snapshot();
  std::printf("per-primitive compute costs (seed %llu, n=%u, width=%u):\n",
              static_cast<unsigned long long>(opt.seed), opt.n, opt.width);
  std::printf("%-24s %10s %12s %10s", "primitive", "calls", "self_us", "us/call");
  for (unsigned p = 0; p < yoso::obs::kPhaseCtxCount; ++p) {
    std::printf(" %9s", yoso::obs::phase_ctx_name(static_cast<yoso::obs::PhaseCtx>(p)));
  }
  std::printf("\n");
  for (unsigned o = 0; o < yoso::obs::kOpCount; ++o) {
    const auto op = static_cast<yoso::obs::Op>(o);
    const std::uint64_t calls = cell.op_total_count(op);
    if (calls == 0) continue;
    const double self_us = static_cast<double>(cell.op_total_self_ns(op)) / 1e3;
    std::printf("%-24s %10llu %12.1f %10.4f", yoso::obs::op_name(op),
                static_cast<unsigned long long>(calls), self_us,
                self_us / static_cast<double>(calls));
    for (unsigned p = 0; p < yoso::obs::kPhaseCtxCount; ++p) {
      std::printf(" %9llu",
                  static_cast<unsigned long long>(
                      cell.op_count(static_cast<yoso::obs::PhaseCtx>(p), op)));
    }
    std::printf("\n");
  }
  std::printf("%-24s", "phase wall (ms)");
  std::printf(" %10s %12s %10s", "", "", "");
  for (unsigned p = 0; p < yoso::obs::kPhaseCtxCount; ++p) {
    std::printf(" %9.1f",
                static_cast<double>(
                    cell.phase_wall_ns(static_cast<yoso::obs::PhaseCtx>(p))) / 1e6);
  }
  std::printf("\n");
  return status;
}

int cmd_critpath(const RunOptions& opt) {
  namespace dag = yoso::obs::dag;
  namespace perf = yoso::perf;
  std::vector<std::unique_ptr<BoardBox>> boards;
  std::optional<yoso::FailureReport> failure;
  const int status = run_traced(opt, boards, failure);
  if (boards.empty()) {
    std::fprintf(stderr, "trace critpath: run produced no board\n");
    return 1;
  }
  // boards.back() is the run that completed (degradation retries create
  // fresh boards; earlier ones hold the aborted attempts).
  const dag::DagRecorder& rec = boards.back()->board.dag();
  std::string dag_error;
  if (!rec.validate(&dag_error)) {
    std::fprintf(stderr, "trace critpath: invalid DAG: %s\n", dag_error.c_str());
    return 1;
  }
  const perf::CostCoeffs& coeffs = perf::CostCoeffs::reference_table();
  const perf::CritReport report = perf::analyze(rec.nodes(), coeffs);

  std::printf("critical path (seed %llu, n=%u, width=%u%s): %s\n",
              static_cast<unsigned long long>(opt.seed), opt.n, opt.width,
              opt.silence > 0 || opt.churn > 0 ? ", faulted" : "",
              yoso::obs::run_metadata_json().c_str());
  std::printf("%-10s %8s %14s %14s %12s\n", "phase", "nodes", "work_ms", "span_ms",
              "parallelism");
  static constexpr const char* kPhaseNames[3] = {"setup", "offline", "online"};
  for (unsigned p = 0; p < 3; ++p) {
    const perf::PhaseCrit& pc = report.phases[p];
    std::printf("%-10s %8zu %14.3f %14.3f %12.2f\n", kPhaseNames[p], pc.nodes, pc.work / 1e3,
                pc.span / 1e3, pc.parallelism());
  }
  std::printf("%-10s %8zu %14.3f %14.3f %12.2f\n", "total", report.total.nodes,
              report.total.work / 1e3, report.total.span / 1e3, report.total.parallelism());

  std::printf("\nforecast (list-scheduled on k virtual workers):\n ");
  for (const perf::ForecastPoint& fp : report.forecast) {
    std::printf(" k=%-2u %5.2fx", fp.k, fp.speedup);
  }
  std::printf("\n");

  // Bottleneck table: the heaviest nodes on the critical path.
  std::vector<std::uint32_t> path = report.critical_path;
  std::sort(path.begin(), path.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double wa = perf::node_work_us(rec.nodes()[a], coeffs);
    const double wb = perf::node_work_us(rec.nodes()[b], coeffs);
    if (wa != wb) return wa > wb;
    return a < b;
  });
  const std::size_t top = path.size() < 5 ? path.size() : 5;
  if (top > 0 && report.total.span > 0) {
    std::printf("\ntop %zu critical-path bottlenecks (of %zu path nodes):\n", top,
                report.critical_path.size());
    for (std::size_t i = 0; i < top; ++i) {
      const dag::DagNode& node = rec.nodes()[path[i]];
      const double work = perf::node_work_us(node, coeffs);
      std::printf("  %zu. %-28s %-9s %12.3f ms  %5.1f%% of span\n", i + 1,
                  perf::node_display_name(node).c_str(), dag::node_kind_name(node.kind),
                  work / 1e3, 100.0 * work / report.total.span);
    }
  }

  if (!opt.out.empty()) {
    if (!write_output(opt.out, perf::crit_report_json(report))) {
      std::fprintf(stderr, "trace critpath: cannot write %s\n", opt.out.c_str());
      return 1;
    }
  }
  if (!opt.perfetto.empty()) {
    const std::string doc = perf::critpath_perfetto_json(rec.nodes(), coeffs, opt.lanes);
    if (!write_output(opt.perfetto, doc)) {
      std::fprintf(stderr, "trace critpath: cannot write %s\n", opt.perfetto.c_str());
      return 1;
    }
  }
  return status;
}

int cmd_check(const std::string& path) {
  const std::string text = read_input(path);
  std::string error;
  if (!yoso::obs::validate_trace_json(text, &error)) {
    std::fprintf(stderr, "trace check: %s\n", error.c_str());
    return 1;
  }
  const yoso::json::Value doc = yoso::json::parse(text);
  std::printf("ok: %zu events\n", doc.find("traceEvents")->items.size());
  return 0;
}

struct NameStats {
  std::size_t count = 0;
  double total_us = 0;
  std::string cat;
};

std::map<std::string, NameStats> aggregate(const yoso::json::Value& doc) {
  std::map<std::string, NameStats> by_name;
  const yoso::json::Value* events = doc.find("traceEvents");
  if (events == nullptr) return by_name;
  for (const auto& ev : events->items) {
    if (ev.str_or("ph", "") != "X") continue;
    NameStats& s = by_name[ev.str_or("name", "?")];
    s.count += 1;
    s.total_us += ev.num_or("dur", 0);
    if (s.cat.empty()) s.cat = ev.str_or("cat", "");
  }
  return by_name;
}

// Final values of the profiler's op.count.* / op.self_us.* counter tracks.
// The samples are cumulative and time-ordered per op, so "final" = last.
struct OpStats {
  double count = 0;
  double self_us = -1;  // -1: trace carried no self-time track for this op
};

std::map<std::string, OpStats> aggregate_ops(const yoso::json::Value& doc) {
  std::map<std::string, OpStats> ops;
  const yoso::json::Value* events = doc.find("traceEvents");
  if (events == nullptr) return ops;
  for (const auto& ev : events->items) {
    if (ev.str_or("ph", "") != "C") continue;
    const std::string name = ev.str_or("name", "");
    const yoso::json::Value* args = ev.find("args");
    const double value = args == nullptr ? 0 : args->num_or("value", 0);
    if (name.rfind("op.count.", 0) == 0) {
      ops[name.substr(9)].count = value;
    } else if (name.rfind("op.self_us.", 0) == 0) {
      ops[name.substr(11)].self_us = value;
    }
  }
  return ops;
}

// Final per-phase "mem.peak_bytes.<phase>" gauge values (only present in
// traces captured with --wall); empty map otherwise.
std::map<std::string, double> aggregate_mem(const yoso::json::Value& doc) {
  std::map<std::string, double> mem;
  const yoso::json::Value* events = doc.find("traceEvents");
  if (events == nullptr) return mem;
  for (const auto& ev : events->items) {
    if (ev.str_or("ph", "") != "C") continue;
    const std::string name = ev.str_or("name", "");
    if (name.rfind("mem.peak_bytes.", 0) != 0) continue;
    const yoso::json::Value* args = ev.find("args");
    const double value = args == nullptr ? 0 : args->num_or("value", 0);
    double& slot = mem[name.substr(15)];
    if (value > slot) slot = value;
  }
  return mem;
}

int cmd_summarize(const std::string& path) {
  const yoso::json::Value doc = yoso::json::parse(read_input(path));
  const auto by_name = aggregate(doc);
  std::printf("%-24s %-10s %8s %14s %14s\n", "span", "cat", "count", "total_ms", "mean_ms");
  for (const auto& [name, s] : by_name) {
    std::printf("%-24s %-10s %8zu %14.3f %14.3f\n", name.c_str(), s.cat.c_str(), s.count,
                s.total_us / 1e3, s.total_us / 1e3 / static_cast<double>(s.count));
  }

  std::vector<std::pair<std::string, NameStats>> ranked(by_name.begin(), by_name.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.total_us != b.second.total_us) return a.second.total_us > b.second.total_us;
    return a.first < b.first;
  });
  const std::size_t top = ranked.size() < 5 ? ranked.size() : 5;
  if (top > 0) {
    std::printf("\ntop %zu spans by total duration:\n", top);
    for (std::size_t i = 0; i < top; ++i) {
      std::printf("  %zu. %-24s %14.3f ms (%zu spans)\n", i + 1, ranked[i].first.c_str(),
                  ranked[i].second.total_us / 1e3, ranked[i].second.count);
    }
  }

  const auto ops = aggregate_ops(doc);
  if (!ops.empty()) {
    bool any_us = false;
    for (const auto& [name, s] : ops) any_us = any_us || s.self_us >= 0;
    std::printf("\n%-24s %12s", "primitive", "count");
    if (any_us) std::printf(" %14s", "total_us");
    std::printf("\n");
    for (const auto& [name, s] : ops) {
      std::printf("%-24s %12.0f", name.c_str(), s.count);
      if (any_us) {
        if (s.self_us >= 0) {
          std::printf(" %14.1f", s.self_us);
        } else {
          std::printf(" %14s", "-");
        }
      }
      std::printf("\n");
    }
  }

  const auto mem = aggregate_mem(doc);
  if (!mem.empty()) {
    std::printf("\n%-24s %14s\n", "phase", "mem_peak_mib");
    for (const auto& [phase, bytes] : mem) {
      std::printf("%-24s %14.1f\n", phase.c_str(), bytes / (1024.0 * 1024.0));
    }
  }
  return 0;
}

int cmd_diff(const std::string& a_path, const std::string& b_path) {
  const yoso::json::Value doc_a = yoso::json::parse(read_input(a_path));
  const yoso::json::Value doc_b = yoso::json::parse(read_input(b_path));

  // Traces from different obs generations count different things; deltas
  // then reflect instrumentation drift, not behavior.  Warn loudly but still
  // diff — the span table is often usable.
  const yoso::json::Value* meta_a = doc_a.find("runMeta");
  const yoso::json::Value* meta_b = doc_b.find("runMeta");
  const double gen_a = meta_a == nullptr ? -1 : meta_a->num_or("obs_generation", -1);
  const double gen_b = meta_b == nullptr ? -1 : meta_b->num_or("obs_generation", -1);
  if (gen_a != gen_b) {
    std::fprintf(stderr,
                 "trace diff: warning: obs generation mismatch (a=%s, b=%s); "
                 "op-count deltas may reflect instrumentation changes, not behavior\n",
                 gen_a < 0 ? "absent" : std::to_string(static_cast<int>(gen_a)).c_str(),
                 gen_b < 0 ? "absent" : std::to_string(static_cast<int>(gen_b)).c_str());
  }

  const auto a = aggregate(doc_a);
  const auto b = aggregate(doc_b);
  std::map<std::string, std::pair<NameStats, NameStats>> merged;
  for (const auto& [name, s] : a) merged[name].first = s;
  for (const auto& [name, s] : b) merged[name].second = s;
  std::printf("%-24s %10s %10s %14s\n", "span", "count_a", "count_b", "d_total_ms");
  bool differs = false;
  for (const auto& [name, pair] : merged) {
    const auto& [sa, sb] = pair;
    if (sa.count != sb.count || sa.total_us != sb.total_us) differs = true;
    std::printf("%-24s %10zu %10zu %14.3f\n", name.c_str(), sa.count, sb.count,
                (sb.total_us - sa.total_us) / 1e3);
  }

  // Op-count comparison: final per-primitive counts.  Counts are
  // deterministic, so any delta is a real behavioral difference.
  const auto oa = aggregate_ops(doc_a);
  const auto ob = aggregate_ops(doc_b);
  if (!oa.empty() || !ob.empty()) {
    std::map<std::string, std::pair<double, double>> op_merged;
    for (const auto& [name, s] : oa) op_merged[name].first = s.count;
    for (const auto& [name, s] : ob) op_merged[name].second = s.count;
    std::printf("\n%-24s %12s %12s %12s\n", "primitive", "count_a", "count_b", "delta");
    for (const auto& [name, pair] : op_merged) {
      if (pair.first != pair.second) differs = true;
      std::printf("%-24s %12.0f %12.0f %+12.0f\n", name.c_str(), pair.first, pair.second,
                  pair.second - pair.first);
    }
  }
  return differs ? 1 : 0;
}

int cmd_export(const std::string& path, const std::string& cat) {
  const yoso::json::Value doc = yoso::json::parse(read_input(path));
  const yoso::json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "trace export: missing traceEvents\n");
    return 1;
  }
  yoso::json::Writer w;
  w.begin_object();
  w.field("displayTimeUnit", doc.str_or("displayTimeUnit", "ms"));
  w.key("traceEvents").begin_array();
  std::size_t kept = 0;
  for (const auto& ev : events->items) {
    const bool meta = ev.str_or("ph", "") == "M";
    if (!meta && !cat.empty() && ev.str_or("cat", "") != cat) continue;
    yoso::json::write(w, ev);
    if (!meta) ++kept;
  }
  w.end_array();
  w.end_object();
  write_output("", w.take());
  std::fprintf(stderr, "kept %zu events\n", kept);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "run" || cmd == "costs" || cmd == "critpath") {
      RunOptions opt;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
          opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
          opt.n = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--width") == 0 && i + 1 < argc) {
          opt.width = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--degrade") == 0) {
          opt.degrade = true;
        } else if (std::strcmp(argv[i], "--wall") == 0) {
          opt.wall = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          opt.out = argv[++i];
        } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
          opt.report = argv[++i];
        } else if (std::strcmp(argv[i], "--silence") == 0 && i + 1 < argc) {
          opt.silence = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--churn") == 0 && i + 1 < argc) {
          opt.churn = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
          opt.lanes = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--perfetto") == 0 && i + 1 < argc) {
          opt.perfetto = argv[++i];
        } else {
          return usage();
        }
      }
      if (cmd == "critpath") return cmd_critpath(opt);
      return cmd == "run" ? cmd_run(opt) : cmd_costs(opt);
    }
    if (cmd == "check") return cmd_check(argc > 2 ? argv[2] : "");
    if (cmd == "summarize") return cmd_summarize(argc > 2 ? argv[2] : "");
    if (cmd == "diff" && argc > 3) return cmd_diff(argv[2], argv[3]);
    if (cmd == "export") {
      std::string path, cat;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cat") == 0 && i + 1 < argc) {
          cat = argv[++i];
        } else {
          path = argv[i];
        }
      }
      if (path.empty()) return usage();
      return cmd_export(path, cat);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace: %s\n", e.what());
    return 1;
  }
  return usage();
}
