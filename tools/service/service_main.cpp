// service — the MPC-as-a-service driver CLI.
//
//   service serve  [--sessions N] [--batch B] [--gateways G] [--seed S]
//       Run a secure-aggregation load and print one log line per session
//       (state, pool hit/miss, virtual latency) plus the service stats.
//   service load   [--sessions N] [--batch B] [--gateways G] [--seed S]
//       Run the same load headless; print the stats as one JSON line; exit
//       nonzero unless every session completed and verified.
//   service report [--sessions N] [--batch B] [--gateways G] [--seed S]
//       Run the load and print the full deterministic service report JSON
//       (config, stats, pool, per-session records, aggregate ledger).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/json.hpp"
#include "perf/sweep.hpp"
#include "service/service.hpp"
#include "service/workloads.hpp"

namespace {

using yoso::json::Writer;
using yoso::service::AggregationConfig;
using yoso::service::AggregationWorkload;
using yoso::service::MpcService;
using yoso::service::ServiceConfig;
using yoso::service::SessionState;

int usage() {
  std::fprintf(stderr,
               "usage: service serve  [--sessions N] [--batch B] [--gateways G] [--seed S]\n"
               "       service load   [--sessions N] [--batch B] [--gateways G] [--seed S]\n"
               "       service report [--sessions N] [--batch B] [--gateways G] [--seed S]\n");
  return 2;
}

struct Options {
  std::uint64_t sessions = 20;
  std::uint64_t batch = 5'000;
  unsigned gateways = 4;
  std::uint64_t seed = 2025;
};

// Numeric values go through perf::parse_uint, so a typo prints usage
// instead of running a truncated or zero load.
bool parse(int argc, char** argv, Options& opt) {
  int i = 2;
  auto number = [&](auto& field, std::uint64_t lo) {
    ++i;
    return yoso::perf::parse_uint_flag("service", argv[i - 1], argv[i], lo, field);
  };
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      if (!number(opt.sessions, 1)) return false;
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      if (!number(opt.batch, 1)) return false;
    } else if (std::strcmp(argv[i], "--gateways") == 0 && i + 1 < argc) {
      if (!number(opt.gateways, 1)) return false;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!number(opt.seed, 0)) return false;
    } else {
      return false;
    }
  }
  return true;
}

struct LoadResult {
  std::unique_ptr<MpcService> svc;
  AggregationWorkload workload;
  std::size_t verified = 0;
};

LoadResult run_load(const Options& opt) {
  AggregationConfig acfg;
  acfg.clients_total = opt.sessions * opt.batch;
  acfg.batch_clients = opt.batch;
  acfg.gateways = opt.gateways;
  acfg.seed = opt.seed;
  AggregationWorkload workload(acfg);

  ServiceConfig cfg;
  cfg.n = 4;
  cfg.eps = 0.25;
  cfg.paillier_bits = 96;
  cfg.seed = opt.seed;
  cfg.max_concurrent = 4;
  cfg.max_queue = 64;
  cfg.pool.lanes = 2;
  cfg.pool.capacity = 8;
  cfg.pool_circuit = workload.session_circuit();

  LoadResult out{std::make_unique<MpcService>(cfg), workload, 0};
  for (std::uint64_t b = 0; b < opt.sessions; ++b) {
    auto batch = workload.batch(b);
    out.svc->submit_at(batch.submit_at, std::move(batch.request));
  }
  out.svc->run();
  for (std::uint64_t b = 0; b < opt.sessions; ++b) {
    if (workload.verify(workload.batch(b), out.svc->session(b + 1))) ++out.verified;
  }
  return out;
}

std::string stats_json(const MpcService& svc, std::size_t verified) {
  const auto stats = svc.stats();
  Writer w;
  w.begin_object();
  w.field("submitted", static_cast<std::uint64_t>(stats.submitted));
  w.field("completed", static_cast<std::uint64_t>(stats.completed));
  w.field("failed", static_cast<std::uint64_t>(stats.failed));
  w.field("rejected", static_cast<std::uint64_t>(stats.rejected));
  w.field("verified", static_cast<std::uint64_t>(verified));
  w.field("sessions_per_sec", stats.sessions_per_sec);
  w.field("triple_pool_hit_rate", stats.pool.hit_rate());
  w.field("session_latency_p50_s", stats.latency_p50_s);
  w.field("session_latency_p99_s", stats.latency_p99_s);
  w.field("resubmits", static_cast<std::uint64_t>(stats.resubmits));
  w.field("timeouts", static_cast<std::uint64_t>(stats.timeouts));
  w.field("recovered", static_cast<std::uint64_t>(stats.recovered));
  w.field("backoff_wait_s", stats.backoff_wait_s);
  w.field("sunk_bytes", static_cast<std::uint64_t>(stats.sunk_bytes));
  w.key("rejected_by_reason").begin_object();
  for (const auto& [reason, count] : stats.rejected_by_reason) {
    w.field(reason, static_cast<std::uint64_t>(count));
  }
  w.end_object();
  w.end_object();
  return w.take();
}

int cmd_serve(const Options& opt) {
  LoadResult r = run_load(opt);
  for (const auto& rec : r.svc->sessions()) {
    std::printf("[%8.4fs] %-14s %-9s %s latency %.4fs\n", rec->finish_s, rec->tag.c_str(),
                session_state_name(rec->state), rec->pool_hit ? "hit " : "miss",
                rec->latency_s());
  }
  std::printf("%s\n", stats_json(*r.svc, r.verified).c_str());
  return r.verified == opt.sessions ? 0 : 1;
}

int cmd_load(const Options& opt) {
  LoadResult r = run_load(opt);
  std::printf("%s\n", stats_json(*r.svc, r.verified).c_str());
  return r.verified == opt.sessions ? 0 : 1;
}

int cmd_report(const Options& opt) {
  LoadResult r = run_load(opt);
  std::printf("%s\n", r.svc->report_json().c_str());
  return r.verified == opt.sessions ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "serve") return cmd_serve(opt);
    if (cmd == "load") return cmd_load(opt);
    if (cmd == "report") return cmd_report(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service: %s\n", e.what());
    return 2;
  }
  return usage();
}
