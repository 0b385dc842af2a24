// chaos — the fault-injection campaign driver.
//
//   chaos campaign [--seed S] [--count N] [--verbose]
//       Run N seeded schedules; print the summary JSON; exit nonzero when
//       any run breaks the robustness contract.
//   chaos service [--seed S] [--count N] [--verbose]
//       Like campaign, but every schedule targets an MpcService
//       (src/service): admission, queueing and the triple pool under the
//       same layered faults — pool starvation and mid-session fail-stop
//       included — checked against the same contract.
//   chaos churn [--seed S] [--count N] [--verbose]
//       WAN/churn resilience campaign: service schedules plus heterogeneous
//       link classes, background churn, the phase watchdog and the Section
//       5.4 resubmission budget, checked against the resilience contract
//       (bounded resubmission, ledger-balanced retry bytes).
//   chaos sample [--seed S] [--churn]
//       Print the schedule S deterministically expands to (no run).
//   chaos replay '<schedule-json>'
//       Re-run one schedule from its JSON reproducer; print its RunReport.
//   chaos minimize [--violation] '<schedule-json>'
//       Shrink the schedule while it keeps failing to deliver correct
//       output (with --violation: while it keeps breaking the robustness
//       contract); print the minimal reproducer.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "chaos/campaign.hpp"
#include "chaos/minimize.hpp"
#include "perf/sweep.hpp"

namespace {

using yoso::chaos::CampaignRunner;
using yoso::chaos::FaultSchedule;
using yoso::chaos::RunReport;
using yoso::chaos::ScheduleMinimizer;

int usage() {
  std::fprintf(stderr,
               "usage: chaos campaign [--seed S] [--count N] [--verbose]\n"
               "       chaos service  [--seed S] [--count N] [--verbose]\n"
               "       chaos churn    [--seed S] [--count N] [--verbose]\n"
               "       chaos sample   [--seed S] [--churn]\n"
               "       chaos replay   '<schedule-json>'\n"
               "       chaos minimize [--violation] '<schedule-json>'\n");
  return 2;
}

struct Options {
  std::uint64_t seed = 1;
  std::size_t count = 50;
  bool verbose = false;
  bool violation = false;
  bool churn = false;
  std::string json;
};

// Numeric values go through perf::parse_uint, so a typo prints usage
// instead of running seed 0 or zero schedules (a vacuous pass).
bool parse(int argc, char** argv, Options& opt) {
  int i = 2;
  auto number = [&](auto& field, std::uint64_t lo) {
    ++i;
    return yoso::perf::parse_uint_flag("chaos", argv[i - 1], argv[i], lo, field);
  };
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!number(opt.seed, 0)) return false;
    } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      if (!number(opt.count, 1)) return false;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      opt.verbose = true;
    } else if (std::strcmp(argv[i], "--violation") == 0) {
      opt.violation = true;
    } else if (std::strcmp(argv[i], "--churn") == 0) {
      opt.churn = true;
    } else if (argv[i][0] == '{') {
      opt.json = argv[i];
    } else {
      return false;
    }
  }
  return true;
}

int cmd_campaign(const Options& opt) {
  auto summary = CampaignRunner::run_campaign(opt.seed, opt.count, [&](const RunReport& r) {
    if (opt.verbose || !r.acceptable()) std::printf("%s\n", r.to_json().c_str());
  });
  std::printf("%s\n", summary.to_json().c_str());
  return summary.all_acceptable() ? 0 : 1;
}

int cmd_service(const Options& opt) {
  auto summary =
      CampaignRunner::run_service_campaign(opt.seed, opt.count, [&](const RunReport& r) {
        if (opt.verbose || !r.acceptable()) std::printf("%s\n", r.to_json().c_str());
      });
  std::printf("%s\n", summary.to_json().c_str());
  return summary.all_acceptable() ? 0 : 1;
}

int cmd_churn(const Options& opt) {
  auto summary =
      CampaignRunner::run_churn_campaign(opt.seed, opt.count, [&](const RunReport& r) {
        if (opt.verbose || !r.acceptable()) std::printf("%s\n", r.to_json().c_str());
      });
  std::printf("%s\n", summary.to_json().c_str());
  return summary.all_acceptable() ? 0 : 1;
}

int cmd_sample(const Options& opt) {
  const FaultSchedule s =
      opt.churn ? FaultSchedule::random_churn(opt.seed) : FaultSchedule::random(opt.seed);
  std::printf("%s\n", s.to_json().c_str());
  return 0;
}

int cmd_replay(const Options& opt) {
  if (opt.json.empty()) return usage();
  RunReport r = CampaignRunner::run_one(FaultSchedule::from_json(opt.json));
  std::printf("%s\n", r.to_json().c_str());
  return r.acceptable() ? 0 : 1;
}

int cmd_minimize(const Options& opt) {
  if (opt.json.empty()) return usage();
  FaultSchedule s = FaultSchedule::from_json(opt.json);
  const bool violation = opt.violation;
  auto res = ScheduleMinimizer::minimize(s, [violation](const FaultSchedule& c) {
    RunReport r = CampaignRunner::run_one(c);
    if (violation) return !r.acceptable();
    return r.outcome != yoso::chaos::Outcome::Correct &&
           r.outcome != yoso::chaos::Outcome::Recovered;
  });
  std::fprintf(stderr, "minimized in %zu predicate runs; %u active fault dimension(s)\n",
               res.tests, res.schedule.active_faults());
  std::printf("%s\n", res.schedule.to_json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "campaign") return cmd_campaign(opt);
    if (cmd == "service") return cmd_service(opt);
    if (cmd == "churn") return cmd_churn(opt);
    if (cmd == "sample") return cmd_sample(opt);
    if (cmd == "replay") return cmd_replay(opt);
    if (cmd == "minimize") return cmd_minimize(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos: %s\n", e.what());
    return 2;
  }
  return usage();
}
