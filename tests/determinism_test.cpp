// Replay-determinism harness: every seeded entry point must produce
// byte-identical reports when run again from the same seed.  This is the
// dynamic counterpart of the nondeterminism/prg-discipline lint rules — the
// property the deterministic multi-core engine will rely on is that a run
// is a pure function of its seeds, with no hidden state leaking between
// runs through the obs singletons or anywhere else.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "chaos/campaign.hpp"
#include "circuit/workloads.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "perf/critpath.hpp"
#include "perf/sweep.hpp"
#include "service/service.hpp"

namespace yoso {
namespace {

// Runs `body` from a clean observability slate and returns its report.  The
// obs singletons are process-global (reviewed mutable-global whitelist
// entries), so a replay must reset them or counters would accumulate across
// replays and mask — or fake — divergence.
std::string replay(const std::function<std::string()>& body) {
  obs::metrics().reset();
  obs::tracer().reset();
  obs::timeseries().reset();
  obs::profiler().reset();
  return body();
}

void expect_replay_identical(const std::function<std::string()>& body) {
  const std::string first = replay(body);
  const std::string second = replay(body);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "replay diverged";
}

std::vector<std::vector<mpz_class>> seeded_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 16))));
    }
  }
  return inputs;
}

TEST(DeterminismTest, ProtocolOverNetBulletinReplays) {
  expect_replay_identical([] {
    auto params = ProtocolParams::for_gap(4, 0.25, 96);
    Circuit c = statistics_circuit(3);
    auto inputs = seeded_inputs(c, 4242);
    Ledger ledger;
    net::NetBulletin board(ledger, net::NetConfig{});
    YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), 4242, &board);
    auto result = mpc.run(inputs);
    board.flush();
    std::ostringstream ss;
    for (const auto& v : result.outputs) ss << v << "\n";
    ss << board.report_json() << "\n" << mpc.ledger().report_json();
    return ss.str();
  });
}

TEST(DeterminismTest, ChaosCampaignReplays) {
  expect_replay_identical([] { return chaos::CampaignRunner::run_campaign(42, 3).to_json(); });
}

TEST(DeterminismTest, PerfSweepPointReplays) {
  expect_replay_identical([] {
    return perf::online_comm_json({perf::run_online_point(4)});
  });
  // The audit point carries the "profile" op counts as well as the ledgers.
  expect_replay_identical([] {
    const perf::AuditPoint pt = perf::run_audit_point(4);
    return perf::scaling_audit_json({pt}) + "\n" + perf::profile_sweep_json({pt});
  });
}

TEST(DeterminismTest, ServiceRunReplays) {
  expect_replay_identical([] {
    service::ServiceConfig cfg;
    cfg.n = 4;
    cfg.eps = 0.25;
    cfg.paillier_bits = 96;
    cfg.seed = 7;
    service::MpcService svc(cfg);
    for (unsigned s = 0; s < 2; ++s) {
      service::SessionRequest req;
      req.tag = "det-" + std::to_string(s);
      req.circuit = statistics_circuit(2);
      req.inputs = {{mpz_class(10 + s)}, {mpz_class(20 + s)}};
      svc.submit_at(0.01 * (s + 1), std::move(req));
    }
    svc.shutdown_at(10.0);
    svc.run();
    return svc.report_json();
  });
}

// The profiler's determinism split (src/obs/profile.hpp): per-primitive op
// COUNTS are a pure function of the seeded run, so the counts-only snapshot
// must be byte-identical whether timing capture is enabled or muted — and
// across replays in either mode.
TEST(DeterminismTest, OpCountsIdenticalEnabledVsMuted) {
  auto body = [] {
    auto params = ProtocolParams::for_gap(4, 0.25, 96);
    Circuit c = statistics_circuit(3);
    auto inputs = seeded_inputs(c, 4242);
    YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), 4242);
    (void)mpc.run(inputs);
    return obs::profiler().op_costs_json(false);
  };
  obs::set_enabled(true);
  const std::string enabled_counts = replay(body);
  obs::set_enabled(false);
  const std::string muted_counts = replay(body);
  obs::set_enabled(true);
  ASSERT_FALSE(enabled_counts.empty());
  EXPECT_NE(enabled_counts, "{}");
  EXPECT_EQ(enabled_counts, muted_counts) << "op counts depend on the mute switch";
}

// The causality observatory end to end (src/perf/critpath.hpp): DAG
// reconstruction + reference-table pricing + the k-worker forecast are all
// counts-driven, so a same-seed replay must reproduce the whole critpath
// bench point — crit report and DAG summary — byte for byte.
TEST(DeterminismTest, CritpathPointReplays) {
  expect_replay_identical([] {
    perf::CritpathOptions opt;
    opt.n = 4;
    const perf::CritpathPoint pt = perf::run_critpath_point(opt);
    return pt.crit_json + "\n" + pt.dag_json;
  });
}

// A churn schedule that only delivers after a Section 5.4 resubmission must
// replay byte-identically — retry accounting, backoff, ledger markers and
// all.  Campaign seed 42, index 2 is a known recovering schedule.
TEST(DeterminismTest, ChurnServiceRunWithRetryReplays) {
  expect_replay_identical([] {
    const auto s = chaos::CampaignRunner::churn_campaign_schedule(42, 2);
    const chaos::RunReport r = chaos::CampaignRunner::run_one(s);
    EXPECT_EQ(r.outcome, chaos::Outcome::Recovered);
    EXPECT_GT(r.svc_resubmits, 0u);
    return r.to_json();
  });
}

}  // namespace
}  // namespace yoso
