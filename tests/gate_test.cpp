// Gate classification: every committee gate of the protocol core, driven
// to an abort by planted malicious and fail-stop roles, must report the
// exact FailureReport (gate label, threshold, verified / invalid / missing)
// the chaos invariants and the Section 5.4 degradation driver read.  One
// surviving case per gate rule pins which posts each gate verifies: a sum
// gate checks every present role, a quorum gate stops at its threshold.
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "circuit/workloads.hpp"
#include "mpc/contrib.hpp"
#include "mpc/protocol.hpp"
#include "mpc/reencrypt.hpp"
#include "obs/profile.hpp"

namespace yoso {
namespace {

constexpr unsigned kBits = 192;

// n = 5, eps = 0.2: t = 1, k = 2, so the t+1 gates need 2 verified posts
// and online.mult needs t + 2(k-1) + 1 = 4.
struct Env {
  ProtocolParams params = ProtocolParams::for_gap(5, 0.2, kBits);
  Rng rng{7301};
  Ledger ledger;
  Bulletin bulletin{ledger};
  ThresholdKeys keys = tkgen(kBits, 1, params.n, params.t, rng);
  DecryptChain chain{keys.tpk, keys.shares, params, bulletin, rng};

  Committee committee(const std::string& name, CommitteeCorruption cor) {
    return make_committee(name, params.paillier_bits,
                          params.exponent_for(params.holder_plain_bits()), std::move(cor), rng);
  }
  std::vector<mpz_class> cts(unsigned count) {
    std::vector<mpz_class> out;
    for (unsigned i = 0; i < count; ++i) out.push_back(keys.tpk.pk.enc(mpz_class(i + 3), rng));
    return out;
  }
};

// The roles of a planted committee: the first `bad` malicious with
// `strategy`, the next `silent` fail-stop, the rest honest.
struct Plant {
  unsigned bad = 0;
  unsigned silent = 0;
  MaliciousStrategy strategy = MaliciousStrategy::BadProof;

  CommitteeCorruption corruption(unsigned n) const {
    return AdversaryPlan::fixed(n, bad, silent, strategy).committee(0);
  }
};

// Runs one gate on `com` (corrupted per the case's Plant); returns the
// number of values the gate produced.
using GateRun = std::function<std::size_t(Env&, Committee& com)>;

struct Expected {
  std::string committee;
  Phase phase;
  std::string gate;
  unsigned threshold, verified, invalid, missing;
};

struct GateCase {
  const char* name;
  GateRun run;
  Plant plant;
  std::optional<Expected> abort;  // nullopt: the gate must survive
  std::uint64_t verifies = 0;     // surviving cases: NIZK verifications the gate ran
};

std::size_t contribution(Env& e, Committee& com) {
  return contribute_randoms(e.keys.tpk, com, 2, Phase::Offline, "r", e.bulletin, e.rng).size();
}

std::size_t beaver(Env& e, Committee& com_b) {
  Committee com_a = e.committee("a", Plant{}.corruption(e.params.n));
  return make_beaver_triples(e.keys.tpk, com_a, com_b, 2, Phase::Offline, e.bulletin, e.rng)
      .size();
}

std::size_t mask(Env& e, Committee& com) {
  const PaillierPK& target = e.keys.dealer_sk.pk;
  return e.chain.run_mask_committee(com, {&target, &target}, Phase::Offline, "t").size();
}

std::size_t pdec(Env& e, Committee& com) {
  return e.chain.run_decrypt_committee(com, e.cts(2), Phase::Offline, "t", nullptr).size();
}

// An empty batch has no pdec gate, so the hand-over is the first gate the
// holder's posts meet.
std::size_t handover(Env& e, Committee& com) {
  Committee next = e.committee("next", Plant{}.corruption(e.params.n));
  e.chain.run_decrypt_committee(com, {}, Phase::Offline, "t", &next);
  return e.chain.epochs();
}

std::vector<GateCase> cases() {
  const MaliciousStrategy bad_share = MaliciousStrategy::BadShare;
  return {
      // Sum gates: every present role is checked, also past t+1 verified.
      {"contribution", contribution, {1, 3}, Expected{"c", Phase::Offline, "r", 2, 1, 1, 3}},
      {"contribution_malice", contribution, {4, 0, bad_share},
       Expected{"c", Phase::Offline, "r", 2, 1, 4, 0}},
      {"contribution_survives", contribution, {1, 0}, std::nullopt, /*5 present x 2=*/10},
      {"beaver_bc", beaver, {1, 3}, Expected{"c", Phase::Offline, "beaver.bc", 2, 1, 1, 3}},
      {"beaver_bc_malice", beaver, {4, 0, bad_share},
       Expected{"c", Phase::Offline, "beaver.bc", 2, 1, 4, 0}},
      // beaver.a (5 honest) and beaver.bc (5 present), 2 values each.
      {"beaver_bc_survives", beaver, {1, 0}, std::nullopt, 20},
      {"mask", mask, {1, 3}, Expected{"c", Phase::Offline, "t.mask", 2, 1, 1, 3}},
      {"mask_malice", mask, {4, 0, bad_share},
       Expected{"c", Phase::Offline, "t.mask", 2, 1, 4, 0}},
      {"mask_survives", mask, {1, 0}, std::nullopt, 10},
      // Quorum gates: checking stops once the threshold has verified.
      {"pdec", pdec, {1, 3}, Expected{"c", Phase::Offline, "t.pdec", 2, 1, 1, 3}},
      {"pdec_malice", pdec, {4, 0, bad_share},
       Expected{"c", Phase::Offline, "t.pdec", 2, 1, 4, 0}},
      // Per value: the bad role 0, then honest roles 1 and 2 meet t+1 = 2.
      {"pdec_survives", pdec, {1, 0}, std::nullopt, 6},
      {"handover", handover, {1, 3}, Expected{"c", Phase::Offline, "tsk.handover", 2, 1, 1, 3}},
      {"handover_malice", handover, {4, 0, bad_share},
       Expected{"c", Phase::Offline, "tsk.handover", 2, 1, 4, 0}},
      // Role 0 fails its first subshare proof; roles 1 and 2 verify all 5.
      {"handover_survives", handover, {1, 0}, std::nullopt, 11},
  };
}

TEST(GateClassification, CommitteeGatesReportExactCounts) {
  for (const GateCase& c : cases()) {
    SCOPED_TRACE(c.name);
    Env e;
    Committee com = e.committee("c", c.plant.corruption(e.params.n));
    const std::uint64_t before = obs::profiler().cell().op_total_count(obs::Op::NizkVerify);
    if (!c.abort) {
      EXPECT_GT(c.run(e, com), 0u);
      EXPECT_EQ(obs::profiler().cell().op_total_count(obs::Op::NizkVerify) - before, c.verifies);
      continue;
    }
    try {
      c.run(e, com);
      ADD_FAILURE() << "gate did not abort";
    } catch (const ProtocolAbort& abort) {
      ASSERT_TRUE(abort.report().has_value()) << abort.what();
      const FailureReport& r = *abort.report();
      const Expected& x = *c.abort;
      EXPECT_EQ(r.kind, FailureKind::Threshold);
      EXPECT_EQ(r.committee, x.committee);
      EXPECT_EQ(r.phase, x.phase);
      EXPECT_EQ(r.gate, x.gate);
      EXPECT_EQ(r.threshold, x.threshold);
      EXPECT_EQ(r.verified, x.verified);
      EXPECT_EQ(r.invalid, x.invalid);
      EXPECT_EQ(r.missing, x.missing);
    }
  }
}

// online.mult needs t + 2(k-1) + 1 = 4 of 5 mu-shares while every other
// gate needs t+1 = 2, so one bad and one silent role per committee pass
// every offline gate and miss exactly this one.
TEST(GateClassification, OnlineMultReportsExactCounts) {
  const auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  ASSERT_EQ(params.recon_threshold(), 4u);
  Circuit circuit = wide_mul_circuit(2);
  std::vector<std::vector<mpz_class>> inputs(circuit.num_clients());
  for (const auto& g : circuit.gates()) {
    if (g.kind == GateKind::Input) inputs[g.client].push_back(mpz_class(7));
  }
  for (MaliciousStrategy s : {MaliciousStrategy::BadProof, MaliciousStrategy::BadShare}) {
    SCOPED_TRACE(static_cast<int>(s));
    YosoMpc mpc(params, circuit, AdversaryPlan::fixed(params.n, 1, 1, s), 301);
    try {
      mpc.run(inputs);
      ADD_FAILURE() << "online.mult did not abort";
    } catch (const ProtocolAbort& abort) {
      ASSERT_TRUE(abort.report().has_value()) << abort.what();
      const FailureReport& r = *abort.report();
      EXPECT_EQ(r.kind, FailureKind::Threshold);
      EXPECT_EQ(r.committee, "on.mult.L1");
      EXPECT_EQ(r.phase, Phase::Online);
      EXPECT_EQ(r.gate, "online.mult");
      EXPECT_EQ(r.threshold, 4u);
      EXPECT_EQ(r.verified, 3u);
      EXPECT_EQ(r.invalid, 1u);
      EXPECT_EQ(r.missing, 1u);
    }
  }

  // Surviving case: one bad role leaves exactly the 4 shares the quorum
  // needs, and the outputs still match the cleartext.
  YosoMpc mpc(params, circuit,
              AdversaryPlan::fixed(params.n, 1, 0, MaliciousStrategy::BadProof), 302);
  OnlineResult res = mpc.run(inputs);
  EXPECT_EQ(res.outputs, circuit.eval(inputs, mpc.plaintext_modulus()));
}

}  // namespace
}  // namespace yoso
