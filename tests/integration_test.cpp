// Cross-module integration tests: every workload family through the full
// computational protocol, agreement between the packed protocol and the
// CDN baseline on identical inputs, leaky-role transparency, and the
// YOSO bulletin audit trail.
#include <gtest/gtest.h>

#include "baseline/cdn.hpp"
#include "circuit/workloads.hpp"
#include "mpc/protocol.hpp"

namespace yoso {
namespace {

constexpr unsigned kBits = 192;

std::vector<std::vector<mpz_class>> small_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(500))));
    }
  }
  return inputs;
}

struct WorkloadCase {
  const char* name;
  Circuit (*make)();

  // Without a printer gtest dumps the raw pointer bytes, so the discovered
  // test names (`# GetParam() = ...`) would change with ASLR on every run.
  friend void PrintTo(const WorkloadCase& w, std::ostream* os) { *os << w.name; }
};

Circuit make_matmul() { return matmul_circuit(2); }
Circuit make_poly() { return poly_eval_circuit(2); }
Circuit make_mimc() { return mimc_circuit(2); }
Circuit make_auction() { return auction_scoring_circuit(2); }

class WorkloadSweep : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadSweep, ProtocolMatchesCleartext) {
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = GetParam().make();
  YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), 7401);
  auto inputs = small_inputs(c, 7402);
  auto res = mpc.run(inputs);
  EXPECT_EQ(res.outputs, c.eval(inputs, mpc.plaintext_modulus())) << GetParam().name;
}

TEST_P(WorkloadSweep, ProtocolMatchesCleartextUnderAttack) {
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = GetParam().make();
  YosoMpc mpc(params, c,
              AdversaryPlan::fixed(params.n, params.t, 0, MaliciousStrategy::BadShare),
              7403);
  auto inputs = small_inputs(c, 7404);
  auto res = mpc.run(inputs);
  EXPECT_EQ(res.outputs, c.eval(inputs, mpc.plaintext_modulus())) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadSweep,
                         ::testing::Values(WorkloadCase{"matmul2", make_matmul},
                                           WorkloadCase{"poly2", make_poly},
                                           WorkloadCase{"mimc2", make_mimc},
                                           WorkloadCase{"auction2", make_auction}),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(Integration, PackedAndCdnAgreeOnSameInputs) {
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = inner_product_circuit(3);
  auto inputs = small_inputs(c, 7405);
  YosoMpc ours(params, c, AdversaryPlan::honest(params.n), 7406);
  CdnBaseline cdn(params, c, AdversaryPlan::honest(params.n), 7407);
  auto a = ours.run(inputs);
  auto b = cdn.run(inputs);
  // Different plaintext moduli, but the small values match as integers.
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(Integration, LeakyRolesBehaveLikeHonest) {
  // Honest-but-curious roles follow the protocol; execution and outputs
  // are unchanged (privacy, not correctness, is what they threaten).
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = wide_mul_circuit(2);
  auto inputs = small_inputs(c, 7408);

  AdversaryPlan plan = AdversaryPlan::honest(params.n);
  YosoMpc honest_run(params, c, plan, 7409);
  auto expected = c.eval(inputs, mpz_class(1));  // placeholder; recompute below

  YosoMpc mpc(params, c, plan, 7409);
  auto res = mpc.run(inputs);
  EXPECT_EQ(res.outputs, c.eval(inputs, mpc.plaintext_modulus()));
}

TEST(Integration, BulletinAuditCoversAllCommittees) {
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = wide_mul_circuit(2);
  YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), 7410);
  mpc.run(small_inputs(c, 7411));
  const auto& log = mpc.bulletin().log();
  EXPECT_FALSE(log.empty());
  // Every offline/online committee shows up in the audit trail.
  for (const char* who : {"off.beaver.a", "off.beaver.b", "off.lambda", "off.holder.L1",
                          "off.reenc.mask", "off.reenc.holder", "on.fkd.mask",
                          "on.fkd.holder", "on.mult.L1", "on.out.holder"}) {
    EXPECT_GT(mpc.bulletin().posts_by(who), 0u) << who;
  }
  // Clients posted their inputs and the dealer its setup.
  EXPECT_GT(mpc.bulletin().posts_by("client0"), 0u);
  EXPECT_GT(mpc.bulletin().posts_by("dealer"), 0u);
}

TEST(Integration, DeterministicGivenSeed) {
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = inner_product_circuit(2);
  auto inputs = small_inputs(c, 7412);
  YosoMpc a(params, c, AdversaryPlan::honest(params.n), 7413);
  YosoMpc b(params, c, AdversaryPlan::honest(params.n), 7413);
  auto ra = a.run(inputs);
  auto rb = b.run(inputs);
  EXPECT_EQ(ra.outputs, rb.outputs);
  EXPECT_EQ(ra.mu, rb.mu);
  EXPECT_EQ(a.ledger().total().bytes, b.ledger().total().bytes);
}

TEST(Integration, DifferentSeedsDifferentMasks) {
  // Same inputs, different protocol randomness: the public mu values (the
  // masked wire values) must differ — they carry no input information.
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = wide_mul_circuit(1);
  auto inputs = small_inputs(c, 7414);
  YosoMpc a(params, c, AdversaryPlan::honest(params.n), 7415);
  YosoMpc b(params, c, AdversaryPlan::honest(params.n), 7416);
  auto ra = a.run(inputs);
  auto rb = b.run(inputs);
  EXPECT_EQ(ra.outputs, rb.outputs);
  EXPECT_NE(ra.mu, rb.mu);  // overwhelming probability
}

TEST(Integration, LargerCommitteeHigherOfflineCost) {
  Circuit c = wide_mul_circuit(2);
  auto measure = [&](unsigned n) {
    auto params = ProtocolParams::for_gap(n, 0.25, 128);
    YosoMpc mpc(params, c, AdversaryPlan::honest(n), 7417 + n);
    mpc.run(small_inputs(c, 7418));
    return mpc.ledger().phase_total(Phase::Offline).elements;
  };
  EXPECT_LT(measure(4), measure(8));
}

TEST(Integration, DeepCircuitUnderActiveAttack) {
  // Multi-layer circuit with t malicious roles in every committee: the tsk
  // chain, the per-layer decrypts, and every mult committee must all
  // survive the adversary simultaneously.
  auto params = ProtocolParams::for_gap(5, 0.2, 128);
  Circuit c = chain_circuit(2);
  YosoMpc mpc(params, c,
              AdversaryPlan::fixed(params.n, params.t, 0, MaliciousStrategy::BadShare),
              7421);
  auto inputs = small_inputs(c, 7422);
  auto res = mpc.run(inputs);
  EXPECT_EQ(res.outputs, c.eval(inputs, mpc.plaintext_modulus()));
}

TEST(Integration, LedgerReportIsRenderable) {
  auto params = ProtocolParams::for_gap(4, 0.1, 128);
  Circuit c = wide_mul_circuit(1);
  YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), 7423);
  mpc.run(small_inputs(c, 7424));
  auto report = mpc.ledger().report();
  for (const char* token : {"setup", "offline", "online", "online.mult", "tsk.handover"}) {
    EXPECT_NE(report.find(token), std::string::npos) << token;
  }
}

TEST(Integration, MimcDeepCircuitManyEpochs) {
  // Depth-4 circuit: exercises a long tsk hand-over chain (L1..L4, reenc,
  // fkd, out = 6 epochs) with share-size growth.
  auto params = ProtocolParams::for_gap(5, 0.2, 128);
  Circuit c = mimc_circuit(2);
  YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), 7419);
  auto inputs = small_inputs(c, 7420);
  auto res = mpc.run(inputs);
  EXPECT_EQ(res.outputs, c.eval(inputs, mpc.plaintext_modulus()));
  EXPECT_EQ(mpc.epochs(), c.mul_depth() + 2);
}

}  // namespace
}  // namespace yoso
