// E5: fail-stop tolerance (Section 5.4).
//
// At n = 8, eps = 0.25 the paper's trade-off is: full packing k - 1 = n*eps
// maximizes online savings but tolerates no silent honest parties; halving
// the packing to k - 1 = n*eps/2 tolerates up to n*eps of them.  This bench
// sweeps the number of fail-stop roles per committee under both packings
// (with t active corruptions also present) and reports completion.
//
// The second table sweeps the gap eps with the degradation driver on and
// off: a strict run that aborts on silence is re-run with the Section 5.4
// parameterization, and the recovery's true communication cost (retry
// traffic plus the sunk strict attempt) lands in BENCH_comm.json under
// "failstop_degradation".
#include <cstdio>
#include <sstream>

#include "chaos/campaign.hpp"
#include "circuit/workloads.hpp"
#include "mpc/protocol.hpp"
#include "perf/benchfile.hpp"

using namespace yoso;

namespace {

std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 16))));
    }
  }
  return inputs;
}

const char* attempt(const ProtocolParams& params, unsigned failstops, std::uint64_t seed) {
  Circuit c = wide_mul_circuit(4);
  auto inputs = make_inputs(c, seed);
  try {
    YosoMpc mpc(params, c,
                AdversaryPlan::fixed(params.n, params.t, failstops,
                                     MaliciousStrategy::BadShare),
                seed);
    auto res = mpc.run(inputs);
    auto expected = c.eval(inputs, mpc.plaintext_modulus());
    return (res.outputs == expected) ? "ok" : "WRONG";
  } catch (const ProtocolAbort&) {
    return "stall";
  } catch (const std::invalid_argument&) {
    return "n/a";
  }
}

}  // namespace

int main() {
  const unsigned n = 8;
  const double eps = 0.25;
  auto full = ProtocolParams::for_gap(n, eps, 128, /*failstop_mode=*/false);
  auto half = ProtocolParams::for_gap(n, eps, 128, /*failstop_mode=*/true);

  std::printf("=== E5: fail-stop tolerance at n = %u, eps = %.2f, t = %u active ===\n", n,
              eps, full.t);
  std::printf("full packing k = %u (k-1 = n*eps):    tolerates %u fail-stops by design\n",
              full.k, n - full.t - full.recon_threshold());
  std::printf("half packing k = %u (k-1 = n*eps/2):  tolerates %u fail-stops by design\n\n",
              half.k, n - half.t - half.recon_threshold());

  std::printf("%12s", "fail-stops:");
  for (unsigned f = 0; f <= 4; ++f) std::printf("%8u", f);
  std::printf("\n%12s", "full k:");
  for (unsigned f = 0; f <= 4; ++f) std::printf("%8s", attempt(full, f, 9300 + f));
  std::printf("\n%12s", "half k:");
  for (unsigned f = 0; f <= 4; ++f) std::printf("%8s", attempt(half, f, 9400 + f));
  std::printf("\n\n'ok' = completed with correct outputs, 'stall' = fewer than\n"
              "t+2(k-1)+1 verified shares survived (no output delivery).\n");
  std::printf("Paper's claim: halving k buys tolerance of ~n*eps = %u fail-stops while\n"
              "full packing stalls — the crossover above reproduces it.\n",
              static_cast<unsigned>(n * eps));

  // --- eps sweep with the degradation driver on/off -------------------------
  // Strict packing maximizes savings; when silence kills it, the driver
  // re-runs under Section 5.4 parameters.  The sweep shows where recovery
  // kicks in and what it costs relative to giving up.
  std::printf("\n=== eps sweep x degradation driver (n = %u, %u fail-stops) ===\n", n, 2u);
  std::printf("%8s%8s%12s%12s%16s%16s\n", "eps", "degr", "outcome", "recovered", "total_bytes",
              "sunk_bytes");
  std::ostringstream json;
  json << "{\"n\":" << n << ",\"failstops\":2,\"sweep\":[";
  bool first = true;
  for (double e : {0.125, 0.25}) {
    for (bool degrade : {false, true}) {
      chaos::FaultSchedule s;
      s.seed = 9500;
      s.n = n;
      s.eps = e;
      s.paillier_bits = 128;
      s.circuit_width = 4;
      s.malicious = ProtocolParams::for_gap(n, e, 128).t;
      s.failstop = 2;
      s.degradation = degrade;
      chaos::RunReport r = chaos::CampaignRunner::run_one(s);
      std::printf("%8.3f%8s%12s%12s%16zu%16zu\n", e, degrade ? "on" : "off",
                  chaos::outcome_name(r.outcome), r.recovered ? "yes" : "no", r.total_bytes,
                  r.strict_attempt_bytes);
      json << (first ? "" : ",") << "{\"eps\":" << e << ",\"degradation\":" << (degrade ? 1 : 0)
           << ",\"outcome\":\"" << chaos::outcome_name(r.outcome)
           << "\",\"recovered\":" << (r.recovered ? 1 : 0) << ",\"total_bytes\":" << r.total_bytes
           << ",\"strict_attempt_bytes\":" << r.strict_attempt_bytes << "}";
      first = false;
    }
  }
  json << "]}";
  perf::merge_bench_json("BENCH_comm.json", "failstop_degradation", json.str());
  return 0;
}
