#include "mpc/contrib.hpp"

#include "mpc/round.hpp"
#include "nizk/mult_proof.hpp"
#include "nizk/plaintext_proof.hpp"
#include "obs/trace.hpp"
#include "wire/codec.hpp"

namespace yoso {

std::vector<mpz_class> contribute_randoms(const ThresholdPK& tpk, Committee& com,
                                          std::size_t count, Phase phase,
                                          const std::string& label, Bulletin& bulletin,
                                          Rng& rng) {
  obs::Span span("contrib.randoms", "contrib");
  span.attr("committee", com.name).attr("count", count).attr("phase", phase_name(phase));
  auto build = [&](unsigned, RoleFault fault, std::size_t& bytes) {
    ContribMsg msg;
    for (std::size_t v = 0; v < count; ++v) {
      SecretMpz m(rng.below(tpk.pk.ns));
      mpz_class r;
      mpz_class ct = tpk.pk.enc_secret(m, rng, &r);
      PlaintextProof proof = prove_plaintext(tpk.pk, ct, m, SecretMpz(r), rng);
      if (fault.bad_share) {
        ct = tpk.pk.add(ct, tpk.pk.enc(mpz_class(1), rng));  // proof no longer matches
      }
      if (fault.bad_proof) proof.inner.z += 1;
      bytes += mpz_wire_size(ct) + proof.wire_bytes();
      msg.cts.push_back(std::move(ct));
      msg.proofs.push_back(std::move(proof));
    }
    return msg;
  };
  const auto round = post_round(com, phase, label, bulletin, count, build, encode_contrib_msg);

  // Each value is the sum of every verified contribution.
  std::vector<mpz_class> out(count);
  for (std::size_t v = 0; v < count; ++v) {
    std::optional<mpz_class> sum;
    round.gate(
        GateRule::Sum, tpk.t + 1,
        [&](unsigned, const ContribMsg& m) {
          return verify_plaintext(tpk.pk, m.cts[v], m.proofs[v]);
        },
        [&](unsigned, const ContribMsg& m) {
          sum = sum ? tpk.pk.add(*sum, m.cts[v]) : m.cts[v];
        });
    out[v] = std::move(*sum);
  }
  return out;
}

std::vector<BeaverTriple> make_beaver_triples(const ThresholdPK& tpk, Committee& com_a,
                                              Committee& com_b, std::size_t count, Phase phase,
                                              Bulletin& bulletin, Rng& rng) {
  obs::Span span("contrib.beaver", "contrib");
  span.attr("committee", com_b.name).attr("count", count).attr("phase", phase_name(phase));
  std::vector<mpz_class> c_a =
      contribute_randoms(tpk, com_a, count, phase, "beaver.a", bulletin, rng);

  auto build = [&](unsigned, RoleFault fault, std::size_t& bytes) {
    BeaverMsg msg;
    for (std::size_t g = 0; g < count; ++g) {
      SecretMpz b(rng.below(tpk.pk.ns));
      mpz_class rb, rho;
      mpz_class cb = tpk.pk.enc_secret(b, rng, &rb);
      mpz_class cc = tpk.pk.rerandomize(tpk.pk.scal_secret(c_a[g], b), rng, &rho);
      if (fault.bad_share) cc = tpk.pk.add(cc, tpk.pk.enc(mpz_class(1), rng));  // c no longer a*b
      MultProof proof = prove_mult(tpk.pk, c_a[g], cb, cc, b, SecretMpz(rb), SecretMpz(rho), rng);
      if (fault.bad_proof) proof.z += 1;
      bytes += mpz_wire_size(cb) + mpz_wire_size(cc) + proof.wire_bytes();
      msg.cb.push_back(std::move(cb));
      msg.cc.push_back(std::move(cc));
      msg.proofs.push_back(std::move(proof));
    }
    return msg;
  };
  const auto round =
      post_round(com_b, phase, "beaver.bc", bulletin, 2 * count, build, encode_beaver_msg);

  std::vector<BeaverTriple> out(count);
  for (std::size_t g = 0; g < count; ++g) {
    std::optional<mpz_class> sb, sc;
    round.gate(
        GateRule::Sum, tpk.t + 1,
        [&](unsigned, const BeaverMsg& m) {
          return verify_mult(tpk.pk, c_a[g], m.cb[g], m.cc[g], m.proofs[g]);
        },
        [&](unsigned, const BeaverMsg& m) {
          sb = sb ? tpk.pk.add(*sb, m.cb[g]) : m.cb[g];
          sc = sc ? tpk.pk.add(*sc, m.cc[g]) : m.cc[g];
        });
    out[g] = BeaverTriple{c_a[g], std::move(*sb), std::move(*sc)};
  }
  return out;
}

}  // namespace yoso
