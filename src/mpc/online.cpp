#include "mpc/online.hpp"

#include <stdexcept>

#include "field/zn_ring.hpp"
#include "mpc/round.hpp"
#include "nizk/link_proof.hpp"  // kKappa/kStat (bounds)
#include "nizk/root_proof.hpp"
#include "obs/trace.hpp"
#include "sharing/packed.hpp"
#include "wire/codec.hpp"

namespace yoso {

namespace {

// Public derivation of one mu-share from a role's published P_int.
// Returns the share's value; validity was already established by the
// RootProof against the public pad ciphertexts.
mpz_class derive_mu_share(const ZnRing& ring, const mpz_class& mu_a, const mpz_class& mu_b,
                          const mpz_class& m_alpha, const mpz_class& m_beta,
                          const mpz_class& m_gamma, const mpz_class& p_int) {
  mpz_class bracket = mu_a * mu_b + mu_a * m_beta + mu_b * m_alpha + m_gamma;
  return ring.mod(bracket - p_int);
}

// The RootProof statement for role i's P_int of one batch, under the role's
// KFF key: u = c_comb / Enc(P_int; 1) with c_comb = B_beta^{mu_ai} *
// B_alpha^{mu_bi} * B_gamma, an N^s-th power exactly when P_int is the pad
// combination c_comb encrypts.  Throws std::domain_error when Enc(P_int; 1)
// is not invertible (only a malformed P_int can make it so).
mpz_class root_statement(const PaillierPK& kpk, const BatchShares& bs, unsigned i,
                         const mpz_class& mu_ai, const mpz_class& mu_bi, const mpz_class& p_int) {
  mpz_class c_comb = kpk.add(
      kpk.add(kpk.scal(bs.beta[i].pad_ct, mu_ai), kpk.scal(bs.alpha[i].pad_ct, mu_bi)),
      bs.gamma[i].pad_ct);
  mpz_class enc_pint = kpk.enc(p_int, mpz_class(1));
  return c_comb * mod_inverse(enc_pint, kpk.ns1) % kpk.ns1;
}

}  // namespace

OnlineResult run_online(const ProtocolParams& params, const Circuit& circuit,
                        const SetupArtifacts& setup, const OfflineArtifacts& offline,
                        DecryptChain& chain, OnlineCommittees committees,
                        const std::vector<std::vector<mpz_class>>& inputs, Bulletin& bulletin,
                        Rng& rng) {
  const PaillierPK& pk = chain.tpk().pk;
  const mpz_class& ns = pk.ns;
  ZnRing ring(ns);
  const auto& gates = circuit.gates();
  const unsigned n = params.n;

  // ----- Step 1: future key distribution + output pads --------------------
  // One mask-committee activation covers the FKD pads and the output pads.
  obs::Span fkd_span("online.fkd", "online");
  std::vector<mpz_class> fkd_cts;
  std::vector<const PaillierPK*> fkd_targets;
  for (std::size_t l = 0; l < committees.mult.size(); ++l) {
    for (unsigned i = 0; i < n; ++i) {
      fkd_cts.push_back(setup.kff_mult[l][i].factor_ct);
      fkd_targets.push_back(&committees.mult[l]->role_pk(i));
    }
  }
  for (unsigned c = 0; c < setup.kff_client.size(); ++c) {
    fkd_cts.push_back(setup.kff_client[c].factor_ct);
    fkd_targets.push_back(&setup.client_keys[c].pk);
  }
  std::vector<mpz_class> out_cts;
  std::vector<const PaillierPK*> out_targets;
  for (const auto& spec : circuit.outputs()) {
    out_cts.push_back(offline.wire_lambda_ct[spec.wire]);
    out_targets.push_back(&setup.client_keys[spec.client].pk);
  }

  std::vector<const PaillierPK*> all_targets = fkd_targets;
  all_targets.insert(all_targets.end(), out_targets.begin(), out_targets.end());
  auto mask_sums = chain.run_mask_committee(*committees.fkd_masker, all_targets, Phase::Online,
                                            "online.fkd");

  std::vector<mpz_class> fkd_masked;
  for (std::size_t r = 0; r < fkd_cts.size(); ++r) {
    fkd_masked.push_back(pk.add(fkd_cts[r], mask_sums[r].a_sum));
  }
  std::vector<mpz_class> fkd_opened = chain.run_decrypt_committee(
      *committees.fkd_holder, fkd_masked, Phase::Online, "online.fkd", committees.out_holder);

  // Assemble the FutureCts and let the recipients derive their KFF keys.
  std::size_t pos = 0;
  std::vector<std::vector<PaillierSK>> kff_sk(committees.mult.size());
  for (std::size_t l = 0; l < committees.mult.size(); ++l) {
    for (unsigned i = 0; i < n; ++i, ++pos) {
      FutureCt fct{fkd_opened[pos], mask_sums[pos].b_sum};
      mpz_class factor = open_future(committees.mult[l]->role_sks[i], fct, ns);
      kff_sk[l].push_back(paillier_sk_from_factor(setup.kff_mult[l][i].sk.pk, factor));
    }
  }
  std::vector<PaillierSK> client_kff_sk;
  for (unsigned c = 0; c < setup.kff_client.size(); ++c, ++pos) {
    FutureCt fct{fkd_opened[pos], mask_sums[pos].b_sum};
    mpz_class factor = open_future(setup.client_keys[c], fct, ns);
    client_kff_sk.push_back(paillier_sk_from_factor(setup.kff_client[c].sk.pk, factor));
  }
  fkd_span.attr("keys", pos).end();

  // ----- Step 2: client inputs ---------------------------------------------
  OnlineResult result;
  std::vector<std::size_t> next_input(circuit.num_clients(), 0);
  for (WireId w = 0; w < gates.size(); ++w) {
    if (gates[w].kind != GateKind::Input) continue;
    unsigned c = gates[w].client;
    if (c >= inputs.size() || next_input[c] >= inputs[c].size()) {
      throw std::invalid_argument("run_online: missing input for client " + std::to_string(c));
    }
    mpz_class v = ring.mod(inputs[c][next_input[c]++]);
    mpz_class lambda = open_future(client_kff_sk[c], offline.input_lambda.at(w), ns);
    result.mu[w] = ring.sub(v, lambda);
    bulletin.publish_external("client" + std::to_string(c), Phase::Online, "online.input",
                              mpz_wire_size(result.mu[w]), 1);
  }

  // ----- Steps 3-4: layer-by-layer evaluation ------------------------------
  auto sweep_local = [&]() {
    for (WireId w = 0; w < gates.size(); ++w) {
      if (result.mu.count(w)) continue;
      const Gate& g = gates[w];
      switch (g.kind) {
        case GateKind::Add:
          if (result.mu.count(g.in0) && result.mu.count(g.in1)) {
            result.mu[w] = ring.add(result.mu[g.in0], result.mu[g.in1]);
          }
          break;
        case GateKind::Sub:
          if (result.mu.count(g.in0) && result.mu.count(g.in1)) {
            result.mu[w] = ring.sub(result.mu[g.in0], result.mu[g.in1]);
          }
          break;
        case GateKind::AddConst:
          if (result.mu.count(g.in0)) {
            result.mu[w] = ring.add(result.mu[g.in0], ring.mod(g.constant));
          }
          break;
        case GateKind::MulConst:
          if (result.mu.count(g.in0)) {
            result.mu[w] = ring.mul(result.mu[g.in0], ring.mod(g.constant));
          }
          break;
        default:
          break;
      }
    }
  };
  sweep_local();

  const unsigned depth = circuit.mul_depth();
  for (unsigned layer = 1; layer <= depth; ++layer) {
    Committee& com = *committees.mult[layer - 1];
    const auto& kffs = kff_sk[layer - 1];

    // Collect this layer's batches and the public mu-share vectors.
    std::vector<std::size_t> layer_batches;
    for (std::size_t b = 0; b < offline.batches.size(); ++b) {
      if (offline.batches[b].layer == layer) layer_batches.push_back(b);
    }
    obs::Span layer_span("online.mult", "online");
    layer_span.attr("committee", com.name).attr("layer", layer).attr("batches",
                                                                     layer_batches.size());
    // Public, determined degree-(k-1) sharings of the mu input vectors.
    std::vector<std::vector<mpz_class>> mu_a_shares(layer_batches.size());
    std::vector<std::vector<mpz_class>> mu_b_shares(layer_batches.size());
    for (std::size_t bi = 0; bi < layer_batches.size(); ++bi) {
      const MulBatch& batch = offline.batches[layer_batches[bi]];
      std::vector<mpz_class> mu_a, mu_b;
      for (unsigned j = 0; j < params.k; ++j) {
        mu_a.push_back(result.mu.at(batch.alpha[j]));
        mu_b.push_back(result.mu.at(batch.beta[j]));
      }
      mu_a_shares[bi] = packed_share_public(ring, mu_a, n).shares;
      mu_b_shares[bi] = packed_share_public(ring, mu_b, n).shares;
    }

    // Each active role publishes P_int + RootProof per batch.
    auto build = [&](unsigned i, RoleFault fault, std::size_t& bytes) {
      MultShareMsg msg;
      const PaillierSK& kff = kffs[i];
      for (std::size_t bi = 0; bi < layer_batches.size(); ++bi) {
        const BatchShares& bs = offline.batch_shares[layer_batches[bi]];
        mpz_class p_a = kff.dec(bs.alpha[i].pad_ct);
        mpz_class p_b = kff.dec(bs.beta[i].pad_ct);
        mpz_class p_g = kff.dec(bs.gamma[i].pad_ct);
        const mpz_class& mu_ai = mu_a_shares[bi][i];
        const mpz_class& mu_bi = mu_b_shares[bi][i];
        mpz_class p_int = mu_ai * p_b + mu_bi * p_a + p_g;
        if (fault.bad_share) p_int += 1;
        const mpz_class u = root_statement(kff.pk, bs, i, mu_ai, mu_bi, p_int);
        RootProof proof;
        if (fault.bad_share) {
          // No root exists for the shifted P_int; fake an attempt.
          proof = prove_root(kff.pk, u, SecretMpz(rng.unit_mod(kff.pk.n)), rng);
        } else {
          SecretMpz rho = kff.extract_root(u);
          proof = prove_root(kff.pk, u, rho, rng);
          if (fault.bad_proof) proof.z += 1;
        }
        bytes += mpz_wire_size(p_int) + proof.wire_bytes();
        msg.p_int.push_back(std::move(p_int));
        msg.proofs.push_back(std::move(proof));
      }
      return msg;
    };
    const auto round = post_round(com, Phase::Online, "online.mult", bulletin,
                                  layer_batches.size(), build, encode_mult_share_msg);

    // Everyone verifies and reconstructs mu^gamma per batch.
    const mpz_class pint_bound = mpz_class(1) << params.pint_bound_bits();
    for (std::size_t bi = 0; bi < layer_batches.size(); ++bi) {
      const MulBatch& batch = offline.batches[layer_batches[bi]];
      const BatchShares& bs = offline.batch_shares[layer_batches[bi]];
      std::vector<std::int64_t> pts;
      std::vector<mpz_class> shares;
      round.gate(
          GateRule::Quorum, params.recon_threshold(),
          [&](unsigned i, const MultShareMsg& msg) {
            const mpz_class& p_int = msg.p_int[bi];
            if (p_int < 0 || p_int >= pint_bound) return false;
            const PaillierPK& kpk = setup.kff_mult[layer - 1][i].sk.pk;
            mpz_class u;
            try {
              u = root_statement(kpk, bs, i, mu_a_shares[bi][i], mu_b_shares[bi][i], p_int);
            } catch (const std::domain_error&) {
              return false;
            }
            return verify_root(kpk, u, msg.proofs[bi]);
          },
          [&](unsigned i, const MultShareMsg& msg) {
            pts.push_back(static_cast<std::int64_t>(i) + 1);
            shares.push_back(derive_mu_share(ring, mu_a_shares[bi][i], mu_b_shares[bi][i],
                                             bs.alpha[i].masked, bs.beta[i].masked,
                                             bs.gamma[i].masked, msg.p_int[bi]));
          });
      for (unsigned j = 0; j < batch.real; ++j) {
        mpz_class mu_g = lagrange_at(ring, pts, shares, secret_point(j));
        WireId w = batch.gamma[j];
        auto [it, inserted] = result.mu.emplace(w, mu_g);
        if (!inserted && it->second != mu_g) {
          FailureReport fr{FailureKind::Consistency, Phase::Online, com.name, "online.mult",
                           params.recon_threshold(), static_cast<unsigned>(pts.size()), 0, 0};
          throw ProtocolAbort(std::move(fr));
        }
      }
    }
    sweep_local();
  }

  // ----- Step 5: outputs ----------------------------------------------------
  obs::Span out_span("online.output", "online");
  out_span.attr("outputs", circuit.outputs().size());
  std::vector<mpz_class> out_masked;
  for (std::size_t r = 0; r < out_cts.size(); ++r) {
    out_masked.push_back(pk.add(out_cts[r], mask_sums[fkd_cts.size() + r].a_sum));
  }
  std::vector<mpz_class> out_opened = chain.run_decrypt_committee(
      *committees.out_holder, out_masked, Phase::Online, "online.output", nullptr);
  for (std::size_t r = 0; r < circuit.outputs().size(); ++r) {
    const auto& spec = circuit.outputs()[r];
    FutureCt fct{out_opened[r], mask_sums[fkd_cts.size() + r].b_sum};
    mpz_class lambda = open_future(setup.client_keys[spec.client], fct, ns);
    result.outputs.push_back(ring.add(result.mu.at(spec.wire), lambda));
  }
  return result;
}

}  // namespace yoso
