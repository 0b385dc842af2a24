#include "mpc/reencrypt.hpp"

#include <cassert>

#include "mpc/round.hpp"
#include "obs/trace.hpp"
#include "wire/codec.hpp"

namespace yoso {

mpz_class open_future(const PaillierSK& recipient, const FutureCt& fct, const mpz_class& ns) {
  mpz_class pad = recipient.dec(fct.pad_ct);
  mpz_class m = (fct.masked - pad) % ns;
  if (m < 0) m += ns;
  return m;
}

std::size_t MaskMsg::wire_bytes() const {
  return mpz_wire_size(a) + mpz_wire_size(b) + proof.wire_bytes();
}

std::size_t HandoverMsg::wire_bytes() const {
  std::size_t total = 0;
  for (const auto& c : commitments) total += mpz_wire_size(c);
  for (const auto& e : enc_subshares) total += mpz_wire_size(e);
  for (const auto& p : proofs) total += p.wire_bytes();
  return total;
}

DecryptChain::DecryptChain(ThresholdPK tpk, std::vector<ThresholdKeyShare> shares,
                           const ProtocolParams& params, Bulletin& bulletin, Rng& rng)
    : tpk_(std::move(tpk)), shares_(std::move(shares)), params_(&params), bulletin_(&bulletin),
      rng_(&rng) {}

namespace {

LinkStatement pad_statement(const ThresholdPK& tpk, const PaillierPK& target,
                            const mpz_class& a, const mpz_class& b, unsigned bound_bits) {
  LinkStatement st;
  st.domain = "pad";
  st.paillier_legs = {PaillierLeg{tpk.pk, a}, PaillierLeg{target, b}};
  st.bound_bits = bound_bits;
  return st;
}

// The statement of role `msg.from_index`'s subshare for next role i: its
// ciphertext under i's key holds the exponent of v^{f_j(i+1)}, which anyone
// derives from the Feldman commitments as prod_c com_c^{(i+1)^c}.
LinkStatement subshare_statement(const ThresholdPK& tpk, const PaillierPK& rpk,
                                 const HandoverMsg& msg, unsigned i, unsigned bound_bits) {
  mpz_class v_fij = 1;
  mpz_class pw = 1;
  for (const auto& com : msg.commitments) {
    v_fij = v_fij * powm_pub(com, pw, tpk.pk.ns1) % tpk.pk.ns1;
    pw *= (i + 1);
  }
  LinkStatement st;
  st.domain = "handover";
  st.paillier_legs = {PaillierLeg{rpk, msg.enc_subshares[i]}};
  st.exponent_legs = {ExponentLeg{tpk.v, v_fij, tpk.pk.ns1}};
  st.bound_bits = bound_bits;
  return st;
}

}  // namespace

std::vector<DecryptChain::MaskSums> DecryptChain::run_mask_committee(
    Committee& masker, const std::vector<const PaillierPK*>& targets, Phase phase,
    const std::string& label) {
  obs::Span span("reencrypt.mask", "reencrypt");
  span.attr("committee", masker.name).attr("targets", targets.size()).attr("label", label);
  const std::size_t m = targets.size();
  const unsigned bound_bits = params_->pad_bound_bits();
  const mpz_class pad_space = mpz_class(1) << bound_bits;

  // Each role contributes one pad per value, under tpk and under the target.
  auto build = [&](unsigned, RoleFault fault, std::size_t& bytes) {
    std::vector<MaskMsg> msgs;
    for (std::size_t r = 0; r < m; ++r) {
      SecretMpz pad(rng_->below(pad_space));
      MaskMsg msg;
      mpz_class r1, r2;
      msg.a = tpk_.pk.enc_secret(pad, *rng_, &r1);
      SecretMpz b_plain = pad;
      if (fault.bad_share) b_plain = b_plain + mpz_class(1);  // inconsistent pad
      msg.b = targets[r]->enc_secret(b_plain, *rng_, &r2);
      LinkWitness w{pad, {SecretMpz(r1), SecretMpz(r2)}};
      msg.proof = link_prove(pad_statement(tpk_, *targets[r], msg.a, msg.b, bound_bits), w,
                             *rng_);
      if (fault.bad_proof) msg.proof.z += 1;
      bytes += msg.wire_bytes();
      msgs.push_back(std::move(msg));
    }
    return msgs;
  };
  const auto round =
      post_round(masker, phase, label + ".mask", *bulletin_, 2 * m, build, encode_mask_batch);

  // Everyone verifies; per value, sum over the roles whose proof checks.
  std::vector<MaskSums> out(m);
  for (std::size_t r = 0; r < m; ++r) {
    std::optional<MaskSums> sum;
    round.gate(
        GateRule::Sum, tpk_.t + 1,
        [&](unsigned, const std::vector<MaskMsg>& msgs) {
          const MaskMsg& msg = msgs[r];
          return link_verify(pad_statement(tpk_, *targets[r], msg.a, msg.b, bound_bits),
                             msg.proof);
        },
        [&](unsigned, const std::vector<MaskMsg>& msgs) {
          const MaskMsg& msg = msgs[r];
          if (!sum) {
            sum = MaskSums{msg.a, msg.b};
            return;
          }
          sum->a_sum = tpk_.pk.add(sum->a_sum, msg.a);
          sum->b_sum = targets[r]->add(sum->b_sum, msg.b);
        });
    out[r] = std::move(*sum);
  }
  return out;
}

std::vector<mpz_class> DecryptChain::run_decrypt_committee(Committee& holder,
                                                           const std::vector<mpz_class>& cts,
                                                           Phase phase, const std::string& label,
                                                           Committee* next_holder) {
  obs::Span span("reencrypt.pdec", "reencrypt");
  span.attr("committee", holder.name).attr("cts", cts.size()).attr("label", label);
  const std::size_t m = cts.size();

  auto build = [&](unsigned j, RoleFault fault, std::size_t& bytes) {
    PdecMsg msg;
    for (const auto& c : cts) {
      mpz_class partial = tpdec(tpk_, shares_[j], c);
      if (fault.bad_share) {
        partial = partial * (tpk_.pk.n + 1) % tpk_.pk.ns1;  // shift the plaintext part
      }
      PdecProof proof = prove_pdec(tpk_, shares_[j], c, partial, *rng_);
      if (fault.bad_proof) proof.inner.z += 1;
      bytes += mpz_wire_size(partial) + proof.wire_bytes();
      msg.partials.push_back(std::move(partial));
      msg.proofs.push_back(std::move(proof));
    }
    return msg;
  };
  const auto round =
      post_round(holder, phase, label + ".pdec", *bulletin_, m, build, encode_pdec_msg);

  // Combine: per ciphertext, take the first t+1 verified partials.
  std::vector<mpz_class> plain(m);
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<unsigned> idx;
    std::vector<mpz_class> parts;
    round.gate(
        GateRule::Quorum, tpk_.t + 1,
        [&](unsigned j, const PdecMsg& msg) {
          return verify_pdec(tpk_, j + 1, cts[r], msg.partials[r], msg.proofs[r]);
        },
        [&](unsigned j, const PdecMsg& msg) {
          idx.push_back(j + 1);
          parts.push_back(msg.partials[r]);
        });
    plain[r] = tdec(tpk_, idx, parts);
  }

  if (next_holder != nullptr) handover(holder, *next_holder, phase);
  return plain;
}

void DecryptChain::handover(Committee& holder, Committee& next_holder, Phase phase) {
  obs::Span span("reencrypt.handover", "reencrypt");
  span.attr("from", holder.name).attr("to", next_holder.name).attr("phase", phase_name(phase));
  const unsigned n = holder.n();
  const unsigned bound_bits = tpk_.subshare_bound_bits();

  // Each role reshares its tsk share: Feldman commitments plus, per next
  // role i, the subshare f_j(i+1) encrypted to i with a LinkProof.
  auto build = [&](unsigned j, RoleFault fault, std::size_t& bytes) {
    ReshareMsg res = tkres(tpk_, shares_[j], *rng_);
    HandoverMsg msg;
    msg.from_index = j + 1;
    msg.commitments = res.commitments;
    msg.enc_subshares.resize(n);
    msg.proofs.resize(n);
    for (unsigned i = 0; i < n; ++i) {
      const PaillierPK& rpk = next_holder.role_pk(i);
      SecretMpz sub = res.subshares[i];
      if (fault.bad_share) sub = sub + mpz_class(1);  // the proof below cannot verify
      mpz_class renc;
      msg.enc_subshares[i] = rpk.enc_secret(sub, *rng_, &renc);
      LinkWitness w{res.subshares[i], {SecretMpz(renc)}};
      msg.proofs[i] = link_prove(subshare_statement(tpk_, rpk, msg, i, bound_bits), w, *rng_);
      if (fault.bad_proof) msg.proofs[i].z += 1;
    }
    bytes += msg.wire_bytes();
    return msg;
  };
  // The hand-over rides the role's pdec post: no second speaking act.
  const auto round = post_round(holder, phase, "tsk.handover", *bulletin_, n * 2, build,
                                encode_handover_msg, Speech::RidesEarlierPost);

  // Everyone verifies and agrees on the qualified set: the first t+1 roles
  // whose commitments tie to their verification key and whose every
  // subshare proof checks.
  std::vector<unsigned> qualified;
  std::vector<const HandoverMsg*> qualified_posts;
  std::vector<ReshareMsg> qualified_msgs;  // commitments only (for next_epoch_pk)
  round.gate(
      GateRule::Quorum, tpk_.t + 1,
      [&](unsigned j, const HandoverMsg& msg) {
        if (msg.commitments.size() != tpk_.t + 1) return false;
        if (msg.commitments[0] != tpk_.vks[j]) return false;
        for (unsigned i = 0; i < n; ++i) {
          const LinkStatement st =
              subshare_statement(tpk_, next_holder.role_pk(i), msg, i, bound_bits);
          if (!link_verify(st, msg.proofs[i])) return false;
        }
        return true;
      },
      [&](unsigned j, const HandoverMsg& msg) {
        qualified.push_back(j + 1);
        qualified_posts.push_back(&msg);
        ReshareMsg rm;
        rm.from_index = j + 1;
        rm.commitments = msg.commitments;
        qualified_msgs.push_back(std::move(rm));
      });

  // Each next-committee role decrypts the subshares addressed to it and
  // recombines (this happens locally on the recipient machines).
  const ThresholdPK old_tpk = tpk_;
  std::vector<ThresholdKeyShare> next_shares(n);
  for (unsigned i = 0; i < n; ++i) {
    const PaillierSK& rsk = next_holder.role_sks[i];
    const mpz_class half = rsk.pk.ns / 2;
    std::vector<SecretMpz> subs;
    for (const HandoverMsg* post : qualified_posts) {
      mpz_class v = rsk.dec(post->enc_subshares[i]);
      if (v > half) v -= rsk.pk.ns;  // lift to a signed integer
      subs.push_back(SecretMpz(std::move(v)));
    }
    next_shares[i] = tkrec(old_tpk, i + 1, qualified, subs);
  }
  tpk_ = next_epoch_pk(old_tpk, qualified, qualified_msgs);
  shares_ = std::move(next_shares);
  ++epochs_;
}

std::vector<FutureCt> DecryptChain::reencrypt_batch(Committee& masker, Committee& holder,
                                                    const std::vector<mpz_class>& cts,
                                                    const std::vector<const PaillierPK*>& targets,
                                                    Phase phase, const std::string& label,
                                                    Committee* next_holder) {
  assert(cts.size() == targets.size());
  obs::Span span("reencrypt.batch", "reencrypt");
  span.attr("masker", masker.name).attr("holder", holder.name).attr("cts", cts.size());
  auto sums = run_mask_committee(masker, targets, phase, label);
  std::vector<mpz_class> masked_cts;
  masked_cts.reserve(cts.size());
  for (std::size_t r = 0; r < cts.size(); ++r) {
    masked_cts.push_back(tpk_.pk.add(cts[r], sums[r].a_sum));
  }
  auto opened = run_decrypt_committee(holder, masked_cts, phase, label, next_holder);
  std::vector<FutureCt> out(cts.size());
  for (std::size_t r = 0; r < cts.size(); ++r) {
    out[r] = FutureCt{std::move(opened[r]), std::move(sums[r].b_sum)};
  }
  return out;
}

}  // namespace yoso
