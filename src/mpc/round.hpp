// One YOSO committee activation (Section 3.3, Theorem 1), written once.
//
// Every committee step of the protocol core has the same shape: each active
// role speaks once on the board, every observer publicly verifies the posts
// the board served, and each value comes from a verified set of posts.  The
// call sites (contrib.cpp, reencrypt.cpp, online.cpp) supply only what
// differs — how a role builds and encodes its message, how one post is
// checked, and how the verified posts combine — and this file owns the
// decision of which roles count toward a committee's output:
//
//   auto round = post_round(com, phase, "label", bulletin, elements, build, encode);
//   for (each value v) round.gate(GateRule::Sum, need, check_v, take_v);
//
// The gate is the guaranteed-output-delivery threshold: fewer than `need`
// verified posts raise the one Threshold ProtocolAbort of the core, with
// the verified / invalid / missing breakdown the chaos invariants and the
// Section 5.4 degradation driver read (mpc/failure.hpp).
#pragma once

#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "mpc/failure.hpp"
#include "yoso/bulletin.hpp"

namespace yoso {

// How a malicious role's message is wrong this activation; builders apply
// it to the message they produce.  Honest roles get neither flag.
struct RoleFault {
  bool bad_share = false;  // a perturbed value whose proof cannot verify
  bool bad_proof = false;  // the right value with a junk proof
};

// Whether the round's post is the role's one speaking act, or rides a post
// the role already spoke this activation (the tsk hand-over travels in the
// same message as the holder's partial decryptions).
enum class Speech : unsigned char { Speaks, RidesEarlierPost };

// Which present posts a gate checks.
enum class GateRule : unsigned char {
  Sum,     // every present post: the value folds in all verified posts
  Quorum,  // stop once `need` posts verified: any `need` of them reconstruct
};

// The posts of one committee activation as every observer sees them: the
// message of each role whose post the board accepted.
template <class Msg>
class Round {
public:
  Round(const Committee& com, Phase phase, std::string label,
        std::vector<std::optional<Msg>> heard)
      : committee_(com.name), phase_(phase), label_(std::move(label)), heard_(std::move(heard)) {
    for (const auto& m : heard_) present_ += m ? 1 : 0;
  }

  // One value's gate: calls `check(j, msg)` on the present roles in index
  // order (all of them under Sum, until `need` verified under Quorum) and
  // `take(j, msg)` right after each check that passes.  Throws
  // ProtocolAbort when fewer than `need` posts verify.
  template <class Check, class Take>
  void gate(GateRule rule, unsigned need, Check&& check, Take&& take) const {
    unsigned verified = 0;
    for (unsigned j = 0; j < heard_.size(); ++j) {
      if (rule == GateRule::Quorum && verified == need) break;
      if (!heard_[j] || !check(j, *heard_[j])) continue;
      ++verified;
      take(j, *heard_[j]);
    }
    if (verified < need) {
      const unsigned n = static_cast<unsigned>(heard_.size());
      throw ProtocolAbort(FailureReport{FailureKind::Threshold, phase_, committee_, label_, need,
                                        verified, present_ - verified, n - present_});
    }
  }

private:
  std::string committee_;
  Phase phase_;
  std::string label_;
  std::vector<std::optional<Msg>> heard_;  // per role; empty: never reached the board
  unsigned present_ = 0;
};

// The post step of a round.  For each active role of `com` in index order:
// marks it spoken (unless its post rides an earlier one), builds its
// message with `build(j, fault, bytes)` (which adds the message's wire size
// to `bytes`), encodes it with `encode(msg)` when the board wants real
// payloads, and publishes it under `label`.  A post the board did not
// accept leaves the role silent: observers verify what the board serves,
// not what the role computed.
template <class Build, class Encode>
auto post_round(Committee& com, Phase phase, const std::string& label, Bulletin& bulletin,
                std::size_t elements, Build&& build, Encode&& encode,
                Speech speech = Speech::Speaks) {
  using Msg = std::invoke_result_t<Build&, unsigned, RoleFault, std::size_t&>;
  const CommitteeCorruption& cor = com.corruption;
  std::vector<std::optional<Msg>> heard(com.n());
  for (unsigned j = 0; j < com.n(); ++j) {
    if (!cor.is_active(j)) continue;
    if (speech == Speech::Speaks) com.speak(j);
    const bool bad = cor.is_malicious(j);
    const RoleFault fault{bad && cor.strategy == MaliciousStrategy::BadShare,
                          bad && cor.strategy == MaliciousStrategy::BadProof};
    std::size_t bytes = 0;
    Msg msg = build(j, fault, bytes);
    std::vector<std::uint8_t> payload;
    if (bulletin.wants_payload()) payload = encode(msg);
    const PostStatus st = bulletin.publish(com, j, phase, label, bytes, elements,
                                           /*first_post_of_role=*/false,
                                           payload.empty() ? nullptr : &payload);
    if (st == PostStatus::Accepted) heard[j] = std::move(msg);
  }
  return Round<Msg>(com, phase, label, std::move(heard));
}

}  // namespace yoso
