#include "net/net_bulletin.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "crypto/ct.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "wire/codec.hpp"

namespace yoso::net {

namespace {

std::size_t phase_idx(Phase p) { return static_cast<std::size_t>(p); }

const char* phase_key(std::size_t idx) {
  switch (idx) {
    case 0: return "setup";
    case 1: return "offline";
    case 2: return "online";
  }
  return "?";
}

}  // namespace

NetBulletin::NetBulletin(Ledger& ledger, NetConfig cfg)
    : Bulletin(ledger), cfg_(std::move(cfg)),
      transport_(loop_, cfg_.link, cfg_.topology, cfg_.observers, cfg_.faults,
                 cfg_.link_mix) {
  // Spans begun while this board is alive get deterministic virtual
  // timestamps.  Keyed by `this` so destroying an old board (degradation
  // retries, chaos campaigns) cannot clobber a newer board's clock.
  obs::tracer().attach_virtual_clock(this, [this] { return clock_; });
}

NetBulletin::~NetBulletin() { obs::tracer().detach_virtual_clock(this); }

bool NetBulletin::roundtrip_ok(const std::vector<std::uint8_t>& payload) {
  try {
    std::vector<std::uint8_t> again;
    switch (peek_tag(payload)) {
      case kTagLinkProof: again = encode_link_proof(decode_link_proof(payload)); break;
      case kTagMultProof: again = encode_mult_proof(decode_mult_proof(payload)); break;
      case kTagRootProof: again = encode_root_proof(decode_root_proof(payload)); break;
      case kTagMaskMsg: again = encode_mask_msg(decode_mask_msg(payload)); break;
      case kTagHandoverMsg: again = encode_handover_msg(decode_handover_msg(payload)); break;
      case kTagFutureCt: again = encode_future_ct(decode_future_ct(payload)); break;
      case kTagPdecMsg: again = encode_pdec_msg(decode_pdec_msg(payload)); break;
      case kTagContribMsg: again = encode_contrib_msg(decode_contrib_msg(payload)); break;
      case kTagBeaverMsg: again = encode_beaver_msg(decode_beaver_msg(payload)); break;
      case kTagMultShareMsg: again = encode_mult_share_msg(decode_mult_share_msg(payload)); break;
      case kTagMaskBatch: again = encode_mask_batch(decode_mask_batch(payload)); break;
      default: return false;
    }
    // Compare round-trip digests instead of the raw byte vectors: the digest
    // comparison runs in time independent of where the first mismatch falls.
    const Sha256::Digest d_again = Sha256::hash(again.data(), again.size());
    const Sha256::Digest d_payload = Sha256::hash(payload.data(), payload.size());
    return ct_equal(d_again, d_payload);
  } catch (const CodecError&) {
    return false;
  }
}

// Runs a fault-mutated payload through the decoder: it must either reject
// with CodecError (counted as a clean rejection) or decode to some value (a
// flip inside a bignum body is syntactically valid — the frame checksum is
// what rejects the post).  Anything else (crash, UB) is caught by the
// sanitizer jobs running the chaos campaign.
void NetBulletin::probe_mutated(std::vector<std::uint8_t> mutated) {
  if (mutated.empty()) {
    ++fuzz_rejected_;
    return;
  }
  if (roundtrip_ok(mutated)) {
    ++fuzz_decoded_;
  } else {
    ++fuzz_rejected_;
  }
}

void NetBulletin::enqueue(std::string round_key, Phase phase, std::string sender,
                          std::size_t bytes, const std::vector<std::uint8_t>* payload,
                          bool link_dropped, double release_delay) {
  if (payload != nullptr && cfg_.decode_check && !roundtrip_ok(*payload)) ++decode_failures_;
  if (!pending_.empty() && (round_key != pending_key_ || phase != pending_phase_)) flush();
  pending_key_ = std::move(round_key);
  pending_phase_ = phase;
  pending_.push_back(PendingPost{std::move(sender), bytes, link_dropped, release_delay});
}

PostStatus NetBulletin::publish(Committee& committee, unsigned index0, Phase phase,
                                const std::string& label, std::size_t bytes,
                                std::size_t elements, bool first_post_of_role,
                                const std::vector<std::uint8_t>* payload) {
  // Close the compute window since the previous publish boundary: the delta
  // belongs to the posting role (the protocol interleaves "compute message
  // j, publish j"); everything between here and dag_.end_post — the
  // decode-check round-trip, fault probing — is the post's pipeline work.
  dag_.begin_post(committee.name, index0, static_cast<std::uint8_t>(phase_idx(phase)),
                  /*external=*/false);
  Bulletin::publish(committee, index0, phase, label, bytes, elements, first_post_of_role,
                    payload);
  if (payload != nullptr) bytes = payload->size();  // price the real serialized message
  const std::string sender = committee.name + "#" + std::to_string(index0);
  const std::string key = "c:" + committee.name;
  PhasePosts& pp = posts(phase);
  ++pp.originated;
  OBS_HIST("post.bytes", bytes);

  // Link-level fate first: a post lost on the sender's uplink never reaches
  // the board, whatever its payload.
  if (transport_.roll_drop(sender)) {
    ++pp.dropped_link;
    OBS_COUNT("post.dropped_link");
    obs::Span("post.dropped_link", "net").attr("sender", sender).attr("phase", phase_name(phase));
    enqueue(key, phase, sender, bytes, payload, /*link_dropped=*/true, 0);
    dag_.end_post(label, bytes, elements, /*delivered=*/false);
    return PostStatus::DroppedLink;
  }

  // Wire-level fate: at most one fault per post, deterministic from
  // (seed, sender, sequence).
  std::uint64_t aux = 0;
  const WireFault fault = cfg_.wire_faults.roll(sender, ++post_seq_, &aux);
  switch (fault) {
    case WireFault::BitFlip: {
      if (payload != nullptr && !payload->empty()) {
        std::vector<std::uint8_t> flipped = *payload;
        const std::uint64_t bit = aux % (static_cast<std::uint64_t>(flipped.size()) * 8);
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        probe_mutated(std::move(flipped));
      }
      ++pp.corrupt;
      OBS_COUNT("post.corrupt");
      obs::Span("post.corrupt", "net").attr("sender", sender).attr("phase", phase_name(phase));
      enqueue(key, phase, sender, bytes, payload, /*link_dropped=*/false, 0);
      dag_.end_post(label, bytes, elements, /*delivered=*/false);
      return PostStatus::CorruptPayload;
    }
    case WireFault::Truncate: {
      std::size_t cut = bytes == 0 ? 0 : static_cast<std::size_t>(aux % bytes);
      if (payload != nullptr && !payload->empty()) {
        std::vector<std::uint8_t> shorter = *payload;
        shorter.resize(std::min<std::size_t>(cut, shorter.size()));
        probe_mutated(std::move(shorter));
      }
      ++pp.truncated;
      OBS_COUNT("post.truncated");
      obs::Span("post.truncated", "net").attr("sender", sender).attr("phase", phase_name(phase));
      // Only the truncated prefix ever hit the wire.
      enqueue(key, phase, sender, cut, nullptr, /*link_dropped=*/false, 0);
      dag_.end_post(label, bytes, elements, /*delivered=*/false);
      return PostStatus::Truncated;
    }
    case WireFault::Duplicate: {
      // The original counts; the replayed copy is priced on the wire but the
      // board's one-shot discipline ignores it.
      ++pp.delivered;
      enqueue(key, phase, sender, bytes, payload, /*link_dropped=*/false, 0);
      ++pp.originated;
      ++pp.duplicate;
      OBS_COUNT("post.accepted");
      OBS_COUNT("post.duplicate");
      obs::Span("post.duplicate", "net").attr("sender", sender).attr("phase", phase_name(phase));
      const bool dup_dropped = transport_.roll_drop(sender);
      enqueue(key, phase, sender, bytes, nullptr, dup_dropped, 0);
      // One DAG post for the original only: the injected copy never becomes
      // a board post, so it must never grow consume edges.
      dag_.end_post(label, bytes, elements, /*delivered=*/true);
      return PostStatus::Accepted;
    }
    case WireFault::LatePost: {
      const double delay = cfg_.wire_faults.late_delay_s;
      if (delay <= cfg_.grace_window_s) {
        ++pp.delivered;
        ++pp.late_graced;
        OBS_COUNT("post.accepted");
        OBS_COUNT("post.late_graced");
        enqueue(key, phase, sender, bytes, payload, /*link_dropped=*/false, delay);
        dag_.end_post(label, bytes, elements, /*delivered=*/true);
        return PostStatus::Accepted;
      }
      ++pp.late;
      OBS_COUNT("post.late");
      obs::Span("post.late", "net").attr("sender", sender).attr("phase", phase_name(phase));
      enqueue(key, phase, sender, bytes, payload, /*link_dropped=*/false, delay);
      dag_.end_post(label, bytes, elements, /*delivered=*/false);
      return PostStatus::Late;
    }
    case WireFault::None: break;
  }
  ++pp.delivered;
  OBS_COUNT("post.accepted");
  enqueue(key, phase, sender, bytes, payload, /*link_dropped=*/false, 0);
  dag_.end_post(label, bytes, elements, /*delivered=*/true);
  return PostStatus::Accepted;
}

void NetBulletin::publish_external(const std::string& who, Phase phase, const std::string& label,
                                   std::size_t bytes, std::size_t elements,
                                   const std::vector<std::uint8_t>* payload) {
  dag_.begin_post(who, 0, static_cast<std::uint8_t>(phase_idx(phase)), /*external=*/true);
  Bulletin::publish_external(who, phase, label, bytes, elements, payload);
  if (payload != nullptr) bytes = payload->size();
  // External senders (clients, the dealer) are outside the committee fault
  // plans: their posts always count.
  PhasePosts& pp = posts(phase);
  ++pp.originated;
  ++pp.delivered;
  enqueue("x:" + label, phase, who, bytes, payload, /*link_dropped=*/false, 0);
  dag_.end_post(label, bytes, elements, /*delivered=*/true);
}

void NetBulletin::on_committee_spawn(Committee& committee) {
  if (transport_.observers() == 0) transport_.set_observers(committee.n());
  // Churn first: a role whose member left between activations is silent
  // regardless of the link fault plan.  Silence injection below then skips
  // already-churned roles (they are no longer Honest), so the two fault
  // sources stack rather than overlap.
  unsigned churned = 0;
  if (!cfg_.churn.empty()) {
    for (unsigned i = 0; i < committee.n(); ++i) {
      if (cfg_.churn.max_per_committee != 0 && churned >= cfg_.churn.max_per_committee) break;
      if (committee.corruption.status[i] != RoleStatus::Honest) continue;
      if (!cfg_.churn.leaves(committee.name, i)) continue;
      committee.corruption.status[i] = RoleStatus::FailStop;
      ++churned;
    }
  }
  roles_churned_ += churned;
  unsigned silenced = 0;
  for (unsigned i = committee.n(); i-- > 0 && silenced < cfg_.faults.silence_per_committee;) {
    if (committee.corruption.status[i] == RoleStatus::Honest) {
      committee.corruption.status[i] = RoleStatus::FailStop;
      ++silenced;
    }
  }
  roles_silenced_ += silenced;
}

void NetBulletin::flush() {
  if (pending_.empty()) return;
  PhaseTraffic& pt = traffic_[phase_idx(pending_phase_)];
  const double round_start = clock_;
  std::size_t round_bytes = 0;
  const std::size_t round_posts = pending_.size();
  for (const PendingPost& p : pending_) {
    transport_.broadcast_decided(p.sender, p.bytes, clock_ + p.release_delay, p.link_dropped);
    pt.messages += 1;
    pt.payload_bytes += p.bytes;
    round_bytes += p.bytes;
  }
  transport_.run();
  const double round_end = std::max(clock_, transport_.last_delivery());
  pt.seconds += round_end - clock_;
  pt.rounds += 1;
  clock_ = round_end;
  pending_.clear();
  pending_key_.clear();
  // Sample the round's shape on the virtual clock: what was in flight, how
  // deep the board queue ran, and the bandwidth the round achieved.  These
  // render as Perfetto counter tracks under the span timeline.
  //
  // Handles are resolved once and cached (docs/OBSERVABILITY.md, "Cached
  // handles"): flush() runs every broadcast round, and the per-call lookup
  // — registry lock plus string hash, with a string concatenation for the
  // bandwidth series — was the last repeated registry access on the net hot
  // path.  Registry handles are stable for the process lifetime (reset()
  // clears points, never nodes), so the cached pointers never dangle.
  static obs::Series* const queue_posts = &obs::timeseries().series("net.queue.posts");
  static obs::Series* const inflight = &obs::timeseries().series("net.inflight.bytes");
  static obs::Series* const bw_by_phase[3] = {
      &obs::timeseries().series("net.bw.setup"),
      &obs::timeseries().series("net.bw.offline"),
      &obs::timeseries().series("net.bw.online"),
  };
  queue_posts->sample(round_start, static_cast<double>(round_posts));
  inflight->sample(round_start, static_cast<double>(round_bytes));
  inflight->sample(round_end, 0);
  const std::size_t pidx = phase_idx(pending_phase_);
  if (round_end > round_start && pidx < 3) {
    bw_by_phase[pidx]->sample(round_end,
                              static_cast<double>(round_bytes) / (round_end - round_start));
  }
}

double NetBulletin::elapsed() {
  flush();
  return clock_;
}

const PhaseTraffic& NetBulletin::phase_traffic(Phase phase) {
  flush();
  return traffic_[phase_idx(phase)];
}

const TransportStats& NetBulletin::stats() {
  flush();
  return transport_.stats();
}

const PhasePosts& NetBulletin::phase_posts(Phase phase) const {
  return posts_[phase_idx(phase)];
}

obs::FlowMatrix NetBulletin::flow() { return obs::FlowMatrix(dag().nodes()); }

const obs::dag::DagRecorder& NetBulletin::dag() {
  flush();
  dag_.finalize();
  return dag_;
}

PhasePosts NetBulletin::total_posts() const {
  PhasePosts total;
  for (const PhasePosts& pp : posts_) {
    total.originated += pp.originated;
    total.delivered += pp.delivered;
    total.dropped_link += pp.dropped_link;
    total.corrupt += pp.corrupt;
    total.truncated += pp.truncated;
    total.late += pp.late;
    total.duplicate += pp.duplicate;
    total.late_graced += pp.late_graced;
  }
  return total;
}

std::string NetBulletin::report_json() const {
  const_cast<NetBulletin*>(this)->flush();
  const TransportStats& ts = transport_.stats();
  json::Writer w;
  w.begin_object();
  // Self-describing header: what build/obs generation produced this report
  // (obs/report.hpp) — cross-run diffs warn on mismatch instead of
  // reporting spurious deltas.
  w.key("meta").raw(obs::run_metadata_json());
  w.field("link", cfg_.link_mix.empty() ? cfg_.link.name : cfg_.link_mix.name);
  w.field("topology", topology_name(cfg_.topology));
  w.field("elapsed_s", clock_);
  // Always stated, even when zero: an absent key would be ambiguous between
  // "grace disabled" and "no grace configured".
  w.field("grace_window_s", cfg_.grace_window_s);
  w.key("phases").begin_object();
  for (std::size_t i = 0; i < traffic_.size(); ++i) {
    const PhaseTraffic& pt = traffic_[i];
    const PhasePosts& pp = posts_[i];
    w.key(phase_key(i)).begin_object();
    w.field("seconds", pt.seconds);
    w.field("rounds", static_cast<std::uint64_t>(pt.rounds));
    w.field("messages", static_cast<std::uint64_t>(pt.messages));
    w.field("payload_bytes", static_cast<std::uint64_t>(pt.payload_bytes));
    w.key("posts").begin_object();
    w.field("originated", static_cast<std::uint64_t>(pp.originated));
    w.field("delivered", static_cast<std::uint64_t>(pp.delivered));
    w.field("dropped", static_cast<std::uint64_t>(pp.dropped()));
    w.field("dropped_link", static_cast<std::uint64_t>(pp.dropped_link));
    w.field("corrupt", static_cast<std::uint64_t>(pp.corrupt));
    w.field("truncated", static_cast<std::uint64_t>(pp.truncated));
    w.field("late", static_cast<std::uint64_t>(pp.late));
    w.field("duplicate", static_cast<std::uint64_t>(pp.duplicate));
    w.field("late_graced", static_cast<std::uint64_t>(pp.late_graced));
    w.end_object();
    w.end_object();
  }
  w.end_object();
  const PhasePosts total = total_posts();
  w.field("delivered", static_cast<std::uint64_t>(ts.delivered));
  w.field("dropped", static_cast<std::uint64_t>(ts.dropped));
  w.field("downlink_queue_s", ts.downlink_queue_seconds);
  w.field("posts_originated", static_cast<std::uint64_t>(total.originated));
  w.field("posts_delivered", static_cast<std::uint64_t>(total.delivered));
  w.field("posts_dropped", static_cast<std::uint64_t>(total.dropped()));
  w.field("decode_failures", static_cast<std::uint64_t>(decode_failures_));
  w.field("fuzz_rejected", static_cast<std::uint64_t>(fuzz_rejected_));
  w.field("fuzz_decoded", static_cast<std::uint64_t>(fuzz_decoded_));
  w.field("roles_silenced", static_cast<std::uint64_t>(roles_silenced_));
  w.field("roles_churned", static_cast<std::uint64_t>(roles_churned_));
  if (!ts.link_class_counts.empty()) {
    w.key("link_classes").begin_object();
    for (const auto& [cls, count] : ts.link_class_counts) {
      w.field(cls, static_cast<std::uint64_t>(count));
    }
    w.end_object();
  }
  // dag() finalizes the trailing residue; the flow matrix is a view of it.
  const obs::dag::DagRecorder& dag = const_cast<NetBulletin*>(this)->dag();
  w.key("flow").begin_object();
  json::Writer edges;
  obs::FlowMatrix(dag.nodes()).write_json(edges);
  w.key("edges").raw(edges.take());
  w.key("series").raw(obs::timeseries().report_json());
  w.end_object();
  // Happens-before DAG summary (counts only — deterministic).
  w.key("dag").raw(dag.report_json());
  w.key("base").raw(Bulletin::report_json());
  w.end_object();
  return w.take();
}

}  // namespace yoso::net
