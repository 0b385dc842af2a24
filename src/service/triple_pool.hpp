// Background triple/λ-wire pool: the offline phase as a producer.
//
// The paper's offline phase (Pi_Offline) is circuit-dependent but
// input-independent, so for a fixed circuit shape whole preprocessed
// protocol instances can be banked ahead of demand and handed to sessions
// when they arrive — amortizing the dominant offline cost across a stream
// of sessions instead of paying it inline per request.  The pool runs
// `lanes` producer lanes on the service's virtual clock: each lane
// preprocesses one YosoMpc instance at a time (CPU work happens inside the
// event; the banked unit becomes claimable after the instance's own
// setup+offline virtual time has elapsed), parks when the bank is full,
// and resumes when a claim frees a slot.  Banked units are matched to
// sessions by Circuit::fingerprint(); a hit pays only online virtual
// latency, a miss falls back to a full inline run.  Hit/miss accounting is
// ledger-visible ("service.pool.hit"/"service.pool.miss" markers, written
// by MpcService) and exported as the `service.pool.depth` gauge.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/sync.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"

namespace yoso::service {

struct PoolConfig {
  unsigned lanes = 2;        // concurrent producer lanes
  std::size_t capacity = 8;  // banked + in-flight units before lanes park
  bool stalled = false;      // chaos knob: production never starts (all misses)

  // Adaptive target depth: lanes park at an EWMA-derived target —
  // ceil(EWMA produce time / EWMA interarrival), clamped to [1, capacity] —
  // instead of at capacity, so a slow trickle of sessions stops paying for
  // a full bank.  Until both EWMAs have samples the pool prefills to
  // capacity.  Both EWMAs weigh the newest sample 0.3.  Exported as the
  // `service.pool.target_depth` gauge.
  bool adaptive = false;

  // Lane self-healing: a failed production restarts the lane after capped
  // exponential backoff — the r-th restart waits min(0.1 s * 2^(r-1), 5 s) —
  // (the next unit draws fresh seeds) instead of halting it for good.  0
  // keeps the legacy halt-on-failure behavior.
  unsigned max_lane_restarts = 0;  // per lane
};

// One banked preprocessed instance.  The ledger/board/mpc triple moves into
// the claiming SessionRecord wholesale, so the session's ledger shows the
// production-time setup/offline traffic it is amortizing.
struct PooledUnit {
  std::uint64_t id = 0;
  std::uint64_t fingerprint = 0;
  double produced_at = -1;      // virtual time the unit became claimable
  double offline_virtual_s = 0; // setup+offline virtual seconds of production
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<net::NetBulletin> board;
  std::unique_ptr<YosoMpc> mpc;
};

struct PoolStats {
  std::size_t produced = 0;           // units banked
  std::size_t production_failed = 0;  // preprocess aborted (lane halts)
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t depth = 0;       // currently banked
  std::size_t peak_depth = 0;
  std::size_t target_depth = 0;   // current park threshold (adaptive sizing)
  std::size_t lane_restarts = 0;  // failed productions retried after backoff
  double hit_rate() const {
    return hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses);
  }
};

class TriplePool {
public:
  // `loop` is the service's master event loop (must outlive the pool); all
  // production is scheduled on it.  Unit seeds derive from `seed` via
  // mix64(seed ^ unit_id), so a pool run is a pure function of its config.
  TriplePool(ProtocolParams params, Circuit circuit, net::NetConfig net, AdversaryPlan plan,
             std::uint64_t seed, PoolConfig cfg, net::EventLoop* loop);
  ~TriplePool();

  // Kicks every lane (no-op when stalled or lanes == 0).
  void start();
  // Stops lanes from starting further productions (in-flight units still bank).
  void halt();

  // Hands out the oldest banked unit when `fingerprint` matches; counts a
  // hit.  Returns nullptr (and counts a miss) when the bank is empty or the
  // shape differs.  Parked lanes resume on the freed slot.
  std::shared_ptr<PooledUnit> claim(std::uint64_t fingerprint);

  // Feeds the adaptive-target EWMA one session arrival (called by the
  // service at admission time); wakes parked lanes when the target grew.
  // No-op unless cfg.adaptive.
  void note_arrival();

  PoolStats stats() const;  // snapshot under the pool lock
  std::uint64_t fingerprint() const { return fingerprint_; }

  // Merges production traffic that no session ever claimed (still-banked
  // units and failed productions) into `into` — the service's aggregate
  // ledger view stays conservation-complete.
  void fold_unclaimed(Ledger& into) const;

  std::string report_json() const;

private:
  void lane_cycle(unsigned lane);
  void bank(unsigned lane, std::shared_ptr<PooledUnit> unit);
  void set_depth_gauge() REQUIRES(mu_);
  std::size_t target() REQUIRES(mu_);  // park threshold (capacity when not adaptive)
  void wake_parked() REQUIRES(mu_);

  ProtocolParams params_;
  Circuit circuit_;
  net::NetConfig net_;
  AdversaryPlan plan_;
  std::uint64_t seed_ = 0;
  PoolConfig cfg_;
  net::EventLoop* loop_;
  std::uint64_t fingerprint_ = 0;

  // Bank/lane state is shared between producer lanes and claiming sessions
  // once lanes run on worker threads (the deterministic multi-core engine);
  // lock-protected and annotated now so -Wthread-safety proves the
  // discipline.  Production itself (preprocess) runs outside the lock —
  // only the state mutations before and after are critical sections.
  mutable Mutex mu_;
  std::deque<std::shared_ptr<PooledUnit>> bank_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<PooledUnit>> retired_ GUARDED_BY(mu_);  // failed productions
  std::vector<bool> parked_ GUARDED_BY(mu_);
  std::vector<unsigned> restarts_ GUARDED_BY(mu_);  // per-lane restart budget used
  std::size_t in_flight_ GUARDED_BY(mu_) = 0;  // preprocessed, banking event pending
  double ewma_interarrival_s_ GUARDED_BY(mu_) = 0;  // 0 = no sample yet
  double ewma_produce_s_ GUARDED_BY(mu_) = 0;       // 0 = no sample yet
  double last_arrival_s_ GUARDED_BY(mu_) = -1;
  bool halted_ GUARDED_BY(mu_) = false;
  std::uint64_t next_unit_ GUARDED_BY(mu_) = 0;
  PoolStats stats_ GUARDED_BY(mu_);
};

}  // namespace yoso::service
