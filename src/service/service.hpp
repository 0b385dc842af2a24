// MpcService: a long-lived MPC-as-a-service layer over the YOSO substrate.
//
// The service multiplexes many concurrent sessions (src/service/session.hpp)
// over one master discrete-event clock:
//
//   * admission control — structured rejection (RejectReason) for requests
//     that exceed the service's client/depth caps, malformed inputs, a full
//     queue, or arrival after shutdown;
//   * a deterministic session queue — FIFO within a priority level, higher
//     priority first, at most `max_concurrent` sessions running;
//   * a background TriplePool producing preprocessed instances of the
//     service's flagship circuit shape, claimed by fingerprint;
//   * per-session Ledger/NetBulletin/trace scoping, folded into one
//     aggregate ledger and one report_json().
//
// Everything is driven by a net::EventLoop, so a run is a pure function of
// (ServiceConfig, submissions): two identical runs produce bit-for-bit
// identical report_json() output.  CPU work executes synchronously inside
// events; virtual durations come from each session board's per-phase
// traffic, so the simulated timeline prices real protocol communication.
//
//   MpcService svc(cfg);
//   svc.submit_at(0.10, {"agg.batch.0", circuit, inputs, /*priority=*/0});
//   svc.run();
//   const SessionRecord& rec = svc.session(1);
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "service/session.hpp"
#include "service/triple_pool.hpp"
#include "yoso/adversary.hpp"

namespace yoso::service {

// Self-healing knobs (Section 5.4).  With max_resubmits > 0, a session whose
// attempt times out on the phase watchdog or fails with a silence-decisive
// FailureReport is automatically resubmitted on a fresh board under the
// fail-stop parameterization (when that genuinely lowers the reconstruction
// bar), after capped exponential backoff on the virtual clock: the k-th
// resubmit waits min(0.05 s * 2^(k-1), 2 s).  The defaults keep the legacy
// fail-fast behavior.
struct ResilienceConfig {
  unsigned max_resubmits = 0;  // extra attempts per session; 0 = fail fast
  double phase_timeout_s = 0;  // per-phase silence watchdog; 0 = off
};

struct ServiceConfig {
  // Protocol parameterization shared by every session (Theorem 1 knobs).
  unsigned n = 8;
  double eps = 0.25;
  unsigned paillier_bits = 192;
  bool failstop_mode = false;
  std::uint64_t seed = 1;

  // Admission control.
  std::size_t max_concurrent = 4;  // sessions running at once
  std::size_t max_queue = 64;      // queued (admitted, not yet running)
  unsigned max_clients = 64;       // per-circuit input-client cap
  unsigned max_mul_depth = 64;     // per-circuit multiplicative-depth cap

  // Triple pool: preprocesses `pool_circuit` ahead of demand.  An empty
  // pool_circuit (or lanes == 0) leaves the pool idle and every session
  // runs inline (all misses).
  PoolConfig pool;
  Circuit pool_circuit;

  // Self-healing resubmission policy (defaults = legacy fail-fast).
  ResilienceConfig resilience;

  // Network model every session and pool lane runs under.
  net::NetConfig net;
  // Corruption pattern (defaults to all-honest committees of size n).
  std::optional<AdversaryPlan> plan;
};

struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t rejected = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double duration_s = 0;        // first submission to last session finish
  double sessions_per_sec = 0;  // completed per virtual second
  double latency_p50_s = 0;     // nearest-rank percentiles over run sessions
  double latency_p99_s = 0;
  // Resilience accounting (Section 5.4 self-healing).
  std::size_t resubmits = 0;    // extra attempts across all sessions
  std::size_t timeouts = 0;     // attempts cut by the phase watchdog
  std::size_t recovered = 0;    // completed only after >= 1 resubmission
  double backoff_wait_s = 0;    // total virtual backoff across sessions
  std::size_t sunk_bytes = 0;   // bytes sunk in abandoned attempts
  // Structured rejection breakdown, keyed by reject_reason_name().
  std::map<std::string, std::size_t> rejected_by_reason;
  PoolStats pool;
};

class MpcService {
public:
  explicit MpcService(ServiceConfig cfg);
  ~MpcService();

  // Schedules a request to arrive at virtual time `at` (admission happens
  // then).  Returns the session id (1-based, submission order).
  std::uint64_t submit_at(double at, SessionRequest req);
  std::uint64_t submit(SessionRequest req);

  // After `at`, new arrivals are rejected (ShuttingDown) and the pool stops
  // producing; already-admitted sessions still drain.
  void shutdown_at(double at);

  // Starts the pool and drains the event loop; returns the final virtual
  // time.  Call after scheduling submissions.
  double run();

  const std::vector<std::unique_ptr<SessionRecord>>& sessions() const { return records_; }
  const SessionRecord& session(std::uint64_t id) const { return *records_.at(id - 1); }

  ServiceStats stats() const;
  // Every session ledger plus unclaimed pool production, merged.
  Ledger aggregate_ledger() const;

  const TriplePool& pool() const { return *pool_; }
  const ServiceConfig& config() const { return cfg_; }
  const ProtocolParams& params() const { return params_; }
  net::EventLoop& loop() { return loop_; }

  // {"config":…,"stats":…,"pool":…,"sessions":[…],"aggregate_ledger":…} —
  // bit-for-bit identical across identical runs.
  std::string report_json() const;

private:
  void arrive(std::uint64_t id);
  void reject(SessionRecord& rec, RejectReason reason);
  void try_dispatch();
  void execute(std::uint64_t id);
  void finish(std::uint64_t id, bool success);
  void maybe_halt_pool();
  void attach_master_clock();

  ServiceConfig cfg_;
  ProtocolParams params_;
  AdversaryPlan plan_;
  net::EventLoop loop_;
  std::unique_ptr<TriplePool> pool_;

  // Session records are appended at submission time and then owned by their
  // session; the multi-core plan shards sessions per worker, so records_
  // itself is not lock-protected here (a SessionRecord's address is stable
  // once created — the vector holds pointers).
  std::vector<std::unique_ptr<SessionRecord>> records_;

  // The dispatch queue and its occupancy counters are the state concurrent
  // arrival/finish events contend on; lock-protected and annotated ahead of
  // the multi-core engine (docs/STATIC_ANALYSIS.md).
  mutable Mutex mu_;
  // Dispatch order: (-priority, id) — higher priority first, FIFO within.
  std::set<std::pair<std::int64_t, std::uint64_t>> queue_ GUARDED_BY(mu_);
  std::size_t running_ GUARDED_BY(mu_) = 0;
  std::size_t pending_arrivals_ GUARDED_BY(mu_) = 0;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  bool started_ GUARDED_BY(mu_) = false;
};

}  // namespace yoso::service
