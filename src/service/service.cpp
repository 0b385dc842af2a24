#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/json.hpp"
#include "net/wire_faults.hpp"  // mix64 (seed derivation)
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace yoso::service {

namespace {

constexpr double kBackoffBaseS = 0.05;  // first resubmit backoff
constexpr double kBackoffCapS = 2.0;    // cap on the doubling backoff

}  // namespace

MpcService::MpcService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      params_(ProtocolParams::for_gap(cfg_.n, cfg_.eps, cfg_.paillier_bits, cfg_.failstop_mode)),
      plan_(cfg_.plan.value_or(AdversaryPlan::honest(cfg_.n))) {
  pool_ = std::make_unique<TriplePool>(params_, cfg_.pool_circuit, cfg_.net, plan_,
                                       net::mix64(cfg_.seed ^ 0x9001ULL), cfg_.pool, &loop_);
  attach_master_clock();
}

MpcService::~MpcService() { obs::tracer().detach_virtual_clock(this); }

void MpcService::attach_master_clock() {
  obs::tracer().attach_virtual_clock(this, [this] { return loop_.now(); });
}

std::uint64_t MpcService::submit_at(double at, SessionRequest req) {
  auto rec = std::make_unique<SessionRecord>();
  rec->id = records_.size() + 1;
  rec->tag = req.tag;
  rec->priority = req.priority;
  rec->request = std::move(req);
  const std::uint64_t id = rec->id;
  records_.push_back(std::move(rec));
  {
    MutexLock lock(&mu_);
    pending_arrivals_ += 1;
  }
  loop_.schedule_at(at, [this, id] { arrive(id); });
  return id;
}

std::uint64_t MpcService::submit(SessionRequest req) {
  return submit_at(loop_.now(), std::move(req));
}

void MpcService::shutdown_at(double at) {
  loop_.schedule_at(at, [this] {
    {
      MutexLock lock(&mu_);
      shutting_down_ = true;
    }
    pool_->halt();
  });
}

void MpcService::arrive(std::uint64_t id) {
  SessionRecord& rec = *records_[id - 1];
  rec.submit_s = loop_.now();
  const Circuit& c = rec.request.circuit;
  if (cfg_.pool.adaptive) pool_->note_arrival();

  bool shutting = false;
  {
    MutexLock lock(&mu_);
    pending_arrivals_ -= 1;
    shutting = shutting_down_;
  }
  if (shutting) {
    reject(rec, RejectReason::ShuttingDown);
    return;
  }
  if (c.num_clients() > cfg_.max_clients) {
    reject(rec, RejectReason::TooManyClients);
    return;
  }
  if (c.mul_depth() > cfg_.max_mul_depth) {
    reject(rec, RejectReason::TooDeep);
    return;
  }
  bool inputs_ok = rec.request.inputs.size() == c.num_clients();
  for (unsigned client = 0; inputs_ok && client < c.num_clients(); ++client) {
    inputs_ok = rec.request.inputs[client].size() == c.inputs_of(client).size();
  }
  if (!inputs_ok) {
    reject(rec, RejectReason::BadInputs);
    return;
  }
  // Occupancy check: a session that can start immediately never queues, so
  // the cap only bites when every runner slot is taken too.  Checked and
  // enqueued under one lock so concurrent arrivals cannot both squeeze past
  // the cap.
  bool full = false;
  {
    MutexLock lock(&mu_);
    if (queue_.size() >= cfg_.max_queue && running_ >= cfg_.max_concurrent) {
      full = true;
    } else {
      queue_.insert({-static_cast<std::int64_t>(rec.priority), id});
    }
  }
  if (full) {
    reject(rec, RejectReason::QueueFull);
    return;
  }
  try_dispatch();
}

void MpcService::reject(SessionRecord& rec, RejectReason reason) {
  rec.state = SessionState::Rejected;
  rec.reject_reason = reason;
  rec.finish_s = loop_.now();
  OBS_COUNT("service.session.rejected");
  maybe_halt_pool();
}

void MpcService::try_dispatch() {
  while (true) {
    std::uint64_t id = 0;
    {
      // Pop + slot reservation in one critical section, so two finish
      // events cannot dispatch the same session or overshoot the cap.
      MutexLock lock(&mu_);
      if (running_ >= cfg_.max_concurrent || queue_.empty()) return;
      id = queue_.begin()->second;
      queue_.erase(queue_.begin());
      running_ += 1;
    }
    execute(id);  // heavy protocol work runs outside the lock
  }
}

void MpcService::execute(std::uint64_t id) {
  SessionRecord& rec = *records_[id - 1];
  rec.state = SessionState::Running;
  if (rec.attempts == 0) rec.start_s = loop_.now();
  rec.attempts += 1;
  const unsigned attempt = rec.attempts;
  rec.failure.reset();
  rec.error.clear();
  rec.outputs.clear();

  // First attempt: claim the pool and run exactly as the fail-fast service
  // did (byte-identical when resilience is off).  Resubmissions never claim
  // — banked units are strict-parameterized — and run inline on a fresh
  // board, under the Section 5.4 fail-stop parameters when those genuinely
  // lower the reconstruction bar.
  bool degraded_attempt = false;
  ProtocolParams attempt_params = params_;
  if (attempt >= 2) {
    const ProtocolParams failstop =
        ProtocolParams::for_gap(cfg_.n, cfg_.eps, cfg_.paillier_bits, /*failstop_mode=*/true);
    if (failstop.recon_threshold() < params_.recon_threshold()) {
      attempt_params = failstop;
      degraded_attempt = true;
      rec.degraded = true;
    }
  }

  std::shared_ptr<PooledUnit> unit =
      attempt == 1 ? pool_->claim(rec.request.circuit.fingerprint()) : nullptr;
  if (unit) {
    rec.pool_hit = true;
    rec.ledger = std::move(unit->ledger);
    rec.board = std::move(unit->board);
    rec.mpc = std::move(unit->mpc);
    OBS_COUNT("service.pool.hit");
  } else {
    // The abandoned attempt's total (which already folds in earlier
    // attempts via its own marker) becomes the new board's sunk-cost
    // marker, so retry bytes accumulate on the final attempt's ledger.
    const std::size_t prev_bytes = rec.ledger ? rec.ledger->total().bytes : 0;
    rec.pool_hit = false;
    rec.ledger = std::make_unique<Ledger>();
    net::NetConfig net = cfg_.net;
    net.wire_faults.seed = net::mix64(cfg_.net.wire_faults.seed ^ (0x5e55ULL + id));
    std::uint64_t mpc_seed = net::mix64(cfg_.seed ^ (0x0de1ULL + id));
    if (attempt >= 2) {
      // Fresh wire/churn/protocol randomness per attempt (the departed-member
      // set is redrawn; parties' link classes stay put — geography is stable).
      const std::uint64_t a = attempt;
      net.wire_faults.seed = net::mix64(net.wire_faults.seed ^ (0xa77eULL * a));
      if (!net.churn.empty()) net.churn.seed = net::mix64(net.churn.seed ^ (0xc4a1ULL * a));
      mpc_seed = net::mix64(mpc_seed ^ (0x5eedULL * a));
    }
    rec.board = std::make_unique<net::NetBulletin>(*rec.ledger, net);
    if (attempt >= 2) {
      rec.sunk_bytes = prev_bytes;
      rec.board->publish_external("service", Phase::Setup, "session.resubmit", prev_bytes, 0);
      if (degraded_attempt) {
        rec.board->publish_external("degrade", Phase::Setup, "degrade.retry", 0, 1);
      }
      OBS_COUNT_N("service.session.resubmit_bytes", prev_bytes);
    }
    rec.mpc = std::make_unique<YosoMpc>(attempt_params, rec.request.circuit, plan_, mpc_seed,
                                        rec.board.get());
    OBS_COUNT("service.pool.miss");
  }
  rec.ledger->record(Phase::Online, rec.pool_hit ? "service.pool.hit" : "service.pool.miss", 0,
                     0);
  // A session board's constructor (miss path) grabs the tracer's virtual
  // clock; restore the master clock so the session root span and everything
  // it encloses stamp service time.
  attach_master_clock();

  obs::Span span("session." + std::to_string(id), "service");
  span.attr("tag", rec.tag)
      .attr("priority", static_cast<std::int64_t>(rec.priority))
      .attr("pool_hit", static_cast<std::int64_t>(rec.pool_hit ? 1 : 0))
      .attr("attempt", static_cast<std::int64_t>(attempt));

  bool success = false;
  try {
    if (!rec.mpc->preprocessed()) rec.mpc->preprocess();
    OnlineResult result = rec.mpc->evaluate(rec.request.inputs);
    rec.outputs = std::move(result.outputs);
    rec.plaintext_modulus = rec.mpc->plaintext_modulus();
    success = true;
  } catch (const ProtocolAbort& abort) {
    if (abort.report().has_value()) {
      rec.failure = abort.report();
    } else {
      rec.error = abort.what();
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.board->flush();

  // A pool hit already paid setup+offline on the production timeline; the
  // session's own latency is the online phase.  A miss pays all three inline.
  // The phase watchdog cuts any inline phase whose virtual time exceeds the
  // timeout — the attempt counts as failed (the board went silent too long
  // for the client to keep waiting) and the timeline stops at the cut.
  const ResilienceConfig& res = cfg_.resilience;
  bool attempt_timed_out = false;
  double duration = 0;
  for (Phase p : {Phase::Setup, Phase::Offline, Phase::Online}) {
    if (rec.pool_hit && p != Phase::Online) continue;
    const double s = rec.board->phase_traffic(p).seconds;
    if (res.phase_timeout_s > 0 && s > res.phase_timeout_s) {
      attempt_timed_out = true;
      rec.timeouts += 1;
      rec.timeout_phase = p;
      duration += res.phase_timeout_s;
      break;
    }
    duration += s;
  }
  if (attempt_timed_out) {
    success = false;
    rec.outputs.clear();
    if (!rec.failure.has_value() && rec.error.empty()) {
      rec.error = std::string("phase timeout: ") + phase_name(rec.timeout_phase);
    }
    OBS_COUNT("service.session.timeout");
  }
  span.attr("success", static_cast<std::int64_t>(success ? 1 : 0));
  span.end();

  // Self-healing: a timed-out or silence-decisive failure is resubmitted
  // (bounded by max_resubmits) after capped exponential backoff; the runner
  // slot is held through the backoff so occupancy stays honest.
  const bool silence_failure = rec.failure.has_value() && rec.failure->silence_decisive();
  if (!success && rec.resubmits < res.max_resubmits &&
      (attempt_timed_out || silence_failure)) {
    rec.resubmits += 1;
    const double backoff =
        std::min(kBackoffBaseS * std::ldexp(1.0, static_cast<int>(rec.resubmits) - 1),
                 kBackoffCapS);
    rec.backoff_wait_s += backoff;
    OBS_COUNT("service.session.resubmit");
    loop_.schedule_in(duration + backoff, [this, id] { execute(id); });
    return;
  }

  loop_.schedule_in(duration, [this, id, success] { finish(id, success); });
}

void MpcService::finish(std::uint64_t id, bool success) {
  SessionRecord& rec = *records_[id - 1];
  rec.finish_s = loop_.now();
  rec.state = success ? SessionState::Completed : SessionState::Failed;
  if (success) {
    OBS_COUNT("service.session.completed");
    if (rec.resubmits > 0) OBS_COUNT("service.session.recovered");
  } else {
    OBS_COUNT("service.session.failed");
  }
  OBS_HIST("service.session.latency_us",
           static_cast<std::uint64_t>(rec.latency_s() * 1e6));
  {
    MutexLock lock(&mu_);
    running_ -= 1;
  }
  try_dispatch();
  maybe_halt_pool();
}

void MpcService::maybe_halt_pool() {
  bool idle = false;
  {
    MutexLock lock(&mu_);
    idle = pending_arrivals_ == 0 && queue_.empty() && running_ == 0;
  }
  if (idle) pool_->halt();  // the pool takes its own lock
}

double MpcService::run() {
  {
    MutexLock lock(&mu_);
    started_ = true;
  }
  attach_master_clock();
  pool_->start();
  return loop_.run();
}

namespace {

// Nearest-rank percentile over an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

}  // namespace

ServiceStats MpcService::stats() const {
  ServiceStats s;
  s.submitted = records_.size();
  std::vector<double> latencies;
  double first_submit = -1, last_finish = -1;
  for (const auto& rec : records_) {
    switch (rec->state) {
      case SessionState::Rejected:
        s.rejected += 1;
        s.rejected_by_reason[reject_reason_name(rec->reject_reason)] += 1;
        break;
      case SessionState::Completed: s.completed += 1; break;
      case SessionState::Failed: s.failed += 1; break;
      default: break;
    }
    s.resubmits += rec->resubmits;
    s.timeouts += rec->timeouts;
    s.backoff_wait_s += rec->backoff_wait_s;
    s.sunk_bytes += rec->sunk_bytes;
    if (rec->state == SessionState::Completed && rec->resubmits > 0) s.recovered += 1;
    if (rec->state == SessionState::Completed || rec->state == SessionState::Failed) {
      latencies.push_back(rec->latency_s());
      if (first_submit < 0 || rec->submit_s < first_submit) first_submit = rec->submit_s;
      if (rec->finish_s > last_finish) last_finish = rec->finish_s;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  s.latency_p50_s = percentile(latencies, 0.50);
  s.latency_p99_s = percentile(latencies, 0.99);
  if (last_finish > first_submit && first_submit >= 0) {
    s.duration_s = last_finish - first_submit;
    s.sessions_per_sec = static_cast<double>(s.completed) / s.duration_s;
  }
  s.pool = pool_->stats();
  return s;
}

Ledger MpcService::aggregate_ledger() const {
  Ledger out;
  for (const auto& rec : records_) {
    if (rec->ledger) out.merge(*rec->ledger);
  }
  pool_->fold_unclaimed(out);
  return out;
}

std::string MpcService::report_json() const {
  const ServiceStats s = stats();
  json::Writer w;
  w.begin_object();
  w.key("meta").raw(obs::run_metadata_json());
  w.key("config").begin_object();
  w.field("n", static_cast<std::uint64_t>(cfg_.n));
  w.field("eps", cfg_.eps);
  w.field("paillier_bits", static_cast<std::uint64_t>(cfg_.paillier_bits));
  w.field("failstop_mode", cfg_.failstop_mode);
  w.field("seed", static_cast<std::uint64_t>(cfg_.seed));
  w.field("max_concurrent", static_cast<std::uint64_t>(cfg_.max_concurrent));
  w.field("max_queue", static_cast<std::uint64_t>(cfg_.max_queue));
  w.field("max_clients", static_cast<std::uint64_t>(cfg_.max_clients));
  w.field("max_mul_depth", static_cast<std::uint64_t>(cfg_.max_mul_depth));
  w.key("resilience").begin_object();
  w.field("max_resubmits", static_cast<std::uint64_t>(cfg_.resilience.max_resubmits));
  w.field("phase_timeout_s", cfg_.resilience.phase_timeout_s);
  w.field("backoff_base_s", kBackoffBaseS);
  w.field("backoff_cap_s", kBackoffCapS);
  w.end_object();
  w.end_object();
  w.key("stats").begin_object();
  w.field("submitted", static_cast<std::uint64_t>(s.submitted));
  w.field("rejected", static_cast<std::uint64_t>(s.rejected));
  w.field("completed", static_cast<std::uint64_t>(s.completed));
  w.field("failed", static_cast<std::uint64_t>(s.failed));
  w.field("duration_s", s.duration_s);
  w.field("sessions_per_sec", s.sessions_per_sec);
  w.field("latency_p50_s", s.latency_p50_s);
  w.field("latency_p99_s", s.latency_p99_s);
  w.field("resubmits", static_cast<std::uint64_t>(s.resubmits));
  w.field("timeouts", static_cast<std::uint64_t>(s.timeouts));
  w.field("recovered", static_cast<std::uint64_t>(s.recovered));
  w.field("backoff_wait_s", s.backoff_wait_s);
  w.field("sunk_bytes", static_cast<std::uint64_t>(s.sunk_bytes));
  w.key("rejected_by_reason").begin_object();
  for (const auto& [reason, count] : s.rejected_by_reason) {
    w.field(reason, static_cast<std::uint64_t>(count));
  }
  w.end_object();
  w.end_object();
  w.key("pool").raw(pool_->report_json());
  w.key("sessions").begin_array();
  for (const auto& rec : records_) w.raw(rec->to_json());
  w.end_array();
  w.key("aggregate_ledger").raw(aggregate_ledger().report_json());
  w.end_object();
  return w.take();
}

}  // namespace yoso::service
