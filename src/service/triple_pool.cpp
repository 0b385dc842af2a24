#include "service/triple_pool.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/json.hpp"
#include "net/wire_faults.hpp"  // mix64 (per-unit seed derivation)
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace yoso::service {

namespace {

constexpr double kEwmaAlpha = 0.3;           // weight of the newest EWMA sample
constexpr double kRestartBackoffS = 0.1;     // first lane-restart backoff
constexpr double kRestartBackoffCapS = 5.0;  // cap on the doubling backoff

}  // namespace

TriplePool::TriplePool(ProtocolParams params, Circuit circuit, net::NetConfig net,
                       AdversaryPlan plan, std::uint64_t seed, PoolConfig cfg,
                       net::EventLoop* loop)
    : params_(std::move(params)),
      circuit_(std::move(circuit)),
      net_(std::move(net)),
      plan_(std::move(plan)),
      seed_(seed),
      cfg_(cfg),
      loop_(loop),
      fingerprint_(circuit_.fingerprint()),
      parked_(cfg.lanes, false),
      restarts_(cfg.lanes, 0) {}

TriplePool::~TriplePool() { obs::tracer().detach_virtual_clock(this); }

void TriplePool::set_depth_gauge() {
  stats_.depth = bank_.size();
  if (stats_.depth > stats_.peak_depth) stats_.peak_depth = stats_.depth;
  OBS_GAUGE_SET("service.pool.depth", stats_.depth);
}

// Park threshold: capacity, or in adaptive mode the EWMA-derived demand
// target ceil(produce / interarrival) once both estimators have samples
// (prefill to capacity until then), clamped to [1, capacity].
std::size_t TriplePool::target() {
  std::size_t t = cfg_.capacity;
  if (cfg_.adaptive && ewma_interarrival_s_ > 0 && ewma_produce_s_ > 0) {
    const double demand = std::ceil(ewma_produce_s_ / ewma_interarrival_s_);
    t = std::min(cfg_.capacity,
                 static_cast<std::size_t>(std::max(1.0, demand)));
  }
  stats_.target_depth = t;
  if (cfg_.adaptive) OBS_GAUGE_SET("service.pool.target_depth", t);
  return t;
}

void TriplePool::wake_parked() {
  if (halted_ || cfg_.stalled) return;
  for (unsigned lane = 0; lane < cfg_.lanes; ++lane) {
    if (!parked_[lane]) continue;
    parked_[lane] = false;
    // Deferred through the loop, so the resumed lane_cycle never runs
    // under this lock.
    loop_->schedule_at(loop_->now(), [this, lane] { lane_cycle(lane); });
  }
}

void TriplePool::start() {
  if (cfg_.stalled || cfg_.lanes == 0 || circuit_.num_wires() == 0) return;
  for (unsigned lane = 0; lane < cfg_.lanes; ++lane) {
    loop_->schedule_at(loop_->now(), [this, lane] { lane_cycle(lane); });
  }
}

void TriplePool::halt() {
  MutexLock lock(&mu_);
  halted_ = true;
}

void TriplePool::lane_cycle(unsigned lane) {
  std::uint64_t id = 0;
  {
    MutexLock lock(&mu_);
    if (halted_ || cfg_.stalled) return;
    if (bank_.size() + in_flight_ >= target()) {
      parked_[lane] = true;  // claim()/note_arrival() wake us on demand
      return;
    }
    id = ++next_unit_;
  }

  // Production proper runs outside the lock: it touches only the fresh unit
  // and the pool's immutable config, so lanes can overlap once threaded.
  auto unit = std::make_shared<PooledUnit>();
  unit->id = id;
  unit->fingerprint = fingerprint_;
  unit->ledger = std::make_unique<Ledger>();
  net::NetConfig net = net_;
  net.wire_faults.seed = net::mix64(net_.wire_faults.seed ^ id);
  unit->board = std::make_unique<net::NetBulletin>(*unit->ledger, net);
  // The board's constructor claimed the tracer's virtual clock for its own
  // private loop; put the service clock back so spans read service time.
  obs::tracer().attach_virtual_clock(this, [loop = loop_] { return loop->now(); });
  unit->mpc = std::make_unique<YosoMpc>(params_, circuit_, plan_, net::mix64(seed_ ^ id),
                                        unit->board.get());

  obs::Span span("pool.produce", "service");
  span.attr("unit", static_cast<std::int64_t>(id)).attr("lane", static_cast<std::int64_t>(lane));
  try {
    unit->mpc->preprocess();
  } catch (const std::exception&) {
    // Production failed (faulted offline phase under chaos).  The unit's
    // traffic is kept for the aggregate ledger fold.  With a restart budget
    // the lane comes back after capped exponential backoff — the next unit
    // draws fresh seeds, so a transient fault does not starve the bank;
    // without one the lane halts (retrying the *same* plan would spin).
    span.attr("failed", "true");
    MutexLock lock(&mu_);
    stats_.production_failed += 1;
    retired_.push_back(std::move(unit));
    if (restarts_[lane] < cfg_.max_lane_restarts && !halted_ && !cfg_.stalled) {
      restarts_[lane] += 1;
      stats_.lane_restarts += 1;
      const double backoff =
          std::min(kRestartBackoffS *
                       std::ldexp(1.0, static_cast<int>(restarts_[lane]) - 1),
                   kRestartBackoffCapS);
      OBS_COUNT("service.pool.lane_restart");
      loop_->schedule_in(backoff, [this, lane] { lane_cycle(lane); });
    }
    return;
  }
  unit->board->flush();
  const double produce_s = unit->board->phase_traffic(Phase::Setup).seconds +
                           unit->board->phase_traffic(Phase::Offline).seconds;
  unit->offline_virtual_s = produce_s;
  span.end();

  // The CPU work ran now, but on the virtual timeline the unit only becomes
  // claimable after its production traffic has flowed.
  {
    MutexLock lock(&mu_);
    in_flight_ += 1;
    ewma_produce_s_ = ewma_produce_s_ <= 0
                          ? produce_s
                          : kEwmaAlpha * produce_s +
                                (1 - kEwmaAlpha) * ewma_produce_s_;
  }
  loop_->schedule_in(produce_s, [this, lane, unit] { bank(lane, unit); });
}

void TriplePool::bank(unsigned lane, std::shared_ptr<PooledUnit> unit) {
  {
    MutexLock lock(&mu_);
    in_flight_ -= 1;
    unit->produced_at = loop_->now();
    stats_.produced += 1;
    bank_.push_back(std::move(unit));
    set_depth_gauge();
  }
  lane_cycle(lane);  // re-locks; kept outside to avoid recursive acquisition
}

std::shared_ptr<PooledUnit> TriplePool::claim(std::uint64_t fingerprint) {
  MutexLock lock(&mu_);
  if (bank_.empty() || fingerprint != fingerprint_) {
    stats_.misses += 1;
    return nullptr;
  }
  std::shared_ptr<PooledUnit> unit = bank_.front();
  bank_.pop_front();
  stats_.hits += 1;
  set_depth_gauge();
  wake_parked();
  return unit;
}

void TriplePool::note_arrival() {
  if (!cfg_.adaptive) return;
  MutexLock lock(&mu_);
  const double now = loop_->now();
  if (last_arrival_s_ >= 0) {
    const double gap = now - last_arrival_s_;
    ewma_interarrival_s_ = ewma_interarrival_s_ <= 0
                               ? gap
                               : kEwmaAlpha * gap +
                                     (1 - kEwmaAlpha) * ewma_interarrival_s_;
  }
  last_arrival_s_ = now;
  // Demand may have grown the target; parked lanes re-check and re-park if
  // not (the wake is deterministic — it depends only on arrival times).
  if (bank_.size() + in_flight_ < target()) wake_parked();
}

PoolStats TriplePool::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void TriplePool::fold_unclaimed(Ledger& into) const {
  MutexLock lock(&mu_);
  for (const auto& unit : bank_) into.merge(*unit->ledger);
  for (const auto& unit : retired_) into.merge(*unit->ledger);
}

std::string TriplePool::report_json() const {
  MutexLock lock(&mu_);
  json::Writer w;
  w.begin_object();
  w.field("lanes", static_cast<std::uint64_t>(cfg_.lanes));
  w.field("capacity", static_cast<std::uint64_t>(cfg_.capacity));
  w.field("stalled", cfg_.stalled);
  w.field("adaptive", cfg_.adaptive);
  w.field("max_lane_restarts", static_cast<std::uint64_t>(cfg_.max_lane_restarts));
  w.key("fingerprint").str(std::to_string(fingerprint_));
  w.field("produced", static_cast<std::uint64_t>(stats_.produced));
  w.field("production_failed", static_cast<std::uint64_t>(stats_.production_failed));
  w.field("hits", static_cast<std::uint64_t>(stats_.hits));
  w.field("misses", static_cast<std::uint64_t>(stats_.misses));
  w.field("hit_rate", stats_.hit_rate());
  w.field("depth", static_cast<std::uint64_t>(stats_.depth));
  w.field("peak_depth", static_cast<std::uint64_t>(stats_.peak_depth));
  w.field("target_depth", static_cast<std::uint64_t>(stats_.target_depth));
  w.field("lane_restarts", static_cast<std::uint64_t>(stats_.lane_restarts));
  w.end_object();
  return w.take();
}

}  // namespace yoso::service
