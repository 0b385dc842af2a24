#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>

#include "common/json.hpp"
#include "obs/trace.hpp"

namespace yoso::obs {

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The current task's cell.  Thread-local so each worker of the future
// multi-core engine records without synchronization; merge-on-join folds
// the cells back deterministically (docs/STATIC_ANALYSIS.md).
thread_local InstrumentCell* tls_cell = nullptr;

constexpr const char* kOpNames[kOpCount] = {
    "ct.powm_sec",           // CtPowmSec
    "ct.powm_pub",           // CtPowmPub
    "ct.mod_inverse",        // CtModInverse
    "paillier.enc",          // PaillierEnc
    "paillier.enc_secret",   // PaillierEncSecret
    "paillier.dec",          // PaillierDec
    "paillier.eval",         // PaillierEval
    "paillier.tpdec",        // PaillierTpdec
    "paillier.extract_root", // PaillierExtractRoot
    "paillier.add",          // PaillierAdd
    "paillier.scal",         // PaillierScal
    "paillier.scal_secret",  // PaillierScalSecret
    "paillier.rerandomize",  // PaillierRerandomize
    "nizk.prove",            // NizkProve
    "nizk.verify",           // NizkVerify
    "share.pack",            // SharePack
    "share.unpack",          // ShareUnpack
    "field.mul",             // FieldMul
    "field.inv",             // FieldInv
    "codec.encode",          // CodecEncode
    "codec.decode",          // CodecDecode
};

constexpr const char* kPhaseCtxNames[kPhaseCtxCount] = {
    "setup", "offline", "online", "cdn", "other",
};

// Op indices in lexicographic name order, so every JSON export is sorted
// without a per-call sort of strings.
const std::vector<unsigned>& sorted_op_order() {
  static const std::vector<unsigned> order = [] {
    std::vector<unsigned> idx(kOpCount);
    for (unsigned i = 0; i < kOpCount; ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [](unsigned a, unsigned b) {
      return std::string_view(kOpNames[a]) < std::string_view(kOpNames[b]);
    });
    return idx;
  }();
  return order;
}

}  // namespace

const char* op_name(Op op) { return kOpNames[static_cast<unsigned>(op)]; }

const char* phase_ctx_name(PhaseCtx ctx) {
  return kPhaseCtxNames[static_cast<unsigned>(ctx)];
}

void InstrumentCell::merge(const InstrumentCell& other) {
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    for (unsigned o = 0; o < kOpCount; ++o) {
      counts_[p][o] += other.counts_[p][o];
      self_ns_[p][o] += other.self_ns_[p][o];
    }
    phase_wall_ns_[p] += other.phase_wall_ns_[p];
  }
}

void InstrumentCell::reset() {
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    for (unsigned o = 0; o < kOpCount; ++o) {
      counts_[p][o] = 0;
      self_ns_[p][o] = 0;
    }
    phase_wall_ns_[p] = 0;
  }
  ctx_ = PhaseCtx::Other;
  open_ = nullptr;
}

std::uint64_t InstrumentCell::op_total_count(Op op) const {
  std::uint64_t total = 0;
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    total += counts_[p][static_cast<unsigned>(op)];
  }
  return total;
}

std::uint64_t InstrumentCell::op_total_self_ns(Op op) const {
  std::uint64_t total = 0;
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    total += self_ns_[p][static_cast<unsigned>(op)];
  }
  return total;
}

std::string InstrumentCell::snapshot_json() const {
  json::Writer w;
  w.begin_object();
  w.key("ops").begin_object();
  for (unsigned o : sorted_op_order()) {
    const Op op = static_cast<Op>(o);
    const std::uint64_t total = op_total_count(op);
    if (total == 0) continue;
    w.key(kOpNames[o]).begin_object();
    w.field("count", total);
    w.key("by_phase").begin_object();
    for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
      if (counts_[p][o] == 0) continue;
      w.key(kPhaseCtxNames[p]).begin_object();
      w.field("count", counts_[p][o]);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

InstrumentCell& Profiler::cell() { return tls_cell != nullptr ? *tls_cell : root_; }

InstrumentCell* Profiler::install_cell(InstrumentCell* c) {
  InstrumentCell* prev = tls_cell;
  tls_cell = c;
  return prev;
}

void Profiler::reset() {
  root_.reset();
  track_.clear();
}

void Profiler::sample_op_tracks(double t) {
  const InstrumentCell& c = cell();
  for (unsigned o : sorted_op_order()) {
    const Op op = static_cast<Op>(o);
    const std::uint64_t total = c.op_total_count(op);
    if (total == 0) continue;
    track_.push_back(OpTrackSample{t, op, total});
  }
}

Profiler& profiler() {
  static Profiler p;
  return p;
}

ScopedOpContext::ScopedOpContext(PhaseCtx ctx)
    : cell_(&profiler().cell()), prev_(cell_->ctx_), ctx_(ctx), phase_start_ns_(0) {
  // Context switching is unconditional so counts attribute identically in
  // muted and enabled runs; only the timing side is gated.
  cell_->ctx_ = ctx;
  if (enabled()) phase_start_ns_ = wall_now_ns();
}

ScopedOpContext::~ScopedOpContext() {
  if (enabled()) {
    if (phase_start_ns_ != 0) {
      cell_->phase_wall_ns_[static_cast<unsigned>(ctx_)] += wall_now_ns() - phase_start_ns_;
    }
    const double vt = tracer().virtual_now();
    if (vt >= 0) profiler().sample_op_tracks(vt);
  }
  cell_->ctx_ = prev_;
}

OpTimer::OpTimer(Op op, std::uint64_t delta)
    : cell_(&profiler().cell()), parent_(nullptr), op_(op), delta_(delta) {
  cell_->count(op_, delta_);
  if (enabled()) {
    timed_ = true;
    parent_ = cell_->open_;
    cell_->open_ = this;
    start_ns_ = wall_now_ns();
  }
}

OpTimer::~OpTimer() {
  if (!timed_) return;
  const std::uint64_t elapsed = wall_now_ns() - start_ns_;
  const std::uint64_t self = elapsed > child_ns_ ? elapsed - child_ns_ : 0;
  cell_->self_ns_[static_cast<unsigned>(cell_->ctx_)][static_cast<unsigned>(op_)] += self;
  cell_->open_ = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += elapsed;
}

}  // namespace yoso::obs
