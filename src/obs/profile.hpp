// Hot-path compute profiler: per-primitive counters and self-time
// accounting, recorded into task-local InstrumentCells.
//
// Where the metrics registry (obs/metrics.hpp) answers "what happened on
// the board", the profiler answers "where did the CPU go": every crypto
// primitive funnel — the ct_math exponentiations, the Paillier layer, NIZK
// prove/verify, packed share/reconstruct, the field-op funnels in
// field/poly.hpp — records into a fixed-size cell indexed by a closed Op
// enum, attributed to the enclosing protocol phase (ScopedOpContext).
// Array indexing replaces the registry's name->handle map on these paths:
// recording is a couple of adds on a task-local cell, no lock, no lookup.
//
// Determinism contract (the same split the FlowMatrix uses):
//   * op COUNTS are always recorded — they are a pure function of the
//     seeded run, ride into run reports / BENCH files, and must be
//     byte-identical across replays and identical between enabled and
//     muted runs (tests/determinism_test.cpp asserts both);
//   * op TIMINGS (self-ns, phase wall) are machine-dependent and therefore
//     muted by obs::set_enabled(false).  No export carries them: they are
//     read through the accessors only (bench/e2e, `trace costs`).
//
// Task-local cells: a worker task installs its own cell with ScopedCell at
// spawn and the owner merges it back with InstrumentCell::merge on join.
// merge() is an elementwise sum — commutative and associative — so any
// join order yields a byte-identical snapshot (the merge-on-join half of
// the deterministic multi-core engine; the thread pool itself is future
// work).
//
// docs/PROFILING.md is the user guide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/runtime.hpp"

namespace yoso::obs {

// Closed set of profiled primitives.  Adding one: extend the enum, add its
// dotted name to op_name(), mark it timed or count-only at the call site
// (docs/PROFILING.md walks through it).
enum class Op : unsigned {
  CtPowmSec = 0,
  CtPowmPub,
  CtModInverse,
  PaillierEnc,
  PaillierEncSecret,
  PaillierDec,
  PaillierEval,
  PaillierTpdec,
  PaillierExtractRoot,
  PaillierAdd,
  PaillierScal,
  PaillierScalSecret,
  PaillierRerandomize,
  NizkProve,
  NizkVerify,
  SharePack,
  ShareUnpack,
  FieldMul,
  FieldInv,
  CodecEncode,
  CodecDecode,
  kCount
};

inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

// Enclosing-phase attribution for every recorded op.
enum class PhaseCtx : unsigned { Setup = 0, Offline, Online, Cdn, Other, kCount };

inline constexpr std::size_t kPhaseCtxCount = static_cast<std::size_t>(PhaseCtx::kCount);

const char* op_name(Op op);
const char* phase_ctx_name(PhaseCtx ctx);

class OpTimer;

// Per-task accumulation buffer.  Plain arrays, value-semantic, no locks:
// exactly one task writes a cell at a time (the task-local policy in
// docs/STATIC_ANALYSIS.md), and cross-task aggregation happens through
// merge() on join.
class InstrumentCell {
public:
  // Always records (determinism contract above); attribution is the cell's
  // current phase context.
  void count(Op op, std::uint64_t delta = 1) {
    counts_[static_cast<unsigned>(ctx_)][static_cast<unsigned>(op)] += delta;
  }

  // Elementwise sum of counts, self-times and phase wall — commutative +
  // associative, so join order cannot change the result.
  // Live state (current context, open timer chain) is not merged.
  void merge(const InstrumentCell& other);

  void reset();

  std::uint64_t op_count(PhaseCtx ctx, Op op) const {
    return counts_[static_cast<unsigned>(ctx)][static_cast<unsigned>(op)];
  }
  std::uint64_t op_total_count(Op op) const;
  std::uint64_t op_self_ns(PhaseCtx ctx, Op op) const {
    return self_ns_[static_cast<unsigned>(ctx)][static_cast<unsigned>(op)];
  }
  std::uint64_t op_total_self_ns(Op op) const;
  std::uint64_t phase_wall_ns(PhaseCtx ctx) const {
    return phase_wall_ns_[static_cast<unsigned>(ctx)];
  }
  PhaseCtx context() const { return ctx_; }

  // {"ops":{"<name>":{"count":...,"by_phase":{...}}}} through the
  // json::Writer funnel: counts only, so deterministic.  Op names sorted.
  std::string snapshot_json() const;

private:
  friend class OpTimer;
  friend class ScopedOpContext;

  std::uint64_t counts_[kPhaseCtxCount][kOpCount] = {};
  std::uint64_t self_ns_[kPhaseCtxCount][kOpCount] = {};
  std::uint64_t phase_wall_ns_[kPhaseCtxCount] = {};

  // Live (unmerged) state: current phase attribution and the innermost open
  // timer, for self-time = elapsed - time spent in nested profiled ops.
  PhaseCtx ctx_ = PhaseCtx::Other;
  OpTimer* open_ = nullptr;
};

// One op-granularity counter-track sample: cumulative count of `op` at
// virtual time `t`.  Recorded at phase-context boundaries, emitted by the
// tracer's Chrome export as "C" events named `op.count.<name>` — Perfetto
// renders them as stepped graphs under the span timeline.  Deterministic:
// counts and the virtual clock both are.
struct OpTrackSample {
  double t = 0;
  Op op = Op::CtPowmSec;
  std::uint64_t value = 0;
};

// The profiler: owns the root cell (the main task's buffer) and the
// task-local current-cell pointer the recording macros go through.
class Profiler {
public:
  // The cell the current task records into (the root unless a ScopedCell
  // installed a task-local one).
  InstrumentCell& cell();

  // Installs `c` as the current task's cell; returns the previous one.
  // Use ScopedCell rather than calling this directly.
  InstrumentCell* install_cell(InstrumentCell* c);

  // Copy of the root cell (after any merged joins).
  InstrumentCell snapshot() const { return root_; }

  void reset();

  // Appends one sample per op with a nonzero cumulative count in the
  // current task's cell.  Called by ScopedOpContext at phase boundaries.
  void sample_op_tracks(double t);
  const std::vector<OpTrackSample>& op_track_samples() const { return track_; }

private:
  InstrumentCell root_;
  // Counter-track buffer: contexts open and close on the owning task only
  // (the same task-local policy as the cells), so no lock.
  std::vector<OpTrackSample> track_;
};

Profiler& profiler();

// RAII task-cell installation: create one at task spawn with the task's own
// cell; the destructor restores the previous cell.  The owner merges the
// task cell on join: profiler().cell().merge(task_cell).
class ScopedCell {
public:
  explicit ScopedCell(InstrumentCell* c) : cell_(c), prev_(profiler().install_cell(c)) {}
  ~ScopedCell() {
    // LIFO-checked restore: only uninstall if our cell is still the innermost
    // installation.  An exception unwinding past an unmatched install_cell()
    // call (no scope guard) would otherwise have this dtor clobber the newer
    // installation with a possibly-dangling prev_.
    InstrumentCell* displaced = profiler().install_cell(prev_);
    if (displaced != cell_) profiler().install_cell(displaced);
  }
  ScopedCell(const ScopedCell&) = delete;
  ScopedCell& operator=(const ScopedCell&) = delete;

private:
  InstrumentCell* cell_;
  InstrumentCell* prev_;
};

// RAII phase attribution.  Installed at the protocol phase roots
// (mpc/protocol.cpp, baseline/cdn.cpp); everything recorded inside lands in
// that phase's row.  Context switching is unconditional (counts must
// attribute identically whether recording is muted or not); the wall-clock
// accounting and the op.count.* counter-track samples are enabled-gated.
class ScopedOpContext {
public:
  explicit ScopedOpContext(PhaseCtx ctx);
  ~ScopedOpContext();
  ScopedOpContext(const ScopedOpContext&) = delete;
  ScopedOpContext& operator=(const ScopedOpContext&) = delete;

private:
  InstrumentCell* cell_;
  PhaseCtx prev_;
  PhaseCtx ctx_;
  std::uint64_t phase_start_ns_;
};

// RAII per-op timer: counts `delta` on construction and, on destruction,
// adds elapsed minus nested-profiled-op time to self-ns.  Muted runs skip
// the clock reads but still count.
class OpTimer {
public:
  explicit OpTimer(Op op, std::uint64_t delta = 1);
  ~OpTimer();
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

private:
  friend class InstrumentCell;
  InstrumentCell* cell_;
  OpTimer* parent_;
  Op op_;
  std::uint64_t delta_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  bool timed_ = false;
};

#define OBS_PROFILE_CONCAT2(a, b) a##b
#define OBS_PROFILE_CONCAT(a, b) OBS_PROFILE_CONCAT2(a, b)

// Timed op (RAII over the rest of the enclosing scope).
#define OBS_OP(op) \
  ::yoso::obs::OpTimer OBS_PROFILE_CONCAT(obs_op_timer_, __LINE__)(::yoso::obs::Op::op)
#define OBS_OP_N(op, delta)                                                     \
  ::yoso::obs::OpTimer OBS_PROFILE_CONCAT(obs_op_timer_, __LINE__)(             \
      ::yoso::obs::Op::op, static_cast<std::uint64_t>(delta))

// Count-only op (too hot or too coarse to time per call).
#define OBS_OP_COUNT(op)                                          \
  do {                                                            \
    ::yoso::obs::profiler().cell().count(::yoso::obs::Op::op);    \
  } while (0)
#define OBS_OP_COUNT_N(op, delta)                                 \
  do {                                                            \
    ::yoso::obs::profiler().cell().count(::yoso::obs::Op::op,     \
                                         static_cast<std::uint64_t>(delta)); \
  } while (0)

}  // namespace yoso::obs
