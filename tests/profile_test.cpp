// The compute profiler (src/obs/profile.hpp): phase attribution, the
// counts-always/timings-gated determinism split, task-local cells merging
// join-order-independently, and the counts-only snapshot JSON surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/profile.hpp"
#include "obs/runtime.hpp"

namespace yoso::obs {
namespace {

// Every test starts from a clean profiler with recording on (the obs
// singletons are process-global; see tests/determinism_test.cpp).
class ProfileTest : public ::testing::Test {
protected:
  void SetUp() override {
    set_enabled(true);
    profiler().reset();
  }
  void TearDown() override { set_enabled(true); }
};

// A deterministic little workload: `salt` varies the mix so distinct task
// cells carry distinct numbers.
void record_workload(unsigned salt) {
  ScopedOpContext setup(PhaseCtx::Setup);
  for (unsigned i = 0; i < 2 + salt; ++i) {
    OBS_OP(CtPowmSec);
  }
  {
    ScopedOpContext online(PhaseCtx::Online);
    OBS_OP_COUNT_N(FieldMul, 10 * (salt + 1));
    OBS_OP_N(SharePack, salt + 1);
    { OBS_OP(NizkProve); }
  }
  OBS_OP_COUNT(PaillierAdd);  // context restored: lands back in Setup
}

TEST_F(ProfileTest, CountsAttributeToEnclosingPhase) {
  record_workload(1);
  const InstrumentCell cell = profiler().snapshot();
  EXPECT_EQ(cell.op_count(PhaseCtx::Setup, Op::CtPowmSec), 3u);
  EXPECT_EQ(cell.op_count(PhaseCtx::Setup, Op::PaillierAdd), 1u);
  EXPECT_EQ(cell.op_count(PhaseCtx::Online, Op::FieldMul), 20u);
  EXPECT_EQ(cell.op_count(PhaseCtx::Online, Op::SharePack), 2u);
  EXPECT_EQ(cell.op_count(PhaseCtx::Online, Op::NizkProve), 1u);
  // Nothing leaked into the other contexts.
  EXPECT_EQ(cell.op_count(PhaseCtx::Other, Op::CtPowmSec), 0u);
  EXPECT_EQ(cell.op_count(PhaseCtx::Online, Op::CtPowmSec), 0u);
  EXPECT_EQ(cell.op_total_count(Op::CtPowmSec), 3u);
}

TEST_F(ProfileTest, TimedOpRecordsSelfTimeHistogramAndPhaseWall) {
  {
    ScopedOpContext ctx(PhaseCtx::Offline);
    OBS_OP(CtPowmSec);
    volatile unsigned src = 3;
    unsigned sink = 0;
    for (unsigned i = 0; i < 50000; ++i) sink += src * i;
    EXPECT_NE(sink, 0u);
  }
  const InstrumentCell cell = profiler().snapshot();
  EXPECT_EQ(cell.op_total_count(Op::CtPowmSec), 1u);
  EXPECT_GT(cell.op_self_ns(PhaseCtx::Offline, Op::CtPowmSec), 0u);
  EXPECT_GT(cell.phase_wall_ns(PhaseCtx::Offline), 0u);
}

// Self-times partition elapsed time: nested timed ops subtract their
// elapsed from the parent's self, so the per-phase self-time sum can never
// exceed the phase wall-clock that encloses every timer.
TEST_F(ProfileTest, NestedTimersSelfTimeStaysWithinPhaseWall) {
  {
    ScopedOpContext ctx(PhaseCtx::Online);
    OBS_OP(NizkProve);
    volatile unsigned src = 3;
    unsigned sink = 0;
    for (unsigned i = 0; i < 20000; ++i) sink += src * i;
    {
      OBS_OP(CtPowmSec);
      for (unsigned i = 0; i < 20000; ++i) sink += src * i;
    }
    EXPECT_NE(sink, 0u);
  }
  const InstrumentCell cell = profiler().snapshot();
  const std::uint64_t parent_self = cell.op_self_ns(PhaseCtx::Online, Op::NizkProve);
  const std::uint64_t child_self = cell.op_self_ns(PhaseCtx::Online, Op::CtPowmSec);
  EXPECT_GT(parent_self, 0u);
  EXPECT_GT(child_self, 0u);
  std::uint64_t phase_self = 0;
  for (unsigned o = 0; o < kOpCount; ++o) {
    phase_self += cell.op_self_ns(PhaseCtx::Online, static_cast<Op>(o));
  }
  EXPECT_LE(phase_self, cell.phase_wall_ns(PhaseCtx::Online));
}

TEST_F(ProfileTest, MutedRunStillCountsButSkipsTimings) {
  set_enabled(false);
  record_workload(0);
  const InstrumentCell cell = profiler().snapshot();
  EXPECT_EQ(cell.op_count(PhaseCtx::Setup, Op::CtPowmSec), 2u);
  EXPECT_EQ(cell.op_count(PhaseCtx::Online, Op::FieldMul), 10u);
  // No clock reads when muted: zero self-time, zero wall.
  EXPECT_EQ(cell.op_total_self_ns(Op::CtPowmSec), 0u);
  EXPECT_EQ(cell.phase_wall_ns(PhaseCtx::Setup), 0u);
  EXPECT_EQ(cell.phase_wall_ns(PhaseCtx::Online), 0u);
}

// The determinism contract: the counts-only snapshot is byte-identical
// between an enabled and a muted run of the same workload.
TEST_F(ProfileTest, CountsSnapshotIdenticalEnabledVsMuted) {
  auto run = [](bool enabled) {
    set_enabled(enabled);
    profiler().reset();
    record_workload(2);
    set_enabled(true);
    return profiler().snapshot().snapshot_json();
  };
  const std::string on = run(true);
  const std::string off = run(false);
  EXPECT_FALSE(on.empty());
  EXPECT_EQ(on, off);
  // And the document really carries no timed field.
  EXPECT_EQ(on.find("self_us"), std::string::npos);
  EXPECT_EQ(on.find("wall"), std::string::npos);
  EXPECT_EQ(on.find("hist"), std::string::npos);
}

TEST_F(ProfileTest, ScopedCellInstallsAndRestoresTaskCell) {
  InstrumentCell task;
  {
    ScopedCell guard(&task);
    ASSERT_EQ(&profiler().cell(), &task);
    ScopedOpContext ctx(PhaseCtx::Offline);
    OBS_OP_COUNT_N(FieldInv, 5);
  }
  EXPECT_EQ(task.op_count(PhaseCtx::Offline, Op::FieldInv), 5u);
  // The root saw nothing while the task cell was installed...
  EXPECT_EQ(profiler().snapshot().op_total_count(Op::FieldInv), 0u);
  // ...and recording lands back in the root once the guard is gone.
  profiler().cell().count(Op::FieldInv, 2);
  EXPECT_EQ(profiler().snapshot().op_total_count(Op::FieldInv), 2u);
}

// The abort path: an exception unwinding through a ScopedCell restores the
// previous cell, and the partial counts recorded before the abort are still
// sitting in the task cell, ready for the owner to merge.
TEST_F(ProfileTest, AbortedTaskCellRestoresAndStillMerges) {
  InstrumentCell task;
  auto worker = [&task] {
    ScopedCell guard(&task);
    ScopedOpContext ctx(PhaseCtx::Offline);
    OBS_OP_COUNT_N(FieldInv, 3);
    throw std::runtime_error("protocol abort");
  };
  EXPECT_THROW(worker(), std::runtime_error);
  // The root is current again after the unwind...
  profiler().cell().count(Op::FieldMul, 1);
  EXPECT_EQ(profiler().snapshot().op_total_count(Op::FieldMul), 1u);
  // ...and the aborted task's partial counts merge like any clean join.
  EXPECT_EQ(task.op_count(PhaseCtx::Offline, Op::FieldInv), 3u);
  profiler().cell().merge(task);
  EXPECT_EQ(profiler().snapshot().op_count(PhaseCtx::Offline, Op::FieldInv), 3u);
}

// Non-LIFO teardown (an unmatched install_cell with no guard, unwound past):
// the guard's dtor must not clobber the newer installation with its stale
// prev_ pointer.
TEST_F(ProfileTest, ScopedCellKeepsNewerInstallOnNonLifoTeardown) {
  InstrumentCell a;
  InstrumentCell b;
  {
    ScopedCell guard(&a);
    profiler().install_cell(&b);  // deliberately unguarded
  }
  EXPECT_EQ(&profiler().cell(), &b);
  profiler().install_cell(nullptr);  // back to the root for the next test
  EXPECT_NE(&profiler().cell(), &b);
}

// merge() is an elementwise sum, so the owner can merge task cells back in
// ANY join order and every merged cell — counts, self-ns and phase wall —
// is identical.
TEST_F(ProfileTest, MergeIsJoinOrderIndependent) {
  constexpr unsigned kTasks = 4;
  std::vector<InstrumentCell> cells(kTasks);
  for (unsigned s = 0; s < kTasks; ++s) {
    ScopedCell guard(&cells[s]);
    record_workload(s);
  }
  // The timed side is really exercised, so the comparison below covers it.
  ASSERT_GT(cells.back().op_self_ns(PhaseCtx::Setup, Op::CtPowmSec), 0u);
  ASSERT_GT(cells.back().phase_wall_ns(PhaseCtx::Online), 0u);

  const auto same_cell = [](const InstrumentCell& a, const InstrumentCell& b) {
    for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
      const auto ctx = static_cast<PhaseCtx>(p);
      if (a.phase_wall_ns(ctx) != b.phase_wall_ns(ctx)) return false;
      for (unsigned o = 0; o < kOpCount; ++o) {
        const auto op = static_cast<Op>(o);
        if (a.op_count(ctx, op) != b.op_count(ctx, op)) return false;
        if (a.op_self_ns(ctx, op) != b.op_self_ns(ctx, op)) return false;
      }
    }
    return true;
  };
  std::vector<unsigned> order(kTasks);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<InstrumentCell> merged;
  do {
    InstrumentCell root;
    for (unsigned idx : order) root.merge(cells[idx]);
    merged.push_back(root);
  } while (std::next_permutation(order.begin(), order.end()));
  ASSERT_EQ(merged.size(), 24u);
  for (const InstrumentCell& m : merged) {
    ASSERT_TRUE(same_cell(m, merged.front())) << "join order changed the merged cell";
  }

  // Merged totals are the elementwise sums of the parts.
  InstrumentCell root;
  for (const InstrumentCell& c : cells) root.merge(c);
  std::uint64_t expected = 0, expected_self = 0, expected_wall = 0;
  for (const InstrumentCell& c : cells) {
    expected += c.op_total_count(Op::CtPowmSec);
    expected_self += c.op_total_self_ns(Op::CtPowmSec);
    expected_wall += c.phase_wall_ns(PhaseCtx::Online);
  }
  EXPECT_EQ(root.op_total_count(Op::CtPowmSec), expected);
  EXPECT_EQ(root.op_total_self_ns(Op::CtPowmSec), expected_self);
  EXPECT_EQ(root.phase_wall_ns(PhaseCtx::Online), expected_wall);
  // Live state does not merge: the target keeps its own context.
  EXPECT_EQ(root.context(), PhaseCtx::Other);
}

TEST_F(ProfileTest, SnapshotJsonParsesAndSortsOps) {
  record_workload(1);
  const std::string snap = profiler().snapshot().snapshot_json();
  const json::Value doc = json::parse(snap);
  const json::Value* ops = doc.find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_TRUE(ops->is_object());
  EXPECT_EQ(ops->find("ct.powm_sec")->u64_or("count", 0), 3u);
  // Op names come out lexicographically sorted — a stable diffable order.
  std::vector<std::string> names;
  for (const auto& [name, v] : ops->members) names.push_back(name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // Per-phase attribution rides along.
  const json::Value* by_phase = ops->find("field.mul")->find("by_phase");
  ASSERT_NE(by_phase, nullptr);
  EXPECT_EQ(by_phase->find("online")->u64_or("count", 0), 20u);
}

TEST_F(ProfileTest, OpTrackSamplesRecordCumulativeCounts) {
  {
    ScopedOpContext ctx(PhaseCtx::Setup);
    OBS_OP_COUNT_N(FieldMul, 3);
  }
  profiler().sample_op_tracks(1.25);
  const auto& samples = profiler().op_track_samples();
  ASSERT_FALSE(samples.empty());
  bool found = false;
  for (const OpTrackSample& s : samples) {
    if (s.op == Op::FieldMul) {
      found = true;
      EXPECT_DOUBLE_EQ(s.t, 1.25);
      EXPECT_EQ(s.value, 3u);
    }
  }
  EXPECT_TRUE(found);
  profiler().reset();
  EXPECT_TRUE(profiler().op_track_samples().empty());
}

}  // namespace
}  // namespace yoso::obs
