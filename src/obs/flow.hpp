// Per-edge traffic matrix: who sent how much to whom, under which ledger
// category, in which phase — a pure view of the happens-before DAG
// (obs/dag/dag.hpp).
//
// The bulletin board realizes every message as a broadcast, so the
// "receiver" of a post is the committee that *consumes* it.  DagRecorder is
// where that handover rule lives: a committee that begins publishing
// consumes every post delivered before it, and posts nobody consumes stay
// leaves.  The matrix groups the DAG's delivered Post nodes by
//   src      the producer's actor (committee or external sender),
//   dst      the actor of the post's first Role or Residue consumer, or
//            "observers" when it has none,
//   category the post's ledger label,
//   phase    the post's phase.
// External nodes never count as consumers: a client that reads a post
// first does not take it from the next committee to act.  The Residue
// node's actor is "observers" as well, so the final committee's output
// posts resolve there either way.
//
// Only posts *accepted onto the board* appear, so the matrix obeys a
// conservation law against the PhasePosts accounting from the chaos layer:
// for every phase, the sum of edge messages equals PhasePosts::delivered
// (tests/flow_test.cpp asserts this under wire faults and fail-stop roles).
// Like the DAG it is board-scoped accounting, not sampling, so
// obs::set_enabled does not mute it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/dag/dag.hpp"

namespace yoso::json {
class Writer;
}

namespace yoso::obs {

struct FlowKey {
  std::string src;       // sending committee (or external sender name)
  std::string dst;       // consuming committee (or "observers")
  std::string category;  // ledger category of the post
  std::uint8_t phase = 0;

  bool operator<(const FlowKey& o) const {
    if (src != o.src) return src < o.src;
    if (dst != o.dst) return dst < o.dst;
    if (category != o.category) return category < o.category;
    return phase < o.phase;
  }
};

struct FlowCell {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t elements = 0;
};

class FlowMatrix {
public:
  // Groups the delivered Post nodes of `nodes` (a DagRecorder's node list:
  // ids are indices and a topological order) into edges.
  explicit FlowMatrix(const std::vector<dag::DagNode>& nodes);

  const std::map<FlowKey, FlowCell>& edges() const { return edges_; }

  // Writes the matrix as a JSON array value (one object per edge, sorted by
  // key, so identical runs serialize byte-identically).
  void write_json(json::Writer& w) const;

private:
  std::map<FlowKey, FlowCell> edges_;
};

}  // namespace yoso::obs
