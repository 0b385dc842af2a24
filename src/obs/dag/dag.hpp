// Happens-before DAG reconstruction for a YOSO run.
//
// The YOSO model makes the concurrency structure of a run fully recoverable
// from the board: every role speaks once, every message is a broadcast, and
// a committee that begins publishing has — by the handover order — consumed
// everything already on the board.  DagRecorder rebuilds that structure as
// the board observes it:
//
//   nodes  = role activations (the compute a role performs before and
//            between its posts), per-post pipeline work (codec encode +
//            decode-check round-trip), external senders (clients, dealer),
//            and one trailing Residue node for compute after the last post
//            (output reconstruction, verification sweeps);
//   edges  = publish -> consume: posts delivered while committee A
//            publishes are consumed by the next committee B to begin
//            publishing — every role of B gets an in-edge from each of A's
//            delivered posts.  Dropped/corrupt/truncated/late posts get NO
//            out-edges: nothing downstream may depend on a post the board
//            never accepted (tests/dag_test.cpp holds this under seeded
//            wire-fault schedules).
//
// This is the one place the handover rule lives: the committee traffic
// matrix (obs/flow.hpp) is a view that groups these Post nodes by producer,
// first consumer, category and phase.
//
// Node weights come from the compute observatory (PR 9): each node carries
// the per-(phase, op) count delta the profiler accumulated while that
// node's work ran — the delta-snapshot taken at every publish boundary.
// Summed over all nodes (including the residue) the counts reconcile
// *exactly* with the profiler's own totals: Sigma node counts == profiler
// delta over the run, by construction.  Attribution is producer-biased:
// protocol code interleaves "compute message j, publish j" per role, so the
// delta before a post belongs to the posting role; consumer-side
// verification that runs before the *next* post lands on that next node
// (docs/OBSERVABILITY.md discusses the bias).
//
// Everything here is counts-only and therefore deterministic: a same-seed
// replay produces a byte-identical DAG whether obs timing is enabled or
// muted.  Pricing the nodes (src/perf/critpath.hpp) uses a fixed reference
// coefficient table for the same reason.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/profile.hpp"

namespace yoso::obs::dag {

// Flat copy of a cell's per-(phase, op) counters; the unit of node weight.
struct CountMatrix {
  std::uint64_t v[kPhaseCtxCount][kOpCount] = {};

  static CountMatrix capture(const InstrumentCell& cell);
  // Elementwise this - earlier (counters are monotone within a run).
  CountMatrix delta_since(const CountMatrix& earlier) const;
  void add(const CountMatrix& other);
  bool operator==(const CountMatrix& other) const;
  bool is_zero() const;
  std::uint64_t total() const;
};

enum class NodeKind : std::uint8_t { Role, Post, External, Residue };

const char* node_kind_name(NodeKind kind);

struct DagNode {
  std::uint32_t id = 0;
  NodeKind kind = NodeKind::Role;
  // Ledger phase of the activity (Setup/Offline/Online index; Residue nodes
  // keep the phase of the last post).
  std::uint8_t phase = 0;
  std::string actor;   // committee name, or external sender for External
  unsigned role = 0;   // role index within the committee (Role nodes)
  std::string label;   // ledger category (Post nodes)
  std::uint64_t bytes = 0;
  std::uint64_t elements = 0;  // Post nodes: ledger element count
  bool delivered = true;       // Post nodes: accepted onto the board
  CountMatrix counts;
  // In-edges; always predecessors by id (construction order is a
  // topological order), sorted ascending.
  std::vector<std::uint32_t> preds;
};

// Reconstructs the happens-before DAG from the board's publish stream.
// Driven by NetBulletin: begin_post() at the top of every publish (closes
// the compute window since the previous publish and attributes it to the
// posting role), end_post() once the post's fate is decided (attributes the
// codec/verify pipeline work to a Post node), finalize() after the run
// (captures the trailing residue).
class DagRecorder {
public:
  DagRecorder();

  void begin_post(const std::string& actor, unsigned role, std::uint8_t phase, bool external);
  void end_post(const std::string& label, std::uint64_t bytes, std::uint64_t elements,
                bool delivered);
  // Captures compute since the last post into the Residue node.  Idempotent
  // in the sense that repeated calls only add whatever ran in between.
  void finalize();

  const std::vector<DagNode>& nodes() const { return nodes_; }
  std::size_t edge_count() const;

  // Sigma over node counts; equals profiler_delta() once finalized.
  CountMatrix recorded_total() const;
  // Profiler counts accumulated in the current task's cell since this
  // recorder was constructed.
  CountMatrix profiler_delta() const;

  // Structural invariants: every edge points strictly backwards (ids are a
  // topological order), every Post node has exactly one Role/External
  // producer, and no undelivered post has a consumer.  Returns false and
  // fills *error on the first violation.
  bool validate(std::string* error = nullptr) const;

  // Deterministic summary: node/edge counts by kind, per-phase node counts.
  std::string report_json() const;

private:
  struct OpenPost {
    std::uint32_t producer = 0;
    std::uint8_t phase = 0;
    bool open = false;
  };

  std::uint32_t add_node(NodeKind kind, std::uint8_t phase, const std::string& actor,
                         unsigned role, std::vector<std::uint32_t> preds);
  CountMatrix take_delta();
  // Activation switch: the posts delivered during the previous activation
  // become the inputs of every node created in the new one.
  void switch_activation(const std::string& actor);

  std::vector<DagNode> nodes_;
  CountMatrix base_;   // profiler counts at construction
  CountMatrix last_;   // profiler counts at the last snapshot
  // Posts delivered during the current activation window (consumers pending).
  std::vector<std::uint32_t> pending_posts_;
  // Inputs consumed by nodes of the current activation: the previous
  // window's delivered posts.
  std::vector<std::uint32_t> board_inputs_;
  // (actor-qualified role key) -> node id, for the current window only.
  std::vector<std::pair<std::string, std::uint32_t>> live_actors_;
  std::string cur_actor_;  // committee currently publishing
  OpenPost open_;
  std::uint32_t residue_ = 0;  // Residue node id once created (0 = none yet)
  bool has_residue_ = false;
};

}  // namespace yoso::obs::dag
