#include "obs/dag/dag.hpp"

#include <algorithm>

#include "common/json.hpp"

namespace yoso::obs::dag {

CountMatrix CountMatrix::capture(const InstrumentCell& cell) {
  CountMatrix m;
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    for (unsigned o = 0; o < kOpCount; ++o) {
      m.v[p][o] = cell.op_count(static_cast<PhaseCtx>(p), static_cast<Op>(o));
    }
  }
  return m;
}

CountMatrix CountMatrix::delta_since(const CountMatrix& earlier) const {
  CountMatrix d;
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    for (unsigned o = 0; o < kOpCount; ++o) {
      d.v[p][o] = v[p][o] - earlier.v[p][o];
    }
  }
  return d;
}

void CountMatrix::add(const CountMatrix& other) {
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    for (unsigned o = 0; o < kOpCount; ++o) v[p][o] += other.v[p][o];
  }
}

bool CountMatrix::operator==(const CountMatrix& other) const {
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    for (unsigned o = 0; o < kOpCount; ++o) {
      if (v[p][o] != other.v[p][o]) return false;
    }
  }
  return true;
}

bool CountMatrix::is_zero() const {
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    for (unsigned o = 0; o < kOpCount; ++o) {
      if (v[p][o] != 0) return false;
    }
  }
  return true;
}

std::uint64_t CountMatrix::total() const {
  std::uint64_t t = 0;
  for (unsigned p = 0; p < kPhaseCtxCount; ++p) {
    for (unsigned o = 0; o < kOpCount; ++o) t += v[p][o];
  }
  return t;
}

const char* node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::Role: return "role";
    case NodeKind::Post: return "post";
    case NodeKind::External: return "external";
    case NodeKind::Residue: return "residue";
  }
  return "?";
}

DagRecorder::DagRecorder()
    : base_(CountMatrix::capture(profiler().cell())), last_(base_) {}

CountMatrix DagRecorder::take_delta() {
  const CountMatrix cur = CountMatrix::capture(profiler().cell());
  const CountMatrix d = cur.delta_since(last_);
  last_ = cur;
  return d;
}

std::uint32_t DagRecorder::add_node(NodeKind kind, std::uint8_t phase, const std::string& actor,
                                    unsigned role, std::vector<std::uint32_t> preds) {
  DagNode node;
  node.id = static_cast<std::uint32_t>(nodes_.size());
  node.kind = kind;
  node.phase = phase;
  node.actor = actor;
  node.role = role;
  node.preds = std::move(preds);
  std::sort(node.preds.begin(), node.preds.end());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

void DagRecorder::switch_activation(const std::string& actor) {
  board_inputs_ = std::move(pending_posts_);
  pending_posts_.clear();
  live_actors_.clear();
  cur_actor_ = actor;
}

void DagRecorder::begin_post(const std::string& actor, unsigned role, std::uint8_t phase,
                             bool external) {
  const CountMatrix delta = take_delta();
  if (!external && actor != cur_actor_) switch_activation(actor);

  const std::string key =
      (external ? "x:" + actor : "c:" + actor + "#" + std::to_string(role));
  std::uint32_t node_id = 0;
  bool found = false;
  for (const auto& [k, id] : live_actors_) {
    if (k == key) {
      node_id = id;
      found = true;
      break;
    }
  }
  if (!found) {
    std::vector<std::uint32_t> preds = board_inputs_;
    if (external) {
      // An external sender reads the board as published so far, including
      // posts of the activation in flight (a client consumes the setup
      // committee's encryption key before contributing).
      preds.insert(preds.end(), pending_posts_.begin(), pending_posts_.end());
    }
    node_id = add_node(external ? NodeKind::External : NodeKind::Role, phase, actor, role,
                       std::move(preds));
    live_actors_.emplace_back(key, node_id);
  }
  nodes_[node_id].counts.add(delta);
  nodes_[node_id].phase = phase;  // a role activation spans one ledger phase
  open_.producer = node_id;
  open_.phase = phase;
  open_.open = true;
}

void DagRecorder::end_post(const std::string& label, std::uint64_t bytes, std::uint64_t elements,
                           bool delivered) {
  const CountMatrix delta = take_delta();
  std::vector<std::uint32_t> preds;
  std::uint8_t phase = 0;
  std::string actor;
  if (open_.open) {
    preds.push_back(open_.producer);
    phase = open_.phase;
    actor = nodes_[open_.producer].actor;
    open_.open = false;
  }
  const std::uint32_t id = add_node(NodeKind::Post, phase, actor, 0, std::move(preds));
  DagNode& node = nodes_[id];
  node.label = label;
  node.bytes = bytes;
  node.elements = elements;
  node.delivered = delivered;
  node.counts = delta;
  // A post the board never accepted has no consumers: dropped, corrupt,
  // truncated and late posts must stay leaves (validate() enforces it).
  if (delivered) pending_posts_.push_back(id);
}

void DagRecorder::finalize() {
  const CountMatrix delta = take_delta();
  if (delta.is_zero() && has_residue_) return;
  if (!has_residue_) {
    // Trailing compute — output reconstruction, final verification sweeps —
    // consumes the last activation's delivered posts.
    std::uint8_t phase = 0;
    if (!nodes_.empty()) phase = nodes_.back().phase;
    residue_ = add_node(NodeKind::Residue, phase, "observers", 0, pending_posts_);
    has_residue_ = true;
  }
  nodes_[residue_].counts.add(delta);
}

std::size_t DagRecorder::edge_count() const {
  std::size_t edges = 0;
  for (const DagNode& node : nodes_) edges += node.preds.size();
  return edges;
}

CountMatrix DagRecorder::recorded_total() const {
  CountMatrix total;
  for (const DagNode& node : nodes_) total.add(node.counts);
  return total;
}

CountMatrix DagRecorder::profiler_delta() const {
  return CountMatrix::capture(profiler().cell()).delta_since(base_);
}

bool DagRecorder::validate(std::string* error) const {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  for (const DagNode& node : nodes_) {
    std::uint32_t prev = 0;
    bool first = true;
    for (std::uint32_t p : node.preds) {
      if (p >= node.id) {
        return fail("node " + std::to_string(node.id) + ": non-backward edge to " +
                    std::to_string(p));
      }
      if (!first && p <= prev) {
        return fail("node " + std::to_string(node.id) + ": preds not strictly ascending");
      }
      prev = p;
      first = false;
      const DagNode& src = nodes_[p];
      if (node.kind == NodeKind::Post) {
        if (src.kind != NodeKind::Role && src.kind != NodeKind::External) {
          return fail("post node " + std::to_string(node.id) + ": producer " +
                      std::to_string(p) + " is not a role/external");
        }
      } else {
        if (src.kind != NodeKind::Post) {
          return fail("node " + std::to_string(node.id) + ": consume edge from non-post " +
                      std::to_string(p));
        }
        if (!src.delivered) {
          return fail("node " + std::to_string(node.id) + ": consumes undelivered post " +
                      std::to_string(p) + " (" + src.label + ")");
        }
      }
    }
    if (node.kind == NodeKind::Post && node.preds.size() > 1) {
      return fail("post node " + std::to_string(node.id) + ": multiple producers");
    }
  }
  return true;
}

std::string DagRecorder::report_json() const {
  std::size_t by_kind[4] = {};
  std::size_t phase_nodes[3] = {};
  std::size_t delivered = 0;
  std::size_t undelivered = 0;
  for (const DagNode& node : nodes_) {
    ++by_kind[static_cast<unsigned>(node.kind)];
    if (node.phase < 3) ++phase_nodes[node.phase];
    if (node.kind == NodeKind::Post) {
      if (node.delivered) {
        ++delivered;
      } else {
        ++undelivered;
      }
    }
  }
  json::Writer w;
  w.begin_object();
  w.field("nodes", static_cast<std::uint64_t>(nodes_.size()));
  w.field("edges", static_cast<std::uint64_t>(edge_count()));
  w.key("kinds").begin_object();
  for (unsigned k = 0; k < 4; ++k) {
    w.field(node_kind_name(static_cast<NodeKind>(k)), static_cast<std::uint64_t>(by_kind[k]));
  }
  w.end_object();
  w.field("posts_delivered", static_cast<std::uint64_t>(delivered));
  w.field("posts_undelivered", static_cast<std::uint64_t>(undelivered));
  w.key("phases").begin_object();
  static constexpr const char* kPhaseKeys[3] = {"setup", "offline", "online"};
  for (unsigned p = 0; p < 3; ++p) {
    w.field(kPhaseKeys[p], static_cast<std::uint64_t>(phase_nodes[p]));
  }
  w.end_object();
  w.field("op_total", recorded_total().total());
  w.end_object();
  return w.take();
}

}  // namespace yoso::obs::dag
