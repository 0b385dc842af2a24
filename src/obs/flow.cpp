#include "obs/flow.hpp"

#include "common/json.hpp"

namespace yoso::obs {

FlowMatrix::FlowMatrix(const std::vector<dag::DagNode>& nodes) {
  static const std::string kObservers = "observers";
  // Ids are a topological order, so the first Role/Residue node to list a
  // post as an input is its consumer.
  std::vector<const std::string*> consumer(nodes.size(), nullptr);
  for (const dag::DagNode& node : nodes) {
    if (node.kind != dag::NodeKind::Role && node.kind != dag::NodeKind::Residue) continue;
    for (const std::uint32_t p : node.preds) {
      if (consumer[p] == nullptr) consumer[p] = &node.actor;
    }
  }
  for (const dag::DagNode& post : nodes) {
    if (post.kind != dag::NodeKind::Post || !post.delivered) continue;
    const std::string& dst = consumer[post.id] != nullptr ? *consumer[post.id] : kObservers;
    FlowCell& cell = edges_[FlowKey{post.actor, dst, post.label, post.phase}];
    cell.messages += 1;
    cell.bytes += post.bytes;
    cell.elements += post.elements;
  }
}

void FlowMatrix::write_json(json::Writer& w) const {
  w.begin_array();
  for (const auto& [key, cell] : edges_) {
    w.begin_object();
    w.field("src", key.src);
    w.field("dst", key.dst);
    w.field("category", key.category);
    w.field("phase", static_cast<std::uint64_t>(key.phase));
    w.field("messages", cell.messages);
    w.field("bytes", cell.bytes);
    w.field("elements", cell.elements);
    w.end_object();
  }
  w.end_array();
}

}  // namespace yoso::obs
