#include "src/provenance/graph.h"

#include <set>

namespace nettrails {
namespace provenance {

std::vector<Vid> Graph::ChildrenOf(Vid v) const {
  std::vector<Vid> out;
  for (const GraphEdge& e : edges) {
    if (e.from == v) out.push_back(e.to);
  }
  return out;
}

size_t Graph::tuple_vertices() const {
  size_t n = 0;
  for (const auto& [id, v] : vertices) {
    if (v.kind == VertexKind::kTuple) ++n;
  }
  return n;
}

size_t Graph::exec_vertices() const {
  return vertices.size() - tuple_vertices();
}

namespace {

struct Builder {
  const std::vector<const ProvStore*>& stores;
  const VidLabeler& labeler;
  bool include_maybe;
  Graph graph;
  std::set<Vid> visiting;

  void VisitTuple(NodeId home, Vid vid, size_t depth) {
    if (graph.vertices.count(vid) || depth == 0) return;
    if (visiting.count(vid)) return;  // cycle guard
    visiting.insert(vid);

    Vertex v;
    v.id = vid;
    v.kind = VertexKind::kTuple;
    v.location = home;
    v.label = labeler(vid);

    const ProvStore* store = home < stores.size() ? stores[home] : nullptr;
    bool has_derivation = false;
    if (store != nullptr) {
      store->EdgesFor(vid, [&](const ProvEdge& e) {
        if (e.IsSelf(vid)) {
          v.is_base = true;
        } else if (!e.maybe || include_maybe) {
          has_derivation = true;
        }
      });
    }
    // Unexplained tuples (no edges, or only excluded maybe edges) render
    // as leaves.
    if (!has_derivation && !v.is_base) v.is_base = true;
    graph.vertices[vid] = v;

    if (has_derivation) {
      store->EdgesFor(vid, [&](const ProvEdge& e) {
        if (e.IsSelf(vid) || (e.maybe && !include_maybe)) return;
        graph.edges.push_back({vid, e.rid, e.maybe});
        VisitExec(e.rloc, e.rid, depth - 1);
      });
    }
    visiting.erase(vid);
  }

  void VisitExec(NodeId rloc, Vid rid, size_t depth) {
    if (graph.vertices.count(rid) || depth == 0) return;
    const std::optional<ExecEntry> exec =
        rloc < stores.size() ? stores[rloc]->ExecFor(rid) : std::nullopt;
    Vertex v;
    v.id = rid;
    v.kind = VertexKind::kRuleExec;
    v.location = rloc;
    v.label = exec ? exec->rule : "rule?";
    graph.vertices[rid] = v;
    if (!exec) return;
    for (Vid input : exec->inputs) {
      graph.edges.push_back({rid, input, false});
      // Inputs of a rule execution are homed at the executing node.
      VisitTuple(rloc, input, depth - 1);
    }
  }
};

}  // namespace

Graph BuildGraph(const std::vector<const ProvStore*>& stores, NodeId root_home,
                 Vid root, const VidLabeler& labeler, size_t max_depth,
                 bool include_maybe) {
  Builder builder{stores, labeler, include_maybe, {}, {}};
  builder.graph.root = root;
  builder.VisitTuple(root_home, root, max_depth);
  return std::move(builder.graph);
}

}  // namespace provenance
}  // namespace nettrails
