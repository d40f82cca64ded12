// Per-node read-only view over the distributed provenance relations. The
// engine maintains prov / ruleExec as ordinary NDlog views and ProvStore
// keeps no copy of them: every lookup probes the tables through the
// vertex-id indexes the first attached store has the engine register
// (Engine::IndexProvenanceViews). The distributed query engine and the
// visualizer traverse the graph through it.
#ifndef NETTRAILS_PROVENANCE_STORE_H_
#define NETTRAILS_PROVENANCE_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/tuple.h"
#include "src/provenance/rewrite.h"
#include "src/runtime/builtins.h"
#include "src/runtime/engine.h"

namespace nettrails {
namespace provenance {

/// One provenance edge, read from a prov(@Loc, VID, RID, RLoc, Maybe) row:
/// the local tuple VID is derivable via rule execution `rid` stored at node
/// `rloc`. A self-edge (rid == vid) marks a base tuple.
struct ProvEdge {
  Vid rid = 0;
  NodeId rloc = 0;
  bool maybe = false;
  int64_t count = 0;  // derivation count of the edge itself

  bool IsSelf(Vid vid) const { return rid == vid; }
};

/// The input VIDs of a rule execution, decoded on access from the VidList
/// field of its ruleExec row.
struct VidRange {
  struct Iterator {
    const Value* at;
    Vid operator*() const { return runtime::ValueToVid(*at); }
    void operator++() { ++at; }
    bool operator!=(const Iterator& o) const { return at != o.at; }
  };
  const ValueList* vids;

  size_t size() const { return vids->size(); }
  Vid operator[](size_t i) const { return runtime::ValueToVid((*vids)[i]); }
  Iterator begin() const { return {vids->data()}; }
  Iterator end() const { return {vids->data() + vids->size()}; }
};

/// One rule-execution vertex, read in place from its ruleExec(@RLoc, RID,
/// RuleName, VidList) row: rule name plus ordered input tuple VIDs. Valid
/// until the engine next changes ruleExec.
struct ExecEntry {
  std::string_view rule;  // "?" when the name field is not a string
  VidRange inputs;
  int64_t count = 0;
};

class ProvStore {
 public:
  /// Views the engine's provenance tables, registering the indexes the
  /// lookups probe (once per engine). The engine must outlive the store;
  /// the store stays valid across Engine::RestoreCheckpoint.
  explicit ProvStore(runtime::Engine* engine);

  NodeId node() const { return engine_->id(); }

  /// Calls `visit(const ProvEdge&)` for each prov row of locally stored
  /// tuple `vid`. Allocates nothing, and `visit` may itself look up
  /// vertices in this store.
  template <typename Visit>
  void EdgesFor(Vid vid, Visit&& visit) const;

  /// The rule execution `rid` stored at this node, if any.
  std::optional<ExecEntry> ExecFor(Vid rid) const;

  /// All tuple VIDs with at least one edge, ascending (for graph export).
  std::vector<Vid> AllVids() const;

  /// The engine's provenance version: grows on every change to this node's
  /// provenance slice and across restores, never resets.
  uint64_t version() const { return engine_->provenance_version(); }

  /// Canonical text serialization of this node's provenance slice: every
  /// edge and rule execution with its derivation count, sorted. Two stores
  /// hold the same graph iff their canonical forms are equal, independent
  /// of the order deltas arrived in — the batched-vs-serial equivalence
  /// suite compares engines through it (and its diff is readable on
  /// failure).
  std::string CanonicalGraph() const;

  /// prov / ruleExec rows held at this node.
  size_t edge_count() const;
  size_t exec_count() const;

 private:
  /// Rows of `view` whose vertex id hashes like `id` (nullptr if none).
  /// Hash-bucket candidates: callers compare the field. The returned bucket
  /// belongs to the table, so nested lookups do not invalidate it.
  const std::vector<runtime::Table::RowHandle>* Probe(
      const runtime::Engine::IndexedView& view, const Value& id) const;

  /// The edge / execution a prov / ruleExec row of the right arity holds.
  ProvEdge EdgeOf(const runtime::Table::Row& row) const {
    const ValueList& f = row.fields;
    return {runtime::ValueToVid(f[2]),
            f[3].is_address() ? f[3].as_address() : node(), f[4].Truthy(),
            row.count};
  }
  static ExecEntry ExecOf(const runtime::Table::Row& row);

  runtime::Engine* engine_;
  /// One-element probe key, reused by every lookup. Safe because a node's
  /// store is read by one thread at a time (the simulator runs all of a
  /// node's handlers on one worker per wave).
  mutable ValueList key_;
};

template <typename Visit>
void ProvStore::EdgesFor(Vid vid, Visit&& visit) const {
  const runtime::Engine::IndexedView& prov = engine_->prov_view();
  const Value id = runtime::VidToValue(vid);
  const std::vector<runtime::Table::RowHandle>* rows = Probe(prov, id);
  if (rows == nullptr) return;
  for (runtime::Table::RowHandle h : *rows) {
    const runtime::Table::Row& row = prov.table->Deref(h);
    if (row.fields.size() != kProvArity || row.fields[kVertexIdPos] != id) {
      continue;
    }
    visit(EdgeOf(row));
  }
}

}  // namespace provenance
}  // namespace nettrails

#endif  // NETTRAILS_PROVENANCE_STORE_H_
