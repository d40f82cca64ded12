// Per-node declarative networking engine (the RapidNet runtime equivalent):
// executes a compiled NDlog program with semi-naive incremental evaluation
// over insert/delete deltas, ships non-local derivations through the
// network simulator, maintains aggregates incrementally, and — when the
// program was compiled with provenance — keeps the node's slice of the
// distributed provenance tables plus a VID -> tuple index for the query
// engine and the visualizer.
#ifndef NETTRAILS_RUNTIME_ENGINE_H_
#define NETTRAILS_RUNTIME_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/common/hash.h"

#include "src/common/status.h"
#include "src/common/tuple.h"
#include "src/net/simulator.h"
#include "src/provenance/interner.h"
#include "src/runtime/aggregates.h"
#include "src/runtime/expr_eval.h"
#include "src/runtime/plan.h"
#include "src/runtime/table.h"

namespace nettrails {
namespace runtime {

struct EngineOptions {
  /// Safety valve: abort (and flag overflowed()) if a single external
  /// trigger cascades into more than this many actions.
  uint64_t max_actions_per_trigger = 2'000'000;
  /// Probe planner-selected secondary hash indexes in the join loop instead
  /// of scanning tables. Off is only useful for measuring the speedup
  /// (bench_join) — results are identical either way.
  bool use_secondary_indexes = true;
  /// Maximum tuples drained from the local queue into one DeltaBatch (a run
  /// of consecutive same-predicate deltas processed together: one trigger
  /// dispatch, one Table::ApplyBatch, one aggregate recomputation per
  /// touched group, and per-destination batch message frames). 1 makes
  /// every delta its own batch — the serial anchor of the batch
  /// equivalence suite (tests/runtime/batch_equivalence_test.cc); 0 is
  /// treated as 1. Every setting converges to identical table fixpoints,
  /// aggregate values, and provenance graphs. Soft-state tables always
  /// drain in batches of one. Only self-join triggers pay a per-batch
  /// overlay cost that grows with the batch; every other trigger evaluates
  /// each action directly.
  uint32_t batch_size = 64;
};

struct EngineStats {
  /// Tuples entering the local delta queue. Always counted per tuple —
  /// batch frames arriving from the network are unpacked before counting —
  /// so the value is batch_size-independent.
  uint64_t deltas_enqueued = 0;
  /// DeltaBatches drained (at batch_size 1, one per drained delta).
  uint64_t batches_processed = 0;
  uint64_t batched_tuples = 0;     // tuples those batches carried
  /// Trigger-index dispatches: one per DeltaBatch (the dispatch-
  /// amortization metric bench_churn reports per converged link flap).
  uint64_t trigger_dispatches = 0;
  uint64_t actions_processed = 0;
  uint64_t rule_firings = 0;
  uint64_t agg_recomputes = 0;    // aggregate-group output recomputations
  uint64_t join_probes = 0;       // candidate rows examined by the join loop
  uint64_t index_probes = 0;      // joins answered by a secondary index
  uint64_t broadcast_probes = 0;  // planned whole-table joins (only the
                                  // location was bound: every row matches)
  uint64_t index_scan_fallbacks = 0;  // unplanned scans (no probe plan)
  uint64_t messages_sent = 0;     // network sends (a batch frame counts once)
  uint64_t tuples_shipped = 0;    // tuple deltas shipped to remote nodes
  uint64_t batch_messages_sent = 0;  // frames carrying more than one tuple
  uint64_t send_failures = 0;     // per shipped tuple, batched or not
  uint64_t eval_errors = 0;
  uint64_t expirations = 0;      // soft-state lifetime retractions
  uint64_t evictions = 0;        // max-size FIFO evictions
  uint64_t periodic_firings = 0; // timer events injected
  /// Structural list-hash digests answered from the cache inside the shared
  /// list rep while this engine was draining (Value::Hash on a kList whose
  /// hash was already computed). The cached-hash win: re-digest count per
  /// distinct list drops to <= 1.
  uint64_t hash_cache_hits = 0;
  /// VidInterner lookups that found an already-interned VID (re-derivations
  /// re-registering known tuples).
  uint64_t vid_intern_hits = 0;
  /// Heap allocations (global operator new calls, process-wide) that landed
  /// while this engine was draining its delta queue. Reads 0 unless the
  /// build defines NETTRAILS_COUNT_ALLOCS (see src/common/alloc_hook.h);
  /// attribution is exact for the same reason hash_cache_hits is — drains
  /// never nest across engines. The zero-allocation shipping path drives
  /// this to (near) zero on converged churn; bench_churn reports it as
  /// allocs_per_flap and scripts/check_alloc_budget.sh pins it.
  uint64_t drain_allocs = 0;
};

/// The "tuple" message channel used for shipped deltas.
inline constexpr char kTupleChannel[] = "tuple";

/// Point-in-time snapshot of one node's recoverable engine state, produced
/// by Engine::TakeCheckpoint and consumed by Engine::RestoreCheckpoint.
/// In-memory format (the durable serialization would be a straightforward
/// walk of these fields); every container is in a deterministic order —
/// OrderedView for table rows, key order for soft state, (rule, group) for
/// aggregates, first-intern order for VIDs — so two checkpoints of equal
/// states compare equal.
struct EngineCheckpoint {
  /// Virtual time the checkpoint was taken at (soft-state deadlines below
  /// are absolute times).
  net::Time taken_at = 0;

  struct TableRow {
    ValueList fields;
    int64_t count = 0;
  };
  std::map<std::string, std::vector<TableRow>> tables;

  /// Soft-state expiry metadata: one entry per live (table, key) with its
  /// generation and absolute expiry deadline (0 when the table has no
  /// lifetime — max-size-only soft state).
  struct SoftEntry {
    std::string table;
    ValueList key;
    uint64_t gen = 0;
    net::Time deadline = 0;
  };
  std::vector<SoftEntry> soft;
  std::map<std::string, std::vector<std::pair<ValueList, uint64_t>>> fifo;
  std::map<std::string, int64_t> pending_evictions;

  struct AggContribution {
    Value value;
    Value vids;
    int64_t count = 0;
  };
  struct AggEntry {
    size_t rule_idx = 0;
    ValueList group;
    std::vector<AggContribution> contribs;
    bool has_output = false;
    ValueList last_output;
    std::vector<Tuple> last_prov;
  };
  std::vector<AggEntry> aggregates;

  /// Interned VIDs in dense-handle order, and the VID -> tuple index.
  std::vector<Vid> interned_vids;
  std::vector<std::pair<Vid, Tuple>> vid_index;
};

class Engine {
 public:
  /// Observes every visible table change on this node, after application.
  using ActionObserver =
      std::function<void(const std::string& table, const TableAction&)>;

  Engine(net::Simulator* sim, NodeId id, CompiledProgramPtr prog,
         EngineOptions opts = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  NodeId id() const { return id_; }
  const CompiledProgram& program() const { return *prog_; }

  /// Inserts / deletes an external (base) tuple. The tuple's location
  /// attribute must be this node.
  Status Insert(const Tuple& tuple);
  Status Delete(const Tuple& tuple);
  /// Injects a transient event tuple (located here).
  Status InsertEvent(const Tuple& tuple);

  /// Materialized table, or nullptr for events / unknown names.
  const Table* GetTable(const std::string& name) const;
  std::vector<Tuple> TableContents(const std::string& name) const;
  bool HasTuple(const Tuple& tuple) const;
  int64_t CountOf(const Tuple& tuple) const;

  /// Total visible tuples across all materialized tables (storage metric;
  /// `provenance_only` restricts to prov/ruleExec/eh_* tables).
  size_t TotalTuples(bool provenance_only = false) const;

  /// VID -> tuple for local state (and locally observed events). Entries
  /// for deleted state are retained while provenance references them.
  const Tuple* FindTupleByVid(Vid vid) const;

  /// This node's VID interner: every VID the engine has registered, in
  /// first-sight order (checkpointed with the VID index). Stats land in
  /// EngineStats::vid_intern_hits.
  provenance::VidInterner* vid_interner() { return &vid_interner_; }
  const provenance::VidInterner& vid_interner() const { return vid_interner_; }

  void AddActionObserver(ActionObserver obs) {
    observers_.push_back(std::move(obs));
  }

  /// A provenance view as provenance::ProvStore probes it: the prov or
  /// ruleExec table and the id of its vertex-id index. Empty (nullptr
  /// table) until IndexProvenanceViews runs, and always without provenance.
  struct IndexedView {
    const Table* table = nullptr;
    int index = -1;
  };
  const IndexedView& prov_view() const { return prov_view_; }
  const IndexedView& rule_exec_view() const { return rule_exec_view_; }

  /// Registers the indexes a provenance reader probes — prov and ruleExec
  /// on their vertex id — and re-registers them on every table rebuild.
  /// Idempotent; engines nobody reads carry no such index.
  void IndexProvenanceViews();

  /// Visible actions applied to prov and ruleExec, plus one per
  /// RestoreCheckpoint. Never reset: an unchanged value means an unchanged
  /// provenance slice.
  uint64_t provenance_version() const { return provenance_version_; }

  const EngineStats& stats() const { return stats_; }
  /// True if the max_actions safety valve tripped (runaway program).
  bool overflowed() const { return overflowed_; }
  /// Last evaluation error, for diagnostics ("" if none).
  const std::string& last_error() const { return last_error_; }

  // --- Crash / recovery ---------------------------------------------------
  // See docs/ARCHITECTURE.md "Fault model and recovery" for the full
  // protocol; protocols::CrashNode / RestartNode orchestrate these with the
  // simulator's node lifecycle.

  /// Snapshot of all recoverable state: table rows (with derivation
  /// counts), soft-state expiry generations + deadlines, FIFO eviction
  /// order, aggregate groups (live contributions, last output, last
  /// emitted provenance), the VID interner, and the VID -> tuple index.
  EngineCheckpoint TakeCheckpoint() const;

  /// Marks the engine crashed: bumps the restart epoch so every
  /// outstanding timer closure (soft-state expiries, periodics) becomes a
  /// no-op, and clears the delta queue. The simulator-side counterpart is
  /// Simulator::SetNodeUp(id, false), which gates message delivery.
  void HaltForCrash();

  /// Restores a checkpoint in place: rebuilds tables (indexes and the
  /// join loop's table resolution included), aggregate state, soft-state
  /// bookkeeping (expiry timers are re-armed at their absolute deadlines —
  /// deadlines that passed while the node was down fire immediately), the
  /// VID interner, and the VID index, and advances the provenance version
  /// (a ProvStore needs no re-attach). Action observers are dropped: rows
  /// load without notifying them. Periodic streams restart from iteration 1.
  void RestoreCheckpoint(const EngineCheckpoint& ckpt);

  /// Recovery reconciliation, run after RestoreCheckpoint (and after any
  /// observer is re-attached): retracts the remote-grounded
  /// share of every restored tuple — derivations whose rule execution
  /// lives on another node (prov rows with RLoc != this node). A restarted
  /// node missed every retraction addressed to it while it was down, so
  /// remotely-derived rows in its checkpoint may be stale; dropping them
  /// (with full local cascade) and letting neighbors re-announce is what
  /// makes recovery converge to the fault-free fixpoint. The cascade does
  /// NOT ship retractions of this node's own exports: the survivors already
  /// scrubbed those at crash time (DropDerivationsFrom), and re-shipping
  /// would land unmatched -1 deltas that eat same-fields sibling
  /// derivations at the receiver.
  void DropRemoteDerivations();

  /// Survivor-side half of the crash protocol: retracts every row whose
  /// derivation was grounded at `origin` (the crashed node), with full
  /// cascade and normal shipping — retractions bound for live nodes are
  /// genuine, and those bound for the crashed node are swallowed by the
  /// simulator. Without this, a survivor keeps routing through derivations
  /// whose deriver no longer exists, and the restarted node's
  /// re-announcements would double-count against the stale copies.
  void DropDerivationsFrom(NodeId origin);

 private:
  /// One queued tuple delta. The predicate travels as its dense id (names
  /// are resolved once, where tuples enter the engine), so forming a batch
  /// compares integers and indexes preds_.
  struct Delta {
    PredId pred = 0;
    ValueList fields;
    int64_t mult = 1;
    bool is_delete = false;
    bool is_eviction = false;  // decrement the pending-eviction counter
  };

  /// What the drain path needs to know about one predicate, indexed by
  /// PredId: resolved in InitTables for the program's predicates, and
  /// appended by PredIdOf for names the program never mentions (those
  /// drain as triggerless event batches).
  struct PredSlot {
    const std::string* name = nullptr;
    Table* table = nullptr;  // nullptr: an event
    const std::vector<TriggerEntry>* triggers = nullptr;  // nullptr: none
    bool soft_state = false;  // finite lifetime or max size
    /// Register VIDs of applied inserts: false only for the provenance
    /// rewrite's own views (eh_* / prov / ruleExec), which are never
    /// provenance vertices.
    bool track_vids = true;
    /// prov or ruleExec: applied actions advance provenance_version_.
    bool provenance_view = false;
  };

  /// Net per-tuple count adjustments carried by a suffix of a batch's
  /// actions, with first-touch enumeration order for determinism. During
  /// evaluation of action i the overlay holds the summed effects of
  /// actions [i..n): subtracting it from the post-batch store reconstructs
  /// exactly the store before action i applied. Entries are kept at
  /// net 0 so every tuple the batch touches stays enumerable (the
  /// synthetic-candidate sweep in JoinRec relies on it).
  ///
  /// JoinRec reads the overlay only for body atoms on the delta's own
  /// predicate, so ProcessBatch fills it only for self-join triggers
  /// (TriggerEntry::self_join); every other trigger, and every event batch,
  /// evaluates under the permanently empty no_overlay_.
  ///
  /// Storage is a slab (first-touch order — the old `order` vector) plus a
  /// flat content-hash index with explicit collision chains; entries hold
  /// pointers into the batch's TableActions (stable for the whole batch)
  /// instead of ValueList copies, so refilling the overlay each rule pass
  /// allocates nothing once the slab has grown to batch size.
  struct BatchOverlay {
    struct Entry {
      const ValueList* fields;
      int64_t net;
      int32_t next;  // same-hash chain, slab index + 1; 0 terminates
    };
    std::vector<Entry> slab;       // first-touch order
    FlatHashMap64<int32_t> heads;  // content hash -> slab index + 1
    /// Subset of `slab` absent from the post-batch store: the synthetic
    /// join candidates. The store is frozen during batch evaluation, so
    /// ProcessBatch computes this once per rule pass.
    std::vector<const ValueList*> absent;

    void Add(const ValueList& fields, int64_t delta) {
      int32_t& head = heads[ValueListHash{}(fields)];
      for (int32_t i = head; i != 0; i = slab[i - 1].next) {
        Entry& e = slab[i - 1];
        if (ValueListEq{}(*e.fields, fields)) {
          e.net += delta;
          return;
        }
      }
      slab.push_back({&fields, delta, head});
      head = static_cast<int32_t>(slab.size());
    }
    int64_t Net(const ValueList& fields) const {
      const int32_t* head = heads.Find(ValueListHash{}(fields));
      for (int32_t i = head == nullptr ? 0 : *head; i != 0;
           i = slab[i - 1].next) {
        const Entry& e = slab[i - 1];
        if (ValueListEq{}(*e.fields, fields)) return e.net;
      }
      return 0;
    }
    void Clear() {
      slab.clear();
      heads.Clear();
      absent.clear();
    }
  };

  void OnTupleMessage(net::Message& msg);
  void EnqueueLocal(Delta delta);
  /// Dense id of `name`, registering a name the program never mentions as
  /// a triggerless event. Called only where tuples enter the engine
  /// (Insert/Delete/InsertEvent, tuple messages, timers and scrubs).
  PredId PredIdOf(const std::string& name);
  /// The slot for `name`, which must outlive the engine's slots (a program
  /// predicate or a key of unknown_preds_).
  PredSlot SlotFor(const std::string& name);

  /// ValueList recycling pool for the delta pipeline. Field buffers flow
  /// emit -> queue -> batch -> harvest-back-to-pool, so a converged flap's
  /// tuple churn reuses the same allocations instead of paying one
  /// malloc/free pair per derived tuple.
  ValueList AcquireList() {
    if (list_pool_.empty()) return ValueList();
    ValueList out = std::move(list_pool_.back());
    list_pool_.pop_back();
    out.clear();
    return out;
  }
  void ReleaseList(ValueList&& v) { list_pool_.push_back(std::move(v)); }
  /// Copy of `src` backed by a pooled buffer (the enqueue-a-copy idiom).
  ValueList CopyToPooled(const ValueList& src) {
    ValueList out = AcquireList();
    out = src;
    return out;
  }
  void DrainQueue();
  /// Shared core of DropRemoteDerivations / DropDerivationsFrom: retracts
  /// prov rows (and their targets) grounded at any remote node
  /// (`any_remote`) or at `origin` specifically, cascading locally;
  /// outbound deltas ship only when `ship_retractions`.
  void ScrubGroundedRows(bool any_remote, NodeId origin,
                         bool ship_retractions);
  /// The delta pipeline: drains a run of consecutive same-predicate deltas
  /// from the queue front (at most batch_size; one for soft-state tables)
  /// and processes them as one DeltaBatch (one-pass ApplyBatch, rule-major
  /// evaluation — under suffix overlays for self-join triggers — one
  /// aggregate recomputation per touched group, per-destination batch
  /// shipping).
  void ProcessBatch();
  void ProcessEventBatch(const PredSlot& slot, std::vector<Delta>* deltas);
  /// Evaluates every trigger on `table` over the batch's applied `actions`
  /// (the store already holds their effect).
  void EvalTriggers(const std::vector<TriggerEntry>& triggers,
                    const Table& table, const ActionBuffer& actions);
  /// Joins the rule body around the delta atom; `action` is the visible
  /// change that seeded the evaluation. `suffix` is the batch overlay for
  /// this action: never null, and empty unless the trigger is a self-join.
  void EvalRuleWithDelta(size_t rule_idx, size_t delta_term,
                         const TableAction& action,
                         const BatchOverlay* suffix);
  /// `plans` is the per-body-term probe plan for this (rule, delta_term)
  /// choice; its indexes are probed only when use_secondary_indexes.
  /// `suffix` is the batch overlay, read only for atoms on the delta's own
  /// predicate (same_pred_as_delta) — so empty unless the trigger is a
  /// self-join.
  void JoinRec(const CompiledRule& cr, size_t rule_idx, size_t term_idx,
               size_t delta_term, const std::vector<AtomProbePlan>* plans,
               const TableAction& action, const BatchOverlay* suffix,
               Frame* frame, int64_t mult);
  /// Matches `fields` against the lowered atom pattern, binding previously
  /// unbound frame slots. On success the newly bound slots are appended to
  /// `added` (the caller's undo log: Unset them to restore the frame — an
  /// O(1) bit clear per slot); on failure the frame is restored before
  /// returning.
  bool MatchAtom(const CompiledAtom& atom, const ValueList& fields,
                 Frame* frame, std::vector<int>* added) const;
  void EmitHead(const CompiledRule& cr, size_t rule_idx, const Frame& frame,
                int64_t mult, bool is_delete);
  /// Buffers one tuple delta for a remote node into the per-destination
  /// outbox; FlushOutbox sends it at the end of the batch.
  void ShipRemote(NodeId dst, Tuple tuple, int64_t mult, bool is_delete);
  /// Sends each destination's buffered deltas as one batch frame.
  void FlushOutbox();
  void HandleAggContribution(const CompiledRule& cr, size_t rule_idx,
                             const Frame& frame, int64_t mult,
                             bool is_delete);
  struct AggGroupState;
  void RecomputeAggGroup(const CompiledRule& cr, const ValueList& group_key,
                         AggGroupState* state);
  /// Recomputes (once each) the aggregate groups touched by the current
  /// batch, in first-touch order.
  void FlushDirtyAggregates();
  /// Interns the tuple's VID and indexes the tuple on first sight. Takes
  /// (name, fields) so repeat registrations (every re-derivation) skip the
  /// Tuple construction entirely — the VID digest itself reuses cached list
  /// hashes.
  void RegisterVid(const std::string& name, const ValueList& fields);
  void NoteEvalError(const Status& status);
  /// Soft-state bookkeeping after a visible insert into `pred`'s table:
  /// refresh the expiry timer and enforce FIFO max-size eviction.
  void HandleSoftState(PredId pred, const Table& table,
                       const TableAction& action);
  /// Arms one epoch-guarded expiry timer at the absolute `deadline`.
  void ScheduleExpiry(PredId pred, const ValueList& key, uint64_t gen,
                      net::Time deadline);
  /// Schedules the program's periodic(@X,E,T,C) timer streams.
  void SchedulePeriodics();
  void FirePeriodic(PeriodicStream stream, int64_t iteration);
  /// (Re)builds tables_ from the program — storage, planner-selected
  /// indexes, the join loop's per-term table resolution, and the
  /// per-predicate slots. Shared by the constructor and RestoreCheckpoint
  /// (which must rebuild term_tables_ and preds_ too: both hold raw
  /// pointers into tables_).
  void InitTables();

  net::Simulator* sim_;
  NodeId id_;
  CompiledProgramPtr prog_;
  EngineOptions opts_;
  /// Interned "tuple" channel id, resolved once at construction so shipping
  /// never touches the channel string.
  net::ChannelId tuple_channel_ = 0;

  std::map<std::string, Table> tables_;
  /// Per (rule, body-term) table resolution: term_tables_[rule][term] is
  /// the materialized table backing that body atom (nullptr for events and
  /// non-atom terms), resolved once at construction so the join loop never
  /// does a string-keyed map lookup. Pointers into tables_ are stable
  /// (node-based map, populated before this).
  std::vector<std::vector<const Table*>> term_tables_;
  /// PredId -> slot: the program's predicates first, then names first seen
  /// at an entry point (keys of unknown_preds_, whose node-based storage
  /// keeps the slots' name pointers stable).
  std::vector<PredSlot> preds_;
  std::unordered_map<std::string, PredId> unknown_preds_;
  /// Ids of the provenance tables aggregate recomputation emits into
  /// (meaningful only when the program was compiled with provenance).
  PredId rule_exec_pred_ = 0;
  PredId prov_pred_ = 0;
  /// Scratch evaluation frame, reset per EvalRuleWithDelta. Safe as a
  /// member because rule evaluation never nests: derived heads are
  /// enqueued, not evaluated inline, and drains do not re-enter.
  Frame frame_;
  std::deque<Delta> queue_;
  bool draining_ = false;
  /// True while a scrub cascade runs with shipping suppressed (see
  /// DropRemoteDerivations); checked at the top of ShipRemote.
  bool suppress_shipping_ = false;
  uint64_t actions_this_trigger_ = 0;
  bool overflowed_ = false;

  std::unordered_map<Vid, Tuple> vid_index_;
  provenance::VidInterner vid_interner_;
  bool provenance_indexed_ = false;  // see IndexProvenanceViews
  IndexedView prov_view_;
  IndexedView rule_exec_view_;
  uint64_t provenance_version_ = 0;

  /// One provenance row an aggregate group emitted (a prov or ruleExec
  /// tuple), kept by id so retracting it needs no name lookup.
  struct AggProvRow {
    PredId pred = 0;
    ValueList fields;
    bool operator==(const AggProvRow& o) const {
      return pred == o.pred && fields == o.fields;
    }
  };
  struct AggGroupState {
    AggGroup group;
    bool dirty = false;  // already on dirty_aggs_ for the current batch
    bool has_output = false;
    ValueList last_output;
    std::vector<AggProvRow> last_prov;  // emitted prov + ruleExec rows
  };
  /// Hash/equality over (rule index, group key). Group-key hashing reuses
  /// the digests cached in shared list reps. Both agg containers are pure
  /// lookup structures — never iterated — so hash layout cannot leak into
  /// evaluation order (dirty_aggs_ keeps the deterministic first-touch
  /// order).
  struct AggKeyHash {
    size_t operator()(const std::pair<size_t, ValueList>& k) const {
      Hasher h;
      h.AddU64(k.first);
      AddValueRange(&h, k.second.data(), k.second.data() + k.second.size());
      return static_cast<size_t>(h.Digest());
    }
  };
  struct AggKeyEq {
    bool operator()(const std::pair<size_t, ValueList>& a,
                    const std::pair<size_t, ValueList>& b) const {
      return a.first == b.first && ValueListEq{}(a.second, b.second);
    }
  };
  // (rule index, group key) -> state
  std::unordered_map<std::pair<size_t, ValueList>, AggGroupState, AggKeyHash,
                     AggKeyEq>
      agg_state_;

  // Batch-scoped state, flushed at the end of every DeltaBatch (aggregate
  // recomputation, then the outbox).
  /// Touched aggregate groups in first-touch order. Group key and state
  /// live in agg_state_ nodes (stable — the map never erases), so the dirty
  /// list carries pointers, not ValueList copies.
  struct DirtyAgg {
    size_t rule_idx;
    const ValueList* group;
    AggGroupState* state;
  };
  std::vector<DirtyAgg> dirty_aggs_;
  std::vector<NodeId> outbox_order_;  // destinations, first-use order
  /// dst -> simulator frame ref + 1 (0 = none). Batch entries are built in
  /// place in the pooled frame's Message::batch, so per-destination
  /// buffering allocates nothing once frames have warmed up.
  FlatHashMap64<uint32_t> outbox_;

  // Drain-scoped scratch buffers (reused across batches so a converged
  // drain allocates nothing): the current batch's deltas / table requests /
  // applied actions, the shared frame-undo stack for MatchAtom (callers
  // restore to their saved mark — safe across JoinRec recursion), the
  // secondary-index probe key, the self-join triggers' suffix overlay (and
  // the empty one every other trigger gets), and the aggregate lookup key
  // (find-before-emplace keeps the hit path free of pair<rule, group>
  // copies).
  std::vector<Delta> batch_deltas_;
  std::vector<DeltaRequest> batch_reqs_;
  ActionBuffer batch_actions_;
  std::vector<int> undo_stack_;
  ValueList probe_key_;
  BatchOverlay suffix_overlay_;
  const BatchOverlay no_overlay_{};
  std::pair<size_t, ValueList> agg_key_scratch_;
  ValueList agg_vid_scratch_;
  /// Recompute scratch: winners and the desired-provenance build buffer
  /// (swapped against each state's last_prov, so row storage cycles
  /// instead of being reallocated per recomputation).
  std::vector<AggGroup::ContribKey> winners_scratch_;
  std::vector<AggProvRow> agg_prov_scratch_;
  std::vector<ValueList> list_pool_;

  // Soft state: per-key insertion generation (a re-insertion refreshes the
  // expiry timer and invalidates stale timers), the absolute expiry
  // deadline (recorded so checkpoints can re-arm timers), and FIFO
  // insertion order. Keyed by PredId: ids follow name order, so iteration
  // (and hence checkpoint and timer re-arm order) is name order.
  struct TableKeyLess {
    bool operator()(const std::pair<PredId, ValueList>& a,
                    const std::pair<PredId, ValueList>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return ValueListLess{}(a.second, b.second);
    }
  };
  struct SoftMeta {
    uint64_t gen = 0;
    net::Time deadline = 0;  // 0 when the table has no lifetime
  };
  std::map<std::pair<PredId, ValueList>, SoftMeta, TableKeyLess> soft_gen_;
  std::map<PredId, std::deque<std::pair<ValueList, uint64_t>>> fifo_;
  std::map<PredId, int64_t> pending_evictions_;

  /// Bumped by HaltForCrash/RestoreCheckpoint; timer closures capture the
  /// epoch they were armed in and no-op if it has moved on, so a restored
  /// engine never executes a pre-crash timer.
  uint64_t restart_epoch_ = 0;

  std::vector<ActionObserver> observers_;
  EngineStats stats_;
  std::string last_error_;
};

}  // namespace runtime
}  // namespace nettrails

#endif  // NETTRAILS_RUNTIME_ENGINE_H_
