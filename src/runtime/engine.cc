#include "src/runtime/engine.h"

#include <algorithm>
#include <cassert>

#include "src/common/alloc_hook.h"
#include "src/common/hash.h"
#include "src/provenance/rewrite.h"
#include "src/runtime/builtins.h"

namespace nettrails {
namespace runtime {

namespace {

using ndlog::Atom;

/// VID of the concrete tuple a lowered atom matched, hashed straight from
/// the frame (used for aggregate provenance). Bit-identical to
/// TupleVid(predicate, fields-materialized-from-the-frame) — it replays
/// DigestTuple's layout (name, then AddValueRange's count + element
/// digests) without building the ValueList.
Result<Vid> AtomVid(const std::string& predicate, const CompiledAtom& atom,
                    const Frame& frame) {
  Hasher h;
  h.AddString(predicate);
  h.AddU64(atom.args.size());
  for (const SlotArg& arg : atom.args) {
    if (arg.is_const()) {
      h.AddU64(arg.constant.Hash());
    } else if (frame.IsBound(arg.slot)) {
      h.AddU64(frame.Get(arg.slot).Hash());
    } else {
      return Status::RuntimeError("unbound variable " + arg.name);
    }
  }
  return h.Digest();
}

}  // namespace

Engine::Engine(net::Simulator* sim, NodeId id, CompiledProgramPtr prog,
               EngineOptions opts)
    : sim_(sim), id_(id), prog_(std::move(prog)), opts_(opts) {
  InitTables();
  if (prog_->provenance) {
    rule_exec_pred_ = PredIdOf(provenance::kRuleExecTable);
    prov_pred_ = PredIdOf(provenance::kProvTable);
  }
  tuple_channel_ = sim_->InternChannel(kTupleChannel);
  sim_->RegisterHandler(id_, kTupleChannel,
                        [this](net::Message& msg) { OnTupleMessage(msg); });
  SchedulePeriodics();
}

void Engine::InitTables() {
  tables_.clear();
  for (const auto& [name, info] : prog_->tables) {
    if (info.materialized) tables_.emplace(name, Table(info));
  }
  if (opts_.use_secondary_indexes) {
    // Registration order must match the compiled index ids (AddIndex
    // returns ids sequentially and the planner dedups per table).
    for (const auto& [name, specs] : prog_->table_indexes) {
      auto it = tables_.find(name);
      if (it == tables_.end()) continue;
      for (const std::vector<int>& positions : specs) {
        it->second.AddIndex(positions);
      }
    }
  }
  // After the planner's, so the compiled index ids stay put.
  if (provenance_indexed_) IndexProvenanceViews();
  // Resolve each body atom's table once: the join loop indexes
  // term_tables_ instead of probing the string-keyed table map per visit.
  term_tables_.assign(prog_->rules.size(), {});
  for (size_t r = 0; r < prog_->rules.size(); ++r) {
    const CompiledRule& cr = prog_->rules[r];
    term_tables_[r].assign(cr.rule.body.size(), nullptr);
    for (size_t pos : cr.atom_positions) {
      const Atom& atom = std::get<Atom>(cr.rule.body[pos]);
      auto it = tables_.find(atom.predicate);
      if (it != tables_.end()) term_tables_[r][pos] = &it->second;
    }
  }
  // Per-predicate slots, so the drain path never touches a name.
  unknown_preds_.clear();
  preds_.clear();
  for (const std::string& name : prog_->predicates) {
    preds_.push_back(SlotFor(name));
  }
}

Engine::PredSlot Engine::SlotFor(const std::string& name) {
  PredSlot slot;
  slot.name = &name;
  auto tit = tables_.find(name);
  if (tit != tables_.end()) {
    slot.table = &tit->second;
    const ndlog::TableInfo& info = tit->second.info();
    slot.soft_state = info.lifetime_secs >= 0 || info.max_size >= 0;
  }
  auto trig = prog_->triggers.find(name);
  if (trig != prog_->triggers.end()) slot.triggers = &trig->second;
  // Gated on prog_->provenance: without the rewrite those names are
  // ordinary user tables.
  slot.track_vids =
      !(prog_->provenance && provenance::IsProvenancePredicate(name));
  slot.provenance_view = prog_->provenance &&
                         (name == provenance::kProvTable ||
                          name == provenance::kRuleExecTable);
  return slot;
}

void Engine::IndexProvenanceViews() {
  if (!prog_->provenance) return;
  provenance_indexed_ = true;
  for (auto [name, view] : {std::pair(provenance::kProvTable, &prov_view_),
                            std::pair(provenance::kRuleExecTable,
                                      &rule_exec_view_)}) {
    Table& table = tables_.at(name);
    *view = {&table, table.AddIndex({provenance::kVertexIdPos})};
  }
}

PredId Engine::PredIdOf(const std::string& name) {
  const int id = prog_->PredicateId(name);
  if (id >= 0) return static_cast<PredId>(id);
  auto [it, fresh] =
      unknown_preds_.try_emplace(name, static_cast<PredId>(preds_.size()));
  if (fresh) preds_.push_back(SlotFor(it->first));
  return it->second;
}

void Engine::SchedulePeriodics() {
  const uint64_t epoch = restart_epoch_;
  for (const PeriodicStream& stream : prog_->periodic_streams) {
    sim_->ScheduleAfter(
        static_cast<net::Time>(stream.period_secs) * net::kSecond,
        [this, stream, epoch]() {
          if (restart_epoch_ == epoch) FirePeriodic(stream, 1);
        });
  }
}

void Engine::FirePeriodic(PeriodicStream stream, int64_t iteration) {
  ++stats_.periodic_firings;
  // Fresh event id per firing, stable across runs (no wall clock). The
  // restart epoch is mixed in so a restored engine's re-run of the stream
  // (which restarts from iteration 1) emits ids distinct from the
  // checkpointed firings of its previous incarnation.
  Hasher h;
  h.AddU64(id_);
  h.AddU64(static_cast<uint64_t>(stream.period_secs));
  h.AddU64(static_cast<uint64_t>(iteration));
  h.AddU64(restart_epoch_);
  Value eid = Value::Int(static_cast<int64_t>(h.Digest() >> 1));
  EnqueueLocal({PredIdOf(kPeriodicPredicate),
                {Value::Address(id_), eid, Value::Int(stream.period_secs),
                 Value::Int(stream.count)},
                1,
                /*is_delete=*/false});
  DrainQueue();
  if (iteration < stream.count) {
    const uint64_t epoch = restart_epoch_;
    sim_->ScheduleAfter(
        static_cast<net::Time>(stream.period_secs) * net::kSecond,
        [this, stream, iteration, epoch]() {
          if (restart_epoch_ == epoch) FirePeriodic(stream, iteration + 1);
        });
  }
}

Status Engine::Insert(const Tuple& tuple) {
  if (!tuple.HasLocation() || tuple.Location() != id_) {
    return Status::InvalidArgument("tuple " + tuple.ToString() +
                                   " is not located at node " +
                                   std::to_string(id_));
  }
  const int pred = prog_->PredicateId(tuple.name());
  if (pred < 0 || preds_[static_cast<size_t>(pred)].table == nullptr) {
    return Status::NotFound("no materialized table " + tuple.name());
  }
  EnqueueLocal({static_cast<PredId>(pred), tuple.fields(), 1,
                /*is_delete=*/false});
  DrainQueue();
  return Status::OK();
}

Status Engine::Delete(const Tuple& tuple) {
  if (!tuple.HasLocation() || tuple.Location() != id_) {
    return Status::InvalidArgument("tuple " + tuple.ToString() +
                                   " is not located at node " +
                                   std::to_string(id_));
  }
  const int pred = prog_->PredicateId(tuple.name());
  const Table* table =
      pred < 0 ? nullptr : preds_[static_cast<size_t>(pred)].table;
  if (table == nullptr) {
    return Status::NotFound("no materialized table " + tuple.name());
  }
  // External deletion retracts the tuple entirely (all external
  // derivations); base tuples normally have count 1.
  int64_t count = table->CountOf(tuple.fields());
  if (count == 0) {
    return Status::NotFound("tuple " + tuple.ToString() + " not present");
  }
  EnqueueLocal({static_cast<PredId>(pred), tuple.fields(), count,
                /*is_delete=*/true});
  DrainQueue();
  return Status::OK();
}

Status Engine::InsertEvent(const Tuple& tuple) {
  if (!tuple.HasLocation() || tuple.Location() != id_) {
    return Status::InvalidArgument("event " + tuple.ToString() +
                                   " is not located at node " +
                                   std::to_string(id_));
  }
  const PredId pred = PredIdOf(tuple.name());
  if (preds_[pred].table != nullptr) {
    return Status::InvalidArgument("table " + tuple.name() +
                                   " is materialized; use Insert");
  }
  EnqueueLocal({pred, tuple.fields(), 1, /*is_delete=*/false});
  DrainQueue();
  return Status::OK();
}

void Engine::OnTupleMessage(net::Message& msg) {
  // Delivery hands the frame's contents to the handler, so tuple fields move
  // straight from the wire frame into the delta queue (no per-tuple copy;
  // the frame is recycled after we return).
  if (!msg.batch.empty()) {
    // Batch frame: unpack in order. deltas_enqueued stays per tuple.
    for (net::BatchedTuple& b : msg.batch) {
      EnqueueLocal({PredIdOf(b.payload.name()),
                    std::move(b.payload.mutable_fields()), b.multiplicity,
                    b.is_delete});
    }
    DrainQueue();
    return;
  }
  EnqueueLocal({PredIdOf(msg.payload.name()),
                std::move(msg.payload.mutable_fields()), msg.multiplicity,
                msg.is_delete});
  DrainQueue();
}

void Engine::EnqueueLocal(Delta delta) {
  ++stats_.deltas_enqueued;
  queue_.push_back(std::move(delta));
}

void Engine::DrainQueue() {
  if (draining_) return;
  draining_ = true;
  actions_this_trigger_ = 0;
  // Both counters are per-thread; a drain executes entirely on the thread
  // that entered it (cross-engine message delivery goes through the
  // simulator's event queue, so drains never nest across engines), which
  // keeps the before/after deltas exactly attributable to this engine even
  // when other workers hash and allocate concurrently.
  const uint64_t hash_hits_before = Value::ListHashCacheHits();
  const uint64_t allocs_before = AllocCountThisThread();
  while (!queue_.empty()) {
    ProcessBatch();
    if (overflowed_) {
      queue_.clear();
      break;
    }
  }
  stats_.hash_cache_hits += Value::ListHashCacheHits() - hash_hits_before;
  stats_.vid_intern_hits = vid_interner_.hits();
  stats_.drain_allocs += AllocCountThisThread() - allocs_before;
  draining_ = false;
}

void Engine::ProcessBatch() {
  // Form the batch: the run of consecutive same-predicate deltas at the
  // queue front (mixed inserts and deletes; runs never reorder the queue,
  // so cross-table and insert/delete ordering is exactly the delta order).
  // The slot is copied: an observer calling an entry point may grow preds_.
  const PredId pred = queue_.front().pred;
  const PredSlot slot = preds_[pred];
  // Soft-state tables drain in batches of one: FIFO eviction and expiry
  // bookkeeping are defined against the per-action store (an eviction
  // victim re-inserted later in the same batch must be evicted at its
  // pre-re-insert count). The batching win lives in the infinite-lifetime
  // protocol and provenance tables.
  const size_t limit =
      slot.soft_state ? 1 : std::max<size_t>(opts_.batch_size, 1);
  batch_deltas_.clear();
  while (!queue_.empty() && batch_deltas_.size() < limit &&
         queue_.front().pred == pred) {
    batch_deltas_.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  ++stats_.batches_processed;
  stats_.batched_tuples += batch_deltas_.size();
  ++stats_.trigger_dispatches;

  if (slot.table == nullptr) {
    ProcessEventBatch(slot, &batch_deltas_);
    return;
  }
  Table& table = *slot.table;

  // Plan + apply the whole run through the table in one pass. Evaluation
  // below runs against the post-batch store; per-action suffix overlays
  // reconstruct, for self-join atoms, the store each action would have
  // seen applied alone.
  batch_reqs_.clear();
  batch_reqs_.reserve(batch_deltas_.size());
  for (Delta& d : batch_deltas_) {
    if (d.is_eviction) --pending_evictions_[pred];
    batch_reqs_.push_back({std::move(d.fields), d.mult, d.is_delete});
  }
  batch_actions_.Reset();
  const ActionBuffer& actions = batch_actions_;
  table.ApplyBatch(batch_reqs_, &batch_actions_);
  // The requests' field buffers were copied into the store / actions above;
  // recycle them for the next emitted tuples.
  for (DeltaRequest& r : batch_reqs_) ReleaseList(std::move(r.fields));
  if (actions.empty()) return;
  if (slot.provenance_view) provenance_version_ += actions.size();

  actions_this_trigger_ += actions.size();
  stats_.actions_processed += actions.size();
  if (actions_this_trigger_ > opts_.max_actions_per_trigger) {
    // Valve tripped: skip evaluation, but fall through to the per-tuple
    // epilogue — the store was already mutated, so observers and the VID
    // index must still see every applied action.
    overflowed_ = true;
    last_error_ = "max_actions_per_trigger exceeded on " + *slot.name;
  } else {
    if (slot.triggers != nullptr) EvalTriggers(*slot.triggers, table, actions);
    FlushDirtyAggregates();
  }

  // Per-tuple post-processing in application order (observers see every
  // tuple).
  for (const TableAction& action : actions) {
    if (slot.track_vids && !action.is_delete) {
      RegisterVid(*slot.name, action.fields);
    }
    for (const ActionObserver& obs : observers_) obs(*slot.name, action);
    if (slot.soft_state && !action.is_delete) {
      HandleSoftState(pred, table, action);
    }
  }
  FlushOutbox();
}

void Engine::EvalTriggers(const std::vector<TriggerEntry>& triggers,
                          const Table& table, const ActionBuffer& actions) {
  // Rule-major: each rule evaluates over every action before the next rule
  // starts, so each rule's head deltas leave in action order. A rule's
  // entries are adjacent in the index; a rule with several is a self-join,
  // whose entries evaluate action-major instead (each action through every
  // delta term before the next action). Rule-major order there could queue
  // a retraction from one delta term ahead of the insertion it cancels from
  // another, and retracting an absent tuple is a no-op.
  for (size_t first = 0; first < triggers.size() && !overflowed_;) {
    size_t last = first + 1;
    while (last < triggers.size() &&
           triggers[last].rule_idx == triggers[first].rule_idx) {
      ++last;
    }
    // JoinRec reads the overlay only for body atoms on this table, so only
    // a self-join needs it; every other rule evaluates against the empty
    // one.
    const bool self_join = triggers[first].self_join;
    if (self_join) {
      // The overlay starts as the net effect of the whole batch and shrinks
      // as evaluation advances: when action i evaluates it holds the summed
      // effects of actions [i..n).
      suffix_overlay_.Clear();
      for (const TableAction& a : actions) {
        suffix_overlay_.Add(a.fields, a.is_delete ? -a.mult : a.mult);
      }
      // The store is frozen during evaluation, so which batch-touched
      // tuples are absent from it (the synthetic-candidate pool) is
      // computed once per rule, not per probe.
      for (const BatchOverlay::Entry& e : suffix_overlay_.slab) {
        if (table.CountOf(*e.fields) == 0) {
          suffix_overlay_.absent.push_back(e.fields);
        }
      }
    }
    const BatchOverlay* suffix = self_join ? &suffix_overlay_ : &no_overlay_;
    for (const TableAction& a : actions) {
      for (size_t t = first; t < last && !overflowed_; ++t) {
        EvalRuleWithDelta(triggers[t].rule_idx, triggers[t].delta_term, a,
                          suffix);
      }
      if (overflowed_) break;
      if (self_join) {
        suffix_overlay_.Add(a.fields, a.is_delete ? a.mult : -a.mult);
      }
    }
    first = last;
  }
}

void Engine::ProcessEventBatch(const PredSlot& slot,
                               std::vector<Delta>* deltas) {
  // Events fire triggers and register VIDs but are never stored; retraction
  // deltas are dropped. Event predicates cannot appear as non-delta body
  // atoms, so evaluation runs under the empty overlay.
  batch_actions_.Reset();
  const ActionBuffer& actions = batch_actions_;
  for (Delta& d : *deltas) {
    if (d.is_delete) continue;
    RegisterVid(*slot.name, d.fields);
    TableAction& a = batch_actions_.Append();
    a.fields = d.fields;  // copy into the slot's recycled buffer
    a.mult = d.mult;
    a.is_delete = false;
    ReleaseList(std::move(d.fields));
  }
  if (actions.empty()) return;

  actions_this_trigger_ += actions.size();
  stats_.actions_processed += actions.size();
  if (actions_this_trigger_ > opts_.max_actions_per_trigger) {
    overflowed_ = true;
    last_error_ = "max_actions_per_trigger exceeded on " + *slot.name;
    return;
  }

  if (slot.triggers != nullptr) {
    for (const TriggerEntry& t : *slot.triggers) {
      for (const TableAction& a : actions) {
        EvalRuleWithDelta(t.rule_idx, t.delta_term, a, &no_overlay_);
        if (overflowed_) break;
      }
      if (overflowed_) break;
    }
  }
  FlushDirtyAggregates();
  FlushOutbox();
}

void Engine::ScheduleExpiry(PredId pred, const ValueList& key, uint64_t gen,
                            net::Time deadline) {
  const uint64_t epoch = restart_epoch_;
  sim_->ScheduleAt(deadline, [this, pred, key, gen, epoch]() {
    if (restart_epoch_ != epoch) return;  // armed before a crash/restore
    auto git = soft_gen_.find({pred, key});
    if (git == soft_gen_.end() || git->second.gen != gen) return;
    const Table::Row* row = preds_[pred].table->FindByKey(key);
    if (row == nullptr) return;
    ++stats_.expirations;
    EnqueueLocal({pred, CopyToPooled(row->fields), row->count,
                  /*is_delete=*/true});
    DrainQueue();
  });
}

void Engine::HandleSoftState(PredId pred, const Table& table,
                             const TableAction& action) {
  const ndlog::TableInfo& info = table.info();
  ValueList key = table.KeyOf(action.fields);
  SoftMeta& meta = soft_gen_[{pred, key}];
  uint64_t gen = ++meta.gen;

  if (info.lifetime_secs >= 0) {
    meta.deadline =
        sim_->now() + static_cast<net::Time>(info.lifetime_secs) * net::kSecond;
    ScheduleExpiry(pred, key, gen, meta.deadline);
  }

  if (info.max_size >= 0) {
    std::deque<std::pair<ValueList, uint64_t>>& order = fifo_[pred];
    order.push_back({key, gen});
    int64_t& pending = pending_evictions_[pred];
    while (static_cast<int64_t>(table.size()) - pending > info.max_size &&
           !order.empty()) {
      auto [victim_key, victim_gen] = order.front();
      order.pop_front();
      auto git = soft_gen_.find({pred, victim_key});
      if (git == soft_gen_.end() || git->second.gen != victim_gen) {
        continue;  // refreshed or replaced since: a newer entry exists
      }
      const Table::Row* row = table.FindByKey(victim_key);
      if (row == nullptr) continue;
      ++stats_.evictions;
      ++pending;
      Delta evict{pred, CopyToPooled(row->fields), row->count,
                  /*is_delete=*/true};
      evict.is_eviction = true;
      EnqueueLocal(std::move(evict));
    }
  }
}

bool Engine::MatchAtom(const CompiledAtom& atom, const ValueList& fields,
                       Frame* frame, std::vector<int>* added) const {
  const size_t undo_mark = added->size();
  auto fail = [&]() {
    while (added->size() > undo_mark) {
      frame->Unset(added->back());
      added->pop_back();
    }
    return false;
  };
  if (atom.args.size() != fields.size()) return fail();
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const SlotArg& arg = atom.args[i];
    if (arg.is_const()) {
      if (arg.constant != fields[i]) return fail();
    } else if (!frame->IsBound(arg.slot)) {
      frame->Set(arg.slot, fields[i]);
      added->push_back(arg.slot);
    } else if (frame->Get(arg.slot) != fields[i]) {
      return fail();
    }
  }
  return true;
}

void Engine::EvalRuleWithDelta(size_t rule_idx, size_t delta_term,
                               const TableAction& action,
                               const BatchOverlay* suffix) {
  const CompiledRule& cr = prog_->rules[rule_idx];
  const CompiledAtom& delta_atom = cr.body[delta_term].atom;
  frame_.Reset(cr.slots.size());
  // The shared undo stack starts empty per evaluation (the frame reset just
  // cleared every binding the previous evaluation logged).
  undo_stack_.clear();
  if (!MatchAtom(delta_atom, action.fields, &frame_, &undo_stack_)) return;
  JoinRec(cr, rule_idx, 0, delta_term, &cr.join_plans.at(delta_term), action,
          suffix, &frame_, action.mult);
}

void Engine::JoinRec(const CompiledRule& cr, size_t rule_idx, size_t term_idx,
                     size_t delta_term, const std::vector<AtomProbePlan>* plans,
                     const TableAction& action, const BatchOverlay* suffix,
                     Frame* frame, int64_t mult) {
  if (overflowed_) return;
  if (term_idx == cr.rule.body.size()) {
    EmitHead(cr, rule_idx, *frame, mult, action.is_delete);
    return;
  }
  if (term_idx == delta_term) {
    JoinRec(cr, rule_idx, term_idx + 1, delta_term, plans, action, suffix,
            frame, mult);
    return;
  }
  const CompiledTerm& term = cr.body[term_idx];
  if (term.kind == CompiledTerm::Kind::kAtom) {
    const CompiledAtom& atom = term.atom;
    const Table* tptr = term_tables_[rule_idx][term_idx];
    if (tptr == nullptr) return;  // event atom: only ever the delta
    const Table& table = *tptr;
    const AtomProbePlan& plan = (*plans)[term_idx];
    const AtomProbePlan* probe =
        opts_.use_secondary_indexes ? &plan : nullptr;
    const bool same_pred = plan.same_pred_as_delta;
    const bool before_delta = term_idx < delta_term;

    // Semi-naive visibility for self-join atoms: the store is post-batch,
    // so matches of any tuple the batch touched subtract the suffix overlay
    // (the summed effects of this and all later actions), which
    // reconstructs the pre-action store; atoms before the delta (which must
    // see the post-action state) add the action's own effect back on top.

    // One candidate row, shared by the probe and scan paths. The shared
    // undo stack (restored to the saved mark after each candidate — one bit
    // clear per newly bound slot) replaces a per-call vector, so recursing
    // through the body allocates nothing.
    auto consider = [&](const ValueList& fields, int64_t count) {
      ++stats_.join_probes;
      if (same_pred) {
        count -= suffix->Net(fields);
        if (before_delta && fields == action.fields) {
          count += action.is_delete ? -action.mult : action.mult;
        }
        if (count <= 0) return;
      }
      const size_t mark = undo_stack_.size();
      if (MatchAtom(atom, fields, frame, &undo_stack_)) {
        JoinRec(cr, rule_idx, term_idx + 1, delta_term, plans, action, suffix,
                frame, mult * count);
        while (undo_stack_.size() > mark) {
          frame->Unset(undo_stack_.back());
          undo_stack_.pop_back();
        }
      }
    };

    if (probe != nullptr && probe->broadcast) {
      // Planner-proven broadcast join: only the location is bound, which
      // every row of a node-local table matches — full iteration is the
      // optimal plan, not a fallback.
      ++stats_.broadcast_probes;
      for (Table::RowHandle h : table.OrderedView()) {
        const Table::Row& row = table.Deref(h);
        consider(row.fields, row.count);
      }
    } else if (probe != nullptr && probe->index_id >= 0) {
      // All bound positions are constants or bound slots by construction
      // of the plan; build the probe key directly from the frame. An
      // unbound slot here would mean PlanJoinIndexes diverged from
      // JoinRec's binding order — fail loud (as the old name-keyed at()
      // lookup did) rather than silently probing with a stale slot value.
      // probe_key_ is shared scratch: Probe consumes it before recursion
      // can refill it (deeper levels only run inside `consider`, after the
      // probe answered).
      probe_key_.clear();
      for (int p : probe->bound_positions) {
        const SlotArg& arg = atom.args[static_cast<size_t>(p)];
        if (!arg.is_const() && !frame->IsBound(arg.slot)) {
          NoteEvalError(Status::RuntimeError(
              "internal: planner-proven probe slot for " + arg.name +
              " is unbound in rule " + cr.rule.name));
          return;
        }
        probe_key_.push_back(arg.is_const() ? arg.constant
                                            : frame->Get(arg.slot));
      }
      ++stats_.index_probes;
      const std::vector<Table::RowHandle>* rows =
          table.Probe(probe->index_id, probe_key_);
      if (rows != nullptr) {
        for (Table::RowHandle h : *rows) {
          const Table::Row& row = table.Deref(h);
          consider(row.fields, row.count);
        }
      }
    } else {
      ++stats_.index_scan_fallbacks;
      for (Table::RowHandle h : table.OrderedView()) {
        const Table::Row& row = table.Deref(h);
        consider(row.fields, row.count);
      }
    }
    if (same_pred) {
      // Synthetic candidates: tuples this batch touched that are absent
      // from the post-batch store (inserted then displaced, or deleted by a
      // later action) but visible to this action's evaluation. `consider`
      // re-applies the overlay, so pass a zero store count.
      for (const ValueList* fields : suffix->absent) {
        consider(*fields, 0);
      }
    }
    return;
  }
  if (term.kind == CompiledTerm::Kind::kAssign) {
    Result<Value> v = Eval(term.expr, *frame);
    if (!v.ok()) {
      NoteEvalError(v.status());
      return;
    }
    if (frame->IsBound(term.assign_slot)) return;  // rebinding conflict: prune
    frame->Set(term.assign_slot, std::move(v).value());
    JoinRec(cr, rule_idx, term_idx + 1, delta_term, plans, action, suffix,
            frame, mult);
    frame->Unset(term.assign_slot);
    return;
  }
  Result<Value> v = Eval(term.expr, *frame);  // selection
  if (!v.ok()) {
    NoteEvalError(v.status());
    return;
  }
  if (v.value().Truthy()) {
    JoinRec(cr, rule_idx, term_idx + 1, delta_term, plans, action, suffix,
            frame, mult);
  }
}

void Engine::EmitHead(const CompiledRule& cr, size_t rule_idx,
                      const Frame& frame, int64_t mult, bool is_delete) {
  if (cr.has_agg) {
    HandleAggContribution(cr, rule_idx, frame, mult, is_delete);
    return;
  }
  if (cr.head_is_event && is_delete) return;  // no event retraction

  auto eval_head = [&]() -> Result<ValueList> {
    ValueList out = AcquireList();
    out.reserve(cr.head_exprs.size());
    for (const CompiledExpr& e : cr.head_exprs) {
      NT_ASSIGN_OR_RETURN(Value v, Eval(e, frame));
      out.push_back(std::move(v));
    }
    return out;
  };
  Result<ValueList> fields = eval_head();
  if (!fields.ok()) {
    NoteEvalError(fields.status());
    return;
  }
  if (fields->empty() || !(*fields)[0].is_address()) {
    NoteEvalError(Status::RuntimeError(
        "rule " + cr.rule.name + ": head location is not an address"));
    return;
  }
  ++stats_.rule_firings;
  NodeId dst = (*fields)[0].as_address();
  if (dst == id_) {
    EnqueueLocal({cr.head_pred, std::move(fields).value(), mult, is_delete});
    return;
  }
  ShipRemote(dst, Tuple(cr.rule.head.predicate, std::move(fields).value()),
             mult, is_delete);
}

void Engine::ShipRemote(NodeId dst, Tuple tuple, int64_t mult,
                        bool is_delete) {
  if (suppress_shipping_) return;
  // Per-destination buffering happens directly in a pooled simulator frame:
  // the batch entry is built in place in the frame's arena, so nothing is
  // copied again at flush time.
  uint32_t& slot = outbox_[dst];
  if (slot == 0) {
    net::Simulator::FrameRef f = sim_->AcquireFrame();
    net::Message& m = sim_->FrameMessage(f);
    m.src = id_;
    m.dst = dst;
    m.channel = tuple_channel_;
    slot = f + 1;
    outbox_order_.push_back(dst);
  }
  sim_->FrameMessage(slot - 1).batch.push_back(
      {std::move(tuple), is_delete, mult});
}

void Engine::FlushOutbox() {
  for (NodeId dst : outbox_order_) {
    net::Simulator::FrameRef f = *outbox_.Find(dst) - 1;
    net::Message& msg = sim_->FrameMessage(f);
    const size_t n = msg.batch.size();
    if (n == 1) {
      // Single delta: ship the legacy single-tuple frame (no batch
      // framing on the wire).
      msg.payload = std::move(msg.batch[0].payload);
      msg.is_delete = msg.batch[0].is_delete;
      msg.multiplicity = msg.batch[0].multiplicity;
      msg.batch.clear();
    } else {
      ++stats_.batch_messages_sent;
    }
    ++stats_.messages_sent;
    stats_.tuples_shipped += n;
    if (!sim_->SendFrame(f)) stats_.send_failures += n;
  }
  outbox_.Clear();
  outbox_order_.clear();
}

void Engine::HandleAggContribution(const CompiledRule& cr, size_t rule_idx,
                                   const Frame& frame, int64_t mult,
                                   bool is_delete) {
  // Group key: head args except the aggregate, in order. Built in the
  // shared (rule, group) lookup key so the agg-state and dirty-set hit
  // paths below run find-first against it — no pair/ValueList copies per
  // firing (RecomputeAggGroup never re-enters this function, so the
  // scratch cannot be clobbered mid-use).
  agg_key_scratch_.first = rule_idx;
  ValueList& group = agg_key_scratch_.second;
  group.clear();
  for (size_t i = 0; i < cr.head_exprs.size(); ++i) {
    if (i == cr.agg_arg_index) continue;
    Result<Value> v = Eval(cr.head_exprs[i], frame);
    if (!v.ok()) {
      NoteEvalError(v.status());
      return;
    }
    group.push_back(std::move(v).value());
  }
  // Aggregated value (a_count<*> has no expression and contributes 1).
  Value agg_value = Value::Int(1);
  if (cr.head_exprs[cr.agg_arg_index].valid()) {
    Result<Value> v = Eval(cr.head_exprs[cr.agg_arg_index], frame);
    if (!v.ok()) {
      NoteEvalError(v.status());
      return;
    }
    agg_value = std::move(v).value();
  }
  // Input VIDs for provenance, built in reusable scratch. AggGroup wraps
  // them in a Value::List only when the contribution is brand new; repeat
  // derivations (including re-inserts after a retraction) compare against
  // the stored list in place.
  const ValueList* vids = nullptr;
  if (prog_->provenance) {
    agg_vid_scratch_.clear();
    for (size_t pos : cr.atom_positions) {
      const Atom& atom = std::get<Atom>(cr.rule.body[pos]);
      Result<Vid> vid = AtomVid(atom.predicate, cr.body[pos].atom, frame);
      if (!vid.ok()) {
        NoteEvalError(vid.status());
        return;
      }
      agg_vid_scratch_.push_back(VidToValue(*vid));
    }
    vids = &agg_vid_scratch_;
  }
  ++stats_.rule_firings;
  auto it = agg_state_.find(agg_key_scratch_);
  if (it == agg_state_.end()) {
    it = agg_state_.emplace(std::make_pair(rule_idx, group), AggGroupState{})
             .first;
  }
  AggGroupState& state = it->second;
  state.group.Adjust(agg_value, vids, is_delete ? -mult : mult);
  // Defer: the batch recomputes each touched group's output once, so a
  // cascade that adjusts a group N times pays one recomputation (and
  // enqueues no intermediate outputs — the fixpoint is unchanged, only the
  // transient churn). The per-state flag replaces a keyed dirty set: states
  // are unique per (rule, group), so marking the state is equivalent and
  // skips the group-key copy.
  if (!state.dirty) {
    state.dirty = true;
    dirty_aggs_.push_back({rule_idx, &it->first.second, &state});
  }
}

void Engine::FlushDirtyAggregates() {
  for (const DirtyAgg& d : dirty_aggs_) {
    d.state->dirty = false;
    RecomputeAggGroup(prog_->rules[d.rule_idx], *d.group, d.state);
  }
  dirty_aggs_.clear();
}

void Engine::RecomputeAggGroup(const CompiledRule& cr,
                               const ValueList& group_key,
                               AggGroupState* state_ptr) {
  ++stats_.agg_recomputes;
  AggGroupState& state = *state_ptr;
  std::optional<Value> output = state.group.Output(cr.agg_fn);

  // Desired provenance tuples for the (new) output, built in scratch whose
  // tuple field buffers come from the list pool (and return to it when the
  // state's previous provenance is retired below).
  std::vector<AggProvRow>& desired_prov = agg_prov_scratch_;
  desired_prov.clear();
  ValueList new_fields = AcquireList();
  if (output) {
    new_fields = group_key;
    new_fields.insert(new_fields.begin() + static_cast<long>(cr.agg_arg_index),
                      *output);
    if (prog_->provenance) {
      Vid head_vid = TupleVid(cr.rule.head.predicate, new_fields);
      state.group.Winners(cr.agg_fn, &winners_scratch_);
      for (const AggGroup::ContribKey& win : winners_scratch_) {
        if (!win.vids.is_list()) continue;
        Vid rid = RuleExecRid(cr.rule.name, id_, win.vids.as_list());
        ValueList rx = AcquireList();
        rx.push_back(Value::Address(id_));
        rx.push_back(VidToValue(rid));
        rx.push_back(Value::Str(cr.rule.name));
        rx.push_back(win.vids);
        desired_prov.push_back({rule_exec_pred_, std::move(rx)});
        ValueList pv = AcquireList();
        pv.push_back(Value::Address(id_));
        pv.push_back(VidToValue(head_vid));
        pv.push_back(VidToValue(rid));
        pv.push_back(Value::Address(id_));
        pv.push_back(Value::Int(0));
        desired_prov.push_back({prov_pred_, std::move(pv)});
      }
    }
  }

  // Retract stale provenance, emit fresh provenance (set difference).
  auto contains = [](const std::vector<AggProvRow>& xs, const AggProvRow& r) {
    return std::find(xs.begin(), xs.end(), r) != xs.end();
  };
  for (const AggProvRow& old : state.last_prov) {
    if (!contains(desired_prov, old)) {
      EnqueueLocal({old.pred, CopyToPooled(old.fields), 1,
                    /*is_delete=*/true});
    }
  }
  for (const AggProvRow& fresh : desired_prov) {
    if (!contains(state.last_prov, fresh)) {
      EnqueueLocal({fresh.pred, CopyToPooled(fresh.fields), 1,
                    /*is_delete=*/false});
    }
  }
  // Retire the old provenance set: recycle its field buffers, then swap the
  // vectors so both the row storage and the scratch capacity cycle.
  for (AggProvRow& r : state.last_prov) ReleaseList(std::move(r.fields));
  state.last_prov.swap(desired_prov);
  desired_prov.clear();

  // Output maintenance via key replacement on the head table.
  if (!output) {
    ReleaseList(std::move(new_fields));
    if (state.has_output) {
      EnqueueLocal({cr.head_pred, CopyToPooled(state.last_output), 1,
                    /*is_delete=*/true});
      state.has_output = false;
      state.last_output.clear();
    }
    return;
  }
  if (state.has_output && state.last_output == new_fields) {
    ReleaseList(std::move(new_fields));
    return;
  }
  EnqueueLocal({cr.head_pred, CopyToPooled(new_fields), 1,
                /*is_delete=*/false});
  state.has_output = true;
  // Swap so the displaced last_output buffer goes back to the pool instead
  // of being freed by a move-assign.
  std::swap(state.last_output, new_fields);
  ReleaseList(std::move(new_fields));
}

void Engine::RegisterVid(const std::string& name, const ValueList& fields) {
  Vid vid = TupleVid(name, fields);
  vid_interner_.Intern(vid);
  // Re-derivations re-register the same VID constantly; try_emplace
  // constructs the Tuple only when the VID is new (one lookup, no copy on
  // the hit path).
  vid_index_.try_emplace(vid, name, fields);
}

void Engine::NoteEvalError(const Status& status) {
  ++stats_.eval_errors;
  last_error_ = status.ToString();
}

const Table* Engine::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

std::vector<Tuple> Engine::TableContents(const std::string& name) const {
  const Table* table = GetTable(name);
  return table == nullptr ? std::vector<Tuple>{} : table->Contents();
}

bool Engine::HasTuple(const Tuple& tuple) const { return CountOf(tuple) > 0; }

int64_t Engine::CountOf(const Tuple& tuple) const {
  const Table* table = GetTable(tuple.name());
  return table == nullptr ? 0 : table->CountOf(tuple.fields());
}

size_t Engine::TotalTuples(bool provenance_only) const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) {
    if (provenance_only && !provenance::IsProvenancePredicate(name)) continue;
    total += table.size();
  }
  return total;
}

const Tuple* Engine::FindTupleByVid(Vid vid) const {
  auto it = vid_index_.find(vid);
  return it == vid_index_.end() ? nullptr : &it->second;
}

EngineCheckpoint Engine::TakeCheckpoint() const {
  EngineCheckpoint ckpt;
  ckpt.taken_at = sim_->now();
  for (const auto& [name, table] : tables_) {
    std::vector<EngineCheckpoint::TableRow>& rows = ckpt.tables[name];
    for (Table::RowHandle h : table.OrderedView()) {
      const Table::Row& row = table.Deref(h);
      rows.push_back({row.fields, row.count});
    }
  }
  for (const auto& [key, meta] : soft_gen_) {
    ckpt.soft.push_back(
        {*preds_[key.first].name, key.second, meta.gen, meta.deadline});
  }
  for (const auto& [pred, order] : fifo_) {
    ckpt.fifo[*preds_[pred].name].assign(order.begin(), order.end());
  }
  for (const auto& [pred, pending] : pending_evictions_) {
    ckpt.pending_evictions[*preds_[pred].name] = pending;
  }
  // agg_state_ is a hash map (never iterated on evaluation paths); sort the
  // serialized entries so equal states checkpoint identically.
  std::vector<std::pair<AggGroup::ContribKey, int64_t>> live;
  for (const auto& [key, state] : agg_state_) {
    EngineCheckpoint::AggEntry e;
    e.rule_idx = key.first;
    e.group = key.second;
    state.group.LiveContributions(&live);
    e.contribs.reserve(live.size());
    for (const auto& [k, count] : live) {
      e.contribs.push_back({k.value, k.vids, count});
    }
    e.has_output = state.has_output;
    e.last_output = state.last_output;
    for (const AggProvRow& r : state.last_prov) {
      e.last_prov.emplace_back(*preds_[r.pred].name, r.fields);
    }
    ckpt.aggregates.push_back(std::move(e));
  }
  std::sort(ckpt.aggregates.begin(), ckpt.aggregates.end(),
            [](const EngineCheckpoint::AggEntry& a,
               const EngineCheckpoint::AggEntry& b) {
              if (a.rule_idx != b.rule_idx) return a.rule_idx < b.rule_idx;
              return ValueListLess{}(a.group, b.group);
            });
  ckpt.interned_vids.reserve(vid_interner_.size());
  for (size_t h = 0; h < vid_interner_.size(); ++h) {
    ckpt.interned_vids.push_back(
        vid_interner_.ToVid(static_cast<provenance::VidInterner::Handle>(h)));
  }
  ckpt.vid_index.reserve(vid_index_.size());
  for (const auto& [vid, tuple] : vid_index_) {
    ckpt.vid_index.emplace_back(vid, tuple);
  }
  std::sort(ckpt.vid_index.begin(), ckpt.vid_index.end(),
            [](const std::pair<Vid, Tuple>& a, const std::pair<Vid, Tuple>& b) {
              return a.first < b.first;
            });
  return ckpt;
}

void Engine::HaltForCrash() {
  ++restart_epoch_;  // every armed timer closure becomes a no-op
  queue_.clear();
  draining_ = false;
  overflowed_ = false;
  last_error_.clear();
}

void Engine::RestoreCheckpoint(const EngineCheckpoint& ckpt) {
  ++restart_epoch_;
  ++provenance_version_;  // the provenance slice is replaced wholesale
  queue_.clear();
  draining_ = false;
  overflowed_ = false;
  last_error_.clear();
  dirty_aggs_.clear();
  outbox_.Clear();
  outbox_order_.clear();
  // Rows load below without notifying observers; callers attach fresh ones.
  observers_.clear();

  // Tables are rebuilt from scratch — term_tables_ holds raw pointers into
  // tables_, so InitTables re-resolves it too. Rows load through the
  // ordinary plan/apply path (correct for both bag and key-replacement
  // tables) but fire no triggers, observers, or VID registration: derived
  // state is restored as data, not re-derived.
  InitTables();
  for (const auto& [name, rows] : ckpt.tables) {
    auto it = tables_.find(name);
    if (it == tables_.end()) continue;
    Table& table = it->second;
    for (const EngineCheckpoint::TableRow& row : rows) {
      for (const TableAction& a : table.PlanInsert(row.fields, row.count)) {
        table.Apply(a);
      }
    }
  }

  soft_gen_.clear();
  fifo_.clear();
  pending_evictions_.clear();
  for (const auto& [name, pending] : ckpt.pending_evictions) {
    pending_evictions_[PredIdOf(name)] = pending;
  }
  for (const EngineCheckpoint::SoftEntry& e : ckpt.soft) {
    soft_gen_[{PredIdOf(e.table), e.key}] = SoftMeta{e.gen, e.deadline};
  }
  for (const auto& [name, order] : ckpt.fifo) {
    fifo_[PredIdOf(name)].assign(order.begin(), order.end());
  }
  // Re-arm expiry timers at their absolute deadlines. ScheduleAt clamps
  // past times to now, so an entry whose lifetime elapsed while the node
  // was down is retracted immediately after restart — expiry order (by
  // original deadline, then schedule order) is preserved.
  for (const EngineCheckpoint::SoftEntry& e : ckpt.soft) {
    if (e.deadline == 0) continue;
    const PredId pred = PredIdOf(e.table);
    const Table* t = preds_[pred].table;
    if (t == nullptr || t->info().lifetime_secs < 0) continue;
    ScheduleExpiry(pred, e.key, e.gen, e.deadline);
  }

  agg_state_.clear();
  for (const EngineCheckpoint::AggEntry& e : ckpt.aggregates) {
    AggGroupState state;
    for (const EngineCheckpoint::AggContribution& c : e.contribs) {
      state.group.Adjust(c.value, c.vids, c.count);
    }
    state.has_output = e.has_output;
    state.last_output = e.last_output;
    for (const Tuple& t : e.last_prov) {
      state.last_prov.push_back({PredIdOf(t.name()), t.fields()});
    }
    agg_state_.emplace(std::make_pair(e.rule_idx, e.group), std::move(state));
  }

  vid_interner_ = provenance::VidInterner();
  for (Vid vid : ckpt.interned_vids) vid_interner_.Intern(vid);
  vid_index_.clear();
  for (const auto& [vid, tuple] : ckpt.vid_index) {
    vid_index_.emplace(vid, tuple);
  }

  SchedulePeriodics();
}

void Engine::DropRemoteDerivations() {
  // Suppress shipping: the survivors already scrubbed this node's exports
  // when it crashed (DropDerivationsFrom), so re-shipping the retractions
  // here would deliver unmatched -1 deltas that clamp against — and eat —
  // same-fields sibling derivations at the receiver.
  ScrubGroundedRows(/*any_remote=*/true, /*origin=*/0,
                    /*ship_retractions=*/false);
}

void Engine::DropDerivationsFrom(NodeId origin) {
  ScrubGroundedRows(/*any_remote=*/false, origin, /*ship_retractions=*/true);
}

void Engine::ScrubGroundedRows(bool any_remote, NodeId origin,
                               bool ship_retractions) {
  if (!prog_->provenance) return;
  const Table* prov = GetTable(provenance::kProvTable);
  if (prov == nullptr) return;
  // Snapshot the remote-grounded prov rows first: the deletes below cascade
  // through the rules and mutate the table while draining.
  struct Victim {
    ValueList prov_fields;
    int64_t prov_count;
    std::string target_name;
    ValueList target_fields;
  };
  std::vector<Victim> victims;
  for (Table::RowHandle h : prov->OrderedView()) {
    const Table::Row& row = prov->Deref(h);
    // prov(@Loc, VID, RID, RLoc, Maybe): RLoc is where the derivation's
    // rule executed. RLoc == id_ means locally grounded — keep.
    if (row.fields.size() < 4 || !row.fields[3].is_address()) continue;
    const NodeId rloc = row.fields[3].as_address();
    if (rloc == id_) continue;
    if (!any_remote && rloc != origin) continue;
    Victim v;
    v.prov_fields = row.fields;
    v.prov_count = row.count;
    const Tuple* target = FindTupleByVid(ValueToVid(row.fields[1]));
    if (target != nullptr) {
      v.target_name = target->name();
      v.target_fields = target->fields();
    }
    victims.push_back(std::move(v));
  }
  const bool saved_suppress = suppress_shipping_;
  suppress_shipping_ = !ship_retractions;
  for (Victim& v : victims) {
    // The prov row itself arrived as shipped deltas from the remote
    // deriver; no local rule maintains it, so delete it directly. Then
    // retract the remote-grounded share of the target tuple (its local
    // derivations, if any, stay) — this cascades through the node's own
    // rules, retracting downstream derivations.
    EnqueueLocal({prov_pred_, std::move(v.prov_fields), v.prov_count,
                  /*is_delete=*/true});
    if (!v.target_name.empty()) {
      EnqueueLocal({PredIdOf(v.target_name), std::move(v.target_fields),
                    v.prov_count, /*is_delete=*/true});
    }
  }
  DrainQueue();
  suppress_shipping_ = saved_suppress;
}

}  // namespace runtime
}  // namespace nettrails
