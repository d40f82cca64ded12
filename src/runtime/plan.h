// Compilation pipeline: NDlog source -> parsed -> analyzed -> localized ->
// (optionally) provenance-rewritten -> trigger-indexed executable plan
// shared by every node's engine.
#ifndef NETTRAILS_RUNTIME_PLAN_H_
#define NETTRAILS_RUNTIME_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/ndlog/analysis.h"
#include "src/ndlog/lint.h"
#include "src/runtime/expr_eval.h"

namespace nettrails {
namespace runtime {

struct CompileOptions {
  /// Apply the ExSPAN provenance rewrite. Maybe rules are dropped (with no
  /// effect) when false, since their sole output is provenance.
  bool provenance = true;
  /// Run the ndlint static-analysis passes over the user program (before
  /// localization). Error-severity findings fail the compile with a
  /// PlanError; warnings and notes are silent here (run the ndlint CLI to
  /// see them). In-source `// ndlint: allow(NDxxx)` pragmas apply.
  bool lint = true;
  /// Lint configuration (link predicates, extra allowed codes).
  ndlog::LintOptions lint_options;
};

/// Options with the ExSPAN provenance rewrite disabled (lint stays on).
inline CompileOptions NoProvenanceOptions() {
  CompileOptions options;
  options.provenance = false;
  return options;
}

/// Probe plan for one body atom under a specific choice of delta atom:
/// which argument positions are already bound when the join reaches it, and
/// the table-local secondary index covering exactly those positions.
///
/// The location attribute (position 0) is excluded from index keys: every
/// row of a node-local table carries that node's address there, so a
/// location key can never discriminate — indexing it would just duplicate
/// the table into one giant bucket (and make its maintenance quadratic).
struct AtomProbePlan {
  /// Sorted non-location argument positions whose values are known
  /// (constants or variables bound by the delta atom, earlier atoms, or
  /// assignments) when this atom is probed.
  std::vector<int> bound_positions;
  /// Id of the secondary index on bound_positions (Table::AddIndex
  /// registration order per table); -1 means no index.
  int index_id = -1;
  /// Set when the planner proved only the location is bound: the probe
  /// degenerates to a whole-table iteration in which every row is a
  /// genuine join candidate (a per-node broadcast join, e.g. "all
  /// neighbors"), as opposed to an unplanned scan fallback.
  bool broadcast = false;
  /// This atom's predicate equals the delta atom's predicate (a self-join).
  /// The engine's semi-naive visibility adjustments — subtracting the
  /// batch's suffix overlay — apply only to such atoms; precomputing the
  /// flag removes a per-probe string comparison from the join loop.
  bool same_pred_as_delta = false;
};

/// Dense predicate id: an index into CompiledProgram::predicates.
using PredId = uint32_t;

/// One trigger-index entry: `delta_term` of rule `rule_idx` is the atom a
/// delta on the indexed predicate binds.
struct TriggerEntry {
  size_t rule_idx = 0;
  size_t delta_term = 0;
  /// Another body atom of the rule is on the delta's predicate (some entry
  /// of the rule's probe plan has same_pred_as_delta). Only such triggers
  /// read the batch's suffix overlay, so the engine builds it only for them.
  bool self_join = false;
};

/// Lowered atom argument: a frame slot (variable) or a constant. Body atom
/// arguments are Var/Const only after analysis, so this is total.
struct SlotArg {
  int slot = -1;     // >= 0: frame slot holding the variable
  Value constant;    // the value when slot < 0
  std::string name;  // variable name (diagnostics only; never on hot path)

  bool is_const() const { return slot < 0; }
};

/// Lowered body-atom pattern: the engine matches candidate rows against it,
/// binding unbound slots, and rebuilds concrete tuples from a full frame.
struct CompiledAtom {
  std::vector<SlotArg> args;
};

/// One lowered body term, index-parallel to CompiledRule::rule.body.
struct CompiledTerm {
  enum class Kind : uint8_t { kAtom, kAssign, kSelect };
  Kind kind = Kind::kSelect;
  CompiledAtom atom;     // kAtom
  int assign_slot = -1;  // kAssign: slot the assignment binds
  CompiledExpr expr;     // kAssign / kSelect
};

/// One executable rule.
struct CompiledRule {
  ndlog::Rule rule;
  /// Indices into rule.body that are atoms, in body order.
  std::vector<size_t> atom_positions;
  /// Slot frame layout: every variable appearing in the rule, interned to a
  /// dense id at compile time. Evaluation frames are sized to slots.size().
  SlotMap slots;
  /// Lowered body, index-parallel to rule.body (patterns for atoms,
  /// slot-compiled expressions for assignments and selections).
  std::vector<CompiledTerm> body;
  /// Lowered head-argument expressions, index-parallel to rule.head.args.
  /// The a_count<*> aggregate argument has no expression (entry invalid).
  std::vector<CompiledExpr> head_exprs;
  /// Dense id of the head predicate.
  PredId head_pred = 0;
  /// Head predicate is an event (not materialized).
  bool head_is_event = false;
  /// Aggregate rule bookkeeping.
  bool has_agg = false;
  ndlog::AggFn agg_fn = ndlog::AggFn::kMin;
  size_t agg_arg_index = 0;  // position of the aggregate in the head args
  /// delta body-term index -> probe plan per body term (entries for
  /// non-delta materialized atoms; everything else keeps index_id == -1).
  /// Populated for exactly the (rule, delta) pairs in the trigger index.
  std::map<size_t, std::vector<AtomProbePlan>> join_plans;
};

/// The reserved periodic-event predicate: periodic(@X, E, Period, Count)
/// fires Count times every Period seconds at each node, with a fresh event
/// id E per firing (the P2/RapidNet timer mechanism).
inline constexpr char kPeriodicPredicate[] = "periodic";

/// A distinct periodic stream required by the program.
struct PeriodicStream {
  int64_t period_secs = 1;
  int64_t count = 1;

  bool operator<(const PeriodicStream& other) const {
    if (period_secs != other.period_secs) {
      return period_secs < other.period_secs;
    }
    return count < other.count;
  }
};

/// The shared, immutable execution plan.
struct CompiledProgram {
  /// Final program text (after localization and rewrite) — this is the
  /// "modified program that contains additional rules for capturing the
  /// program's provenance information" of the paper.
  ndlog::Program program;
  std::map<std::string, ndlog::TableInfo> tables;
  /// Every predicate the program names (declared tables, events, rule heads
  /// and body atoms: the keys of `tables`), in name order. A predicate's
  /// dense id is its index here; engines key their delta queues by it.
  std::vector<std::string> predicates;
  std::vector<CompiledRule> rules;
  /// predicate -> trigger entries, one per body atom a delta on it binds,
  /// in rule order and then body order (so a self-join rule's entries are
  /// adjacent).
  std::map<std::string, std::vector<TriggerEntry>> triggers;
  /// table -> distinct sorted bound-position sets required by the join
  /// plans; the vector index is the index id the engine registers with
  /// Table::AddIndex (in order).
  std::map<std::string, std::vector<std::vector<int>>> table_indexes;
  /// Distinct (period, count) timer streams the engines must run.
  std::vector<PeriodicStream> periodic_streams;
  bool provenance = false;

  const ndlog::TableInfo* FindTable(const std::string& name) const {
    auto it = tables.find(name);
    return it == tables.end() ? nullptr : &it->second;
  }

  /// Dense id of `name`, or -1 when the program never names it.
  int PredicateId(const std::string& name) const {
    auto it = std::lower_bound(predicates.begin(), predicates.end(), name);
    if (it == predicates.end() || *it != name) return -1;
    return static_cast<int>(it - predicates.begin());
  }

  /// Rendered program text (for tests, docs, and the demo display of the
  /// rewritten rules).
  std::string Dump() const { return program.ToString(); }
};

using CompiledProgramPtr = std::shared_ptr<const CompiledProgram>;

/// Full pipeline from source text.
Result<CompiledProgramPtr> Compile(const std::string& source,
                                   const CompileOptions& options = {});

}  // namespace runtime
}  // namespace nettrails

#endif  // NETTRAILS_RUNTIME_PLAN_H_
