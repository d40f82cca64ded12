#include "src/runtime/plan.h"

#include <algorithm>
#include <set>

#include "src/ndlog/localize.h"
#include "src/ndlog/parser.h"
#include "src/provenance/rewrite.h"

namespace nettrails {
namespace runtime {

namespace {

using ndlog::AnalyzedProgram;
using ndlog::Atom;
using ndlog::BodyTerm;
using ndlog::Expr;
using ndlog::Program;
using ndlog::Rule;

/// Lowers a rule to its slot-frame form: every variable interned into
/// cr->slots, body atoms lowered to slot/constant patterns, assignments and
/// selections (and every head argument) lowered to CompiledExprs with
/// builtins resolved and arity-checked — so unknown-builtin and arity
/// errors surface here, at compile time, not on the first firing.

/// "rule <name> (line L:C)" — the span is invalid (and omitted) for rules
/// the localization/provenance rewrites generate.
std::string RuleAt(const Rule& rule) {
  std::string where =
      rule.span.valid() ? " (" + rule.span.ToString() + ")" : "";
  return "rule " + rule.name + where;
}

Status LowerRule(CompiledRule* cr) {
  const Rule& rule = cr->rule;
  auto lower_expr = [&](const Expr& e) -> Result<CompiledExpr> {
    Result<CompiledExpr> ce = CompileExpr(e, &cr->slots);
    if (!ce.ok()) {
      return Status::PlanError(RuleAt(rule) + ": " + ce.status().message());
    }
    return ce;
  };

  cr->body.resize(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) {
    CompiledTerm& term = cr->body[i];
    if (const Atom* atom = std::get_if<Atom>(&rule.body[i])) {
      term.kind = CompiledTerm::Kind::kAtom;
      term.atom.args.reserve(atom->args.size());
      for (const ndlog::AtomArg& arg : atom->args) {
        const Expr& e = *arg.expr;
        SlotArg sa;
        if (e.is_var()) {
          sa.slot = cr->slots.Intern(e.var_name());
          sa.name = e.var_name();
        } else if (e.is_const()) {
          sa.constant = e.const_value();
        } else {
          return Status::PlanError(
              RuleAt(rule) +
              ": body atom arguments must be variables or constants");
        }
        term.atom.args.push_back(std::move(sa));
      }
    } else if (const ndlog::Assign* assign =
                   std::get_if<ndlog::Assign>(&rule.body[i])) {
      term.kind = CompiledTerm::Kind::kAssign;
      NT_ASSIGN_OR_RETURN(term.expr, lower_expr(*assign->expr));
      term.assign_slot = cr->slots.Intern(assign->var);
    } else {
      term.kind = CompiledTerm::Kind::kSelect;
      NT_ASSIGN_OR_RETURN(term.expr,
                          lower_expr(*std::get<ndlog::Select>(rule.body[i]).expr));
    }
  }

  cr->head_exprs.resize(rule.head.args.size());
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    if (rule.head.args[i].expr) {
      NT_ASSIGN_OR_RETURN(cr->head_exprs[i],
                          lower_expr(*rule.head.args[i].expr));
    }
  }
  return Status::OK();
}

/// Appends the variable names of an atom's arguments to `out` (atom args
/// are Var/Const only after analysis).
void CollectAtomVars(const Atom& atom, std::set<std::string>* out) {
  for (const ndlog::AtomArg& arg : atom.args) {
    if (arg.expr && arg.expr->is_var()) out->insert(arg.expr->var_name());
  }
}

/// Computes the probe plan for rule `cr` evaluated with `delta_term` as the
/// delta atom, registering every needed (table, bound-position-set)
/// secondary index in `table_indexes`. Mirrors Engine::JoinRec exactly:
/// bindings start from the delta atom, then body terms are processed in
/// order (skipping the delta), assignments binding their target and each
/// probed atom binding its variables. Returns whether another body atom is
/// on the delta's predicate (a self-join).
bool PlanJoinIndexes(
    CompiledRule* cr, size_t delta_term,
    const std::map<std::string, ndlog::TableInfo>& tables,
    std::map<std::string, std::vector<std::vector<int>>>* table_indexes) {
  const Rule& rule = cr->rule;
  std::vector<AtomProbePlan> plans(rule.body.size());

  std::set<std::string> bound;
  CollectAtomVars(std::get<Atom>(rule.body[delta_term]), &bound);
  bool self_join = false;

  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (i == delta_term) continue;
    const BodyTerm& term = rule.body[i];
    if (const ndlog::Assign* assign = std::get_if<ndlog::Assign>(&term)) {
      bound.insert(assign->var);
      continue;
    }
    const Atom* atom = std::get_if<Atom>(&term);
    if (atom == nullptr) continue;  // selection: binds nothing
    plans[i].same_pred_as_delta =
        atom->predicate == std::get<Atom>(rule.body[delta_term]).predicate;
    self_join |= plans[i].same_pred_as_delta;
    auto tit = tables.find(atom->predicate);
    if (tit != tables.end() && tit->second.materialized) {
      bool location_bound = false;
      std::vector<int> positions;
      for (size_t a = 0; a < atom->args.size(); ++a) {
        const Expr& e = *atom->args[a].expr;
        if (e.is_const() || (e.is_var() && bound.count(e.var_name()))) {
          // Position 0 is the location attribute: constant across a
          // node-local table, so useless (and harmful) as an index key.
          if (a == 0) {
            location_bound = true;
          } else {
            positions.push_back(static_cast<int>(a));
          }
        }
      }
      if (!positions.empty()) {
        std::vector<std::vector<int>>& specs =
            (*table_indexes)[atom->predicate];
        auto sit = std::find(specs.begin(), specs.end(), positions);
        int id = static_cast<int>(sit - specs.begin());
        if (sit == specs.end()) specs.push_back(positions);
        plans[i].bound_positions = std::move(positions);
        plans[i].index_id = id;
      } else if (location_bound) {
        plans[i].broadcast = true;
      }
    }
    CollectAtomVars(*atom, &bound);
  }
  cr->join_plans.emplace(delta_term, std::move(plans));
  return self_join;
}

}  // namespace

Result<CompiledProgramPtr> Compile(const std::string& source,
                                   const CompileOptions& options) {
  NT_ASSIGN_OR_RETURN(Program parsed, ndlog::Parse(source));
  NT_ASSIGN_OR_RETURN(AnalyzedProgram analyzed, ndlog::Analyze(std::move(parsed)));

  // Static analysis runs over the user program, before localization and the
  // provenance rewrite introduce generated rules that would trip the link
  // and dead-code lints by construction. Only error-severity findings stop
  // the compile; the ndlint CLI surfaces warnings and notes.
  if (options.lint) {
    ndlog::LintOptions lint_options = options.lint_options;
    std::vector<std::string> pragmas = ndlog::ParseLintPragmas(source);
    lint_options.allow.insert(lint_options.allow.end(), pragmas.begin(),
                              pragmas.end());
    ndlog::DiagnosticEngine diags = ndlog::LintProgram(analyzed, lint_options);
    if (diags.errors() > 0) {
      std::string msg = "lint failed:";
      for (const ndlog::Diagnostic& d : diags.diagnostics()) {
        if (d.severity == ndlog::Severity::kError) msg += "\n  " + d.Render();
      }
      return Status::PlanError(msg);
    }
  }

  NT_ASSIGN_OR_RETURN(Program localized, ndlog::Localize(analyzed));
  NT_ASSIGN_OR_RETURN(analyzed, ndlog::Analyze(std::move(localized)));

  if (options.provenance) {
    NT_ASSIGN_OR_RETURN(Program rewritten,
                        provenance::RewriteForProvenance(analyzed));
    NT_ASSIGN_OR_RETURN(analyzed, ndlog::Analyze(std::move(rewritten)));
  } else {
    // Maybe rules only produce provenance; without the rewrite they are
    // no-ops and are removed.
    Program& prog = analyzed.program;
    std::vector<Rule> kept;
    for (Rule& r : prog.rules) {
      if (!r.is_maybe) kept.push_back(std::move(r));
    }
    prog.rules = std::move(kept);
  }

  auto prog = std::make_shared<CompiledProgram>();
  prog->tables = analyzed.tables;
  for (const auto& [name, info] : prog->tables) prog->predicates.push_back(name);
  prog->provenance = options.provenance;

  // Periodic timer streams: periodic(@X, E, Period, Count) body atoms.
  {
    const ndlog::TableInfo* pinfo = analyzed.FindTable(kPeriodicPredicate);
    if (pinfo != nullptr && pinfo->materialized) {
      return Status::PlanError(
          "periodic is a reserved event predicate and cannot be "
          "materialized");
    }
    std::set<PeriodicStream> streams;
    for (const Rule& rule : analyzed.program.rules) {
      for (const Atom* atom : rule.BodyAtoms()) {
        if (atom->predicate != kPeriodicPredicate) continue;
        if (atom->args.size() != 4) {
          return Status::PlanError(
              RuleAt(rule) +
              ": periodic requires (loc, EventId, Period, Count)");
        }
        const Expr& period = *atom->args[2].expr;
        const Expr& count = *atom->args[3].expr;
        if (!period.is_const() || !period.const_value().is_int() ||
            period.const_value().as_int() <= 0 || !count.is_const() ||
            !count.const_value().is_int() ||
            count.const_value().as_int() <= 0) {
          return Status::PlanError(
              RuleAt(rule) +
              ": periodic period and count must be positive integer "
              "constants");
        }
        streams.insert(PeriodicStream{period.const_value().as_int(),
                                      count.const_value().as_int()});
      }
      if (rule.head.predicate == kPeriodicPredicate) {
        return Status::PlanError(RuleAt(rule) +
                                 ": periodic cannot be derived");
      }
    }
    prog->periodic_streams.assign(streams.begin(), streams.end());
  }

  for (Rule& rule : analyzed.program.rules) {
    CompiledRule cr;
    cr.rule = rule;

    const ndlog::TableInfo* head_info =
        analyzed.FindTable(cr.rule.head.predicate);
    cr.head_pred =
        static_cast<PredId>(prog->PredicateId(cr.rule.head.predicate));
    cr.head_is_event = head_info == nullptr || !head_info->materialized;

    for (size_t i = 0; i < cr.rule.head.args.size(); ++i) {
      if (cr.rule.head.args[i].agg) {
        cr.has_agg = true;
        cr.agg_fn = *cr.rule.head.args[i].agg;
        cr.agg_arg_index = i;
      }
    }
    if (cr.has_agg) {
      if (cr.head_is_event) {
        return Status::PlanError(RuleAt(cr.rule) +
                                 ": aggregate heads must be materialized");
      }
      // Key replacement drives the output update: the head table's key must
      // be exactly the group-by columns.
      std::vector<int> group;
      for (size_t i = 0; i < cr.rule.head.args.size(); ++i) {
        if (i != cr.agg_arg_index) group.push_back(static_cast<int>(i));
      }
      std::vector<int> keys = head_info->keys;
      std::sort(keys.begin(), keys.end());
      if (keys != group) {
        return Status::PlanError(
            RuleAt(cr.rule) + ": table " + cr.rule.head.predicate +
            " must be keyed on exactly the non-aggregate head columns");
      }
    }

    for (size_t i = 0; i < cr.rule.body.size(); ++i) {
      if (std::holds_alternative<Atom>(cr.rule.body[i])) {
        cr.atom_positions.push_back(i);
      }
    }
    if (cr.atom_positions.empty()) {
      return Status::PlanError(RuleAt(cr.rule) +
                               ": body must contain at least one atom");
    }
    NT_RETURN_IF_ERROR(LowerRule(&cr));
    prog->rules.push_back(std::move(cr));
  }

  // Trigger index. Rules containing an event atom fire only on that event
  // (events are instantaneous and cannot be scanned as stored relations).
  for (size_t r = 0; r < prog->rules.size(); ++r) {
    const CompiledRule& cr = prog->rules[r];
    size_t event_pos = SIZE_MAX;
    for (size_t pos : cr.atom_positions) {
      const Atom& atom = std::get<Atom>(cr.rule.body[pos]);
      const ndlog::TableInfo* info = prog->FindTable(atom.predicate);
      if (info == nullptr || !info->materialized) {
        event_pos = pos;
        break;
      }
    }
    if (event_pos != SIZE_MAX) {
      const Atom& atom = std::get<Atom>(cr.rule.body[event_pos]);
      prog->triggers[atom.predicate].push_back({r, event_pos});
      continue;
    }
    for (size_t pos : cr.atom_positions) {
      const Atom& atom = std::get<Atom>(cr.rule.body[pos]);
      prog->triggers[atom.predicate].push_back({r, pos});
    }
  }

  // Index selection: one probe plan per trigger entry, one secondary index
  // per distinct (table, bound-position-set) across the whole program.
  for (auto& [pred, entries] : prog->triggers) {
    for (TriggerEntry& t : entries) {
      t.self_join = PlanJoinIndexes(&prog->rules[t.rule_idx], t.delta_term,
                                    prog->tables, &prog->table_indexes);
    }
  }

  prog->program = std::move(analyzed.program);
  return CompiledProgramPtr(std::move(prog));
}

}  // namespace runtime
}  // namespace nettrails
