#include "src/runtime/plan.h"

#include <gtest/gtest.h>

#include "src/protocols/programs.h"
#include "src/provenance/rewrite.h"

namespace nettrails {
namespace runtime {
namespace {

TEST(PlanTest, CompilesMincostWithoutProvenance) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), opts);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_FALSE((*prog)->provenance);
  // mc1, mc2 (localized), mc3, plus the link reversal rule.
  EXPECT_EQ((*prog)->rules.size(), 4u);
  EXPECT_NE((*prog)->FindTable("link_d"), nullptr);
}

TEST(PlanTest, CompilesMincostWithProvenance) {
  Result<CompiledProgramPtr> prog = Compile(protocols::MincostProgram());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_TRUE((*prog)->provenance);
  EXPECT_NE((*prog)->FindTable(provenance::kProvTable), nullptr);
  EXPECT_NE((*prog)->FindTable(provenance::kRuleExecTable), nullptr);
  // eh views exist for the non-aggregate rules.
  EXPECT_NE((*prog)->FindTable("eh_mc1"), nullptr);
  EXPECT_NE((*prog)->FindTable("eh_mc2"), nullptr);
  EXPECT_EQ((*prog)->FindTable("eh_mc3"), nullptr);  // aggregate rule
}

TEST(PlanTest, AllShippedProtocolsCompile) {
  for (const char* src :
       {protocols::MincostProgram(), protocols::PathVectorProgram(),
        protocols::DsrProgram(), protocols::BgpMaybeProgram()}) {
    for (bool prov : {false, true}) {
      CompileOptions opts;
      opts.provenance = prov;
      Result<CompiledProgramPtr> prog = Compile(src, opts);
      EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    }
  }
}

TEST(PlanTest, TriggersIndexEveryBodyAtom) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), opts);
  ASSERT_TRUE(prog.ok());
  // link triggers mc1 and the reversal rule; link_d and mincost trigger mc2;
  // cost triggers mc3.
  EXPECT_GE((*prog)->triggers.at("link").size(), 2u);
  EXPECT_EQ((*prog)->triggers.at("mincost").size(), 1u);
  EXPECT_EQ((*prog)->triggers.at("cost").size(), 1u);
}

TEST(PlanTest, EventRulesTriggerOnlyOnTheEvent) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog = Compile(protocols::DsrProgram(), opts);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  // dr1/dr2 contain the rreq event and a link atom: the rules must not be
  // triggered by link deltas.
  auto it = (*prog)->triggers.find("link");
  if (it != (*prog)->triggers.end()) {
    for (const TriggerEntry& t : it->second) {
      const CompiledRule& cr = (*prog)->rules[t.rule_idx];
      for (size_t p : cr.atom_positions) {
        const auto& atom = std::get<ndlog::Atom>(cr.rule.body[p]);
        EXPECT_NE(atom.predicate, "rreq")
            << "rule with event body triggered by link: " << cr.rule.name;
      }
    }
  }
  EXPECT_GE((*prog)->triggers.at("rreq").size(), 2u);
}

TEST(PlanTest, SelfJoinFlagMarksOnlyTriggersJoiningTheirOwnPredicate) {
  // No shipped protocol joins a predicate with itself, with or without the
  // provenance rewrite, so no trigger of theirs needs the batch overlay.
  for (const char* src :
       {protocols::MincostProgram(), protocols::PathVectorProgram(),
        protocols::LinkStateProgram(), protocols::DsrProgram(),
        protocols::BgpMaybeProgram()}) {
    for (bool prov : {false, true}) {
      CompileOptions opts;
      opts.provenance = prov;
      Result<CompiledProgramPtr> prog = Compile(src, opts);
      ASSERT_TRUE(prog.ok()) << prog.status().ToString();
      for (const auto& [pred, entries] : (*prog)->triggers) {
        for (const TriggerEntry& t : entries) {
          EXPECT_FALSE(t.self_join)
              << pred << " -> " << (*prog)->rules[t.rule_idx].rule.name;
        }
      }
    }
  }
  Result<CompiledProgramPtr> mincost = Compile(protocols::MincostProgram());
  ASSERT_TRUE(mincost.ok()) << mincost.status().ToString();
  size_t mincost_triggers = 0;
  for (const auto& [pred, entries] : (*mincost)->triggers) {
    mincost_triggers += entries.size();
  }
  EXPECT_EQ(mincost_triggers, 15u);

  // Both triggers of a self-join rule carry the flag, with or without the
  // rewrite (which moves the join into the rule's eh_ view and adds a
  // single-atom base-tuple rule on item).
  for (bool prov : {false, true}) {
    CompileOptions opts;
    opts.provenance = prov;
    Result<CompiledProgramPtr> prog = Compile(R"(
      materialize(item, infinity, infinity, keys(1,2)).
      materialize(pair, infinity, infinity, keys(1,2,3)).
      r1 pair(@X,A,B) :- item(@X,A), item(@X,B).
    )",
                                              opts);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    size_t self_joins = 0;
    for (const TriggerEntry& t : (*prog)->triggers.at("item")) {
      const CompiledRule& cr = (*prog)->rules[t.rule_idx];
      size_t item_atoms = 0;
      for (size_t pos : cr.atom_positions) {
        if (std::get<ndlog::Atom>(cr.rule.body[pos]).predicate == "item") {
          ++item_atoms;
        }
      }
      EXPECT_EQ(t.self_join, item_atoms == 2)
          << cr.rule.name << " delta term " << t.delta_term;
      if (t.self_join) ++self_joins;
    }
    EXPECT_EQ(self_joins, 2u) << "provenance=" << prov;
  }
}

TEST(PlanTest, PredicateIdsFollowNameOrder) {
  Result<CompiledProgramPtr> prog = Compile(protocols::MincostProgram());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const CompiledProgram& p = **prog;
  // Every predicate the program names, events included, in name order.
  ASSERT_EQ(p.predicates.size(), p.tables.size());
  int id = 0;
  for (const auto& [name, info] : p.tables) {
    EXPECT_EQ(p.predicates[static_cast<size_t>(id)], name);
    EXPECT_EQ(p.PredicateId(name), id);
    ++id;
  }
  EXPECT_EQ(p.PredicateId("no_such_predicate"), -1);
  for (const CompiledRule& cr : p.rules) {
    EXPECT_EQ(p.predicates[cr.head_pred], cr.rule.head.predicate);
  }
}

TEST(PlanTest, AggregateRuleMetadata) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), opts);
  ASSERT_TRUE(prog.ok());
  const CompiledRule* agg = nullptr;
  for (const CompiledRule& cr : (*prog)->rules) {
    if (cr.has_agg) agg = &cr;
  }
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->rule.name, "mc3");
  EXPECT_EQ(agg->agg_fn, ndlog::AggFn::kMin);
  EXPECT_EQ(agg->agg_arg_index, 2u);
}

TEST(PlanTest, AggregateHeadKeyMustMatchGroup) {
  const char* src = R"(
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2,3)).
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
  )";
  EXPECT_FALSE(Compile(src).ok());
}

TEST(PlanTest, UnknownBuiltinRejected) {
  // Rejected when the program compiles — expression lowering resolves every
  // builtin — not lazily on the first firing.
  const char* src = R"(
    materialize(t, infinity, infinity, keys(1)).
    r1 t(@X) :- t(@X), f_bogus(X) == 1.
  )";
  Result<CompiledProgramPtr> prog = Compile(src);
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), Status::Code::kPlanError);
  EXPECT_NE(prog.status().message().find("f_bogus"), std::string::npos);
}

TEST(PlanTest, BuiltinArityRejectedAtCompileTime) {
  // f_size is unary; the arity violation is caught by the lowering pass.
  const char* src = R"(
    materialize(t, infinity, infinity, keys(1)).
    r1 t(@X) :- t(@X), f_size(X, X) == 1.
  )";
  Result<CompiledProgramPtr> prog = Compile(src);
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), Status::Code::kPlanError);
  EXPECT_NE(prog.status().message().find("argument"), std::string::npos);
  // Same check covers head expressions.
  const char* head_src = R"(
    materialize(t, infinity, infinity, keys(1)).
    materialize(u, infinity, infinity, keys(1,2)).
    r1 u(@X, f_abs(X, X)) :- t(@X).
  )";
  EXPECT_FALSE(Compile(head_src).ok());
}

TEST(PlanTest, RulesLowerToSlotFrames) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::MincostProgram(), opts);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  for (const CompiledRule& cr : (*prog)->rules) {
    // Lowered body and head are index-parallel to the AST rule.
    ASSERT_EQ(cr.body.size(), cr.rule.body.size());
    ASSERT_EQ(cr.head_exprs.size(), cr.rule.head.args.size());
    EXPECT_GT(cr.slots.size(), 0u) << cr.rule.name;
    for (size_t i = 0; i < cr.body.size(); ++i) {
      const CompiledTerm& term = cr.body[i];
      if (const auto* atom = std::get_if<ndlog::Atom>(&cr.rule.body[i])) {
        ASSERT_EQ(term.kind, CompiledTerm::Kind::kAtom);
        ASSERT_EQ(term.atom.args.size(), atom->args.size());
        for (size_t a = 0; a < atom->args.size(); ++a) {
          const SlotArg& sa = term.atom.args[a];
          if (atom->args[a].expr->is_var()) {
            ASSERT_GE(sa.slot, 0);
            ASSERT_LT(static_cast<size_t>(sa.slot), cr.slots.size());
            // The slot maps back to exactly this variable name.
            EXPECT_EQ(cr.slots.name(sa.slot), atom->args[a].expr->var_name());
          } else {
            EXPECT_TRUE(sa.is_const());
            EXPECT_EQ(sa.constant, atom->args[a].expr->const_value());
          }
        }
      } else if (std::get_if<ndlog::Assign>(&cr.rule.body[i])) {
        ASSERT_EQ(term.kind, CompiledTerm::Kind::kAssign);
        EXPECT_GE(term.assign_slot, 0);
        EXPECT_TRUE(term.expr.valid());
      } else {
        ASSERT_EQ(term.kind, CompiledTerm::Kind::kSelect);
        EXPECT_TRUE(term.expr.valid());
      }
    }
    // Aggregate a_count<*> aside, every head argument lowers.
    for (size_t i = 0; i < cr.head_exprs.size(); ++i) {
      if (cr.rule.head.args[i].expr) {
        EXPECT_TRUE(cr.head_exprs[i].valid());
      }
    }
  }
}

TEST(PlanTest, LoweredCallsArePreResolved) {
  // The provenance rewrite makes heavy use of f_mkvid/f_mkrid; every Call
  // node in the compiled program must carry its resolved builtin pointer.
  Result<CompiledProgramPtr> prog = Compile(protocols::MincostProgram());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  size_t call_nodes = 0;
  auto check_expr = [&](const CompiledExpr& e) {
    for (const CompiledExpr::Node& node : e.nodes) {
      if (node.op != CompiledExpr::Op::kCall) continue;
      ++call_nodes;
      ASSERT_NE(node.fn, nullptr) << node.name;
      EXPECT_EQ(node.fn, FindBuiltin(node.name)) << node.name;
    }
  };
  for (const CompiledRule& cr : (*prog)->rules) {
    for (const CompiledTerm& term : cr.body) {
      if (term.expr.valid()) check_expr(term.expr);
    }
    for (const CompiledExpr& e : cr.head_exprs) {
      if (e.valid()) check_expr(e);
    }
  }
  EXPECT_GT(call_nodes, 0u);
}

TEST(PlanTest, MaybeRulesDroppedWithoutProvenance) {
  CompileOptions opts;
  opts.provenance = false;
  Result<CompiledProgramPtr> prog =
      Compile(protocols::BgpMaybeProgram(), opts);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_TRUE((*prog)->rules.empty());
}

TEST(PlanTest, MaybeRulesBecomeProvenanceRules) {
  Result<CompiledProgramPtr> prog = Compile(protocols::BgpMaybeProgram());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  bool has_eh = false, derives_output = false;
  for (const CompiledRule& cr : (*prog)->rules) {
    if (cr.rule.head.predicate == "eh_br1") has_eh = true;
    if (cr.rule.head.predicate == "outputRoute") derives_output = true;
  }
  EXPECT_TRUE(has_eh);
  // Maybe rules never derive their head; outputRoute stays external.
  EXPECT_FALSE(derives_output);
}

TEST(PlanTest, ReservedPredicatesRejected) {
  const char* src = R"(
    materialize(prov, infinity, infinity, keys(1,2)).
    r1 prov(@X,Y) :- somebase(@X,Y).
  )";
  EXPECT_FALSE(Compile(src).ok());
}

TEST(PlanTest, DuplicateRuleNamesRejectedWithProvenance) {
  const char* src = R"(
    materialize(a, infinity, infinity, keys(1,2)).
    materialize(b, infinity, infinity, keys(1,2)).
    r1 b(@X,Y) :- a(@X,Y).
    r1 a(@X,Y) :- b(@X,Y).
  )";
  EXPECT_FALSE(Compile(src).ok());
}

TEST(PlanTest, DumpShowsRewrittenProgram) {
  Result<CompiledProgramPtr> prog = Compile(protocols::MincostProgram());
  ASSERT_TRUE(prog.ok());
  std::string dump = (*prog)->Dump();
  EXPECT_NE(dump.find("prov("), std::string::npos);
  EXPECT_NE(dump.find("ruleExec("), std::string::npos);
  EXPECT_NE(dump.find("f_mkvid"), std::string::npos);
}

TEST(PlanTest, DumpedProgramsAreValidNdlog) {
  // The rewritten program text (what the demo displays as "the modified
  // program containing the provenance rules") must itself re-compile.
  for (const char* src :
       {protocols::MincostProgram(), protocols::PathVectorProgram(),
        protocols::DsrProgram()}) {
    Result<CompiledProgramPtr> prog = Compile(src);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    CompileOptions no_prov;
    no_prov.provenance = false;  // it already contains the prov rules
    Result<CompiledProgramPtr> again = Compile((*prog)->Dump(), no_prov);
    EXPECT_TRUE(again.ok()) << again.status().ToString();
    if (again.ok()) {
      EXPECT_EQ((*again)->rules.size(), (*prog)->rules.size());
    }
  }
}

TEST(PlanTest, BodyWithoutAtomsRejected) {
  const char* src = R"(
    materialize(t, infinity, infinity, keys(1)).
    r1 t(@X) :- X := @1.
  )";
  // X := @1 binds X, but a rule needs at least one atom to be triggered.
  EXPECT_FALSE(Compile(src).ok());
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
