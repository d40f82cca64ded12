#include "src/runtime/engine.h"

#include <gtest/gtest.h>

#include "src/net/topology.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace runtime {
namespace {

CompiledProgramPtr MustCompile(const std::string& src, bool provenance) {
  CompileOptions opts;
  opts.provenance = provenance;
  Result<CompiledProgramPtr> prog = Compile(src, opts);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return prog.ok() ? *prog : nullptr;
}

Tuple Link(NodeId a, NodeId b, int64_t c) {
  return Tuple("link", {Value::Address(a), Value::Address(b), Value::Int(c)});
}

// A four-node chain fixture with a path-carrying reachability program.
// (The path argument keeps the derivation graph acyclic, which is the
// precondition for counting-based incremental deletion — the same
// discipline the shipped protocols follow via f_member / monotone costs.)
class EngineBasicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prog_ = MustCompile(R"(
      materialize(link, infinity, infinity, keys(1,2)).
      materialize(reach, infinity, infinity, keys(1,2,3)).
      r1 reach(@X,Y,P) :- link(@X,Y,C), P := f_list(X,Y).
      r2 reach(@X,Z,P) :- link(@X,Y,C), reach(@Y,Z,P2), X != Z,
                          f_member(P2,X) == 0, P := f_prepend(X,P2).
    )",
                        false);
    ASSERT_NE(prog_, nullptr);
    for (int i = 0; i < 4; ++i) sim_.AddNode();
    sim_.AddLink(0, 1);
    sim_.AddLink(1, 2);
    sim_.AddLink(2, 3);
    for (NodeId i = 0; i < 4; ++i) {
      engines_.push_back(std::make_unique<Engine>(&sim_, i, prog_));
    }
  }

  void InsertBoth(NodeId a, NodeId b, int64_t c) {
    ASSERT_TRUE(engines_[a]->Insert(Link(a, b, c)).ok());
    ASSERT_TRUE(engines_[b]->Insert(Link(b, a, c)).ok());
  }

  bool Reach(NodeId x, NodeId y) {
    for (const Tuple& t : engines_[x]->TableContents("reach")) {
      if (t.field(1).as_address() == y) return true;
    }
    return false;
  }

  net::Simulator sim_;
  CompiledProgramPtr prog_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

TEST_F(EngineBasicTest, LocalDerivation) {
  ASSERT_TRUE(engines_[0]->Insert(Link(0, 1, 1)).ok());
  sim_.Run();
  EXPECT_TRUE(Reach(0, 1));
}

TEST_F(EngineBasicTest, InsertRejectsWrongLocation) {
  EXPECT_FALSE(engines_[0]->Insert(Link(1, 0, 1)).ok());
  EXPECT_FALSE(engines_[0]->Insert(Tuple("nosuch", {Value::Address(0)})).ok());
}

TEST_F(EngineBasicTest, DistributedTransitiveClosure) {
  InsertBoth(0, 1, 1);
  InsertBoth(1, 2, 1);
  InsertBoth(2, 3, 1);
  sim_.Run();
  EXPECT_TRUE(Reach(0, 3));
  EXPECT_TRUE(Reach(3, 0));
  EXPECT_TRUE(Reach(1, 3));
  EXPECT_FALSE(Reach(0, 0));
  EXPECT_GT(engines_[1]->stats().messages_sent, 0u);
}

TEST_F(EngineBasicTest, DeletionCascades) {
  InsertBoth(0, 1, 1);
  InsertBoth(1, 2, 1);
  InsertBoth(2, 3, 1);
  sim_.Run();
  ASSERT_TRUE(Reach(0, 3));
  // Cut 2-3 (both directions).
  ASSERT_TRUE(engines_[2]->Delete(Link(2, 3, 1)).ok());
  ASSERT_TRUE(engines_[3]->Delete(Link(3, 2, 1)).ok());
  sim_.Run();
  EXPECT_FALSE(Reach(0, 3));
  EXPECT_FALSE(Reach(1, 3));
  EXPECT_TRUE(Reach(0, 2));
  EXPECT_FALSE(Reach(3, 0));
}

TEST_F(EngineBasicTest, AlternativePathSurvivesDeletion) {
  InsertBoth(0, 1, 1);
  InsertBoth(1, 2, 1);
  sim_.AddLink(0, 2);
  InsertBoth(0, 2, 5);  // second route to 2
  sim_.Run();
  ASSERT_TRUE(Reach(0, 2));
  Tuple direct("reach", {Value::Address(0), Value::Address(1),
                         Value::List({Value::Address(0), Value::Address(1)})});
  ASSERT_TRUE(engines_[0]->HasTuple(direct));
  ASSERT_TRUE(engines_[0]->Delete(Link(0, 1, 1)).ok());
  ASSERT_TRUE(engines_[1]->Delete(Link(1, 0, 1)).ok());
  sim_.Run();
  EXPECT_TRUE(Reach(0, 2));  // direct link still supports it
  // The direct derivation 0->1 is retracted, but 1 stays reachable via the
  // alternative route 0->2->1.
  EXPECT_FALSE(engines_[0]->HasTuple(direct));
  EXPECT_TRUE(Reach(0, 1));
}

TEST_F(EngineBasicTest, DeleteNonexistentFails) {
  EXPECT_FALSE(engines_[0]->Delete(Link(0, 1, 1)).ok());
}

TEST(EngineTest, DerivationCountingOnDiamond) {
  // Two derivations of the same tuple; deleting one leaves it visible.
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(a, infinity, infinity, keys(1,2)).
    materialize(b, infinity, infinity, keys(1,2)).
    materialize(out, infinity, infinity, keys(1,2)).
    r1 out(@X,Y) :- a(@X,Y).
    r2 out(@X,Y) :- b(@X,Y).
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  Tuple a("a", {Value::Address(0), Value::Int(7)});
  Tuple b("b", {Value::Address(0), Value::Int(7)});
  Tuple out("out", {Value::Address(0), Value::Int(7)});
  ASSERT_TRUE(engine.Insert(a).ok());
  ASSERT_TRUE(engine.Insert(b).ok());
  sim.Run();
  EXPECT_EQ(engine.CountOf(out), 2);
  ASSERT_TRUE(engine.Delete(a).ok());
  sim.Run();
  EXPECT_EQ(engine.CountOf(out), 1);
  EXPECT_TRUE(engine.HasTuple(out));
  ASSERT_TRUE(engine.Delete(b).ok());
  sim.Run();
  EXPECT_FALSE(engine.HasTuple(out));
}

TEST(EngineTest, SelfJoinSemiNaiveCorrectness) {
  // pair(@X,A,B) :- item(@X,A), item(@X,B): inserting one item must derive
  // the (new,new) pair exactly once.
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(pair, infinity, infinity, keys(1,2,3)).
    r1 pair(@X,A,B) :- item(@X,A), item(@X,B).
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  ASSERT_TRUE(
      engine.Insert(Tuple("item", {Value::Address(0), Value::Int(1)})).ok());
  sim.Run();
  EXPECT_EQ(engine.CountOf(Tuple(
                "pair", {Value::Address(0), Value::Int(1), Value::Int(1)})),
            1);
  ASSERT_TRUE(
      engine.Insert(Tuple("item", {Value::Address(0), Value::Int(2)})).ok());
  sim.Run();
  EXPECT_EQ(engine.GetTable("pair")->size(), 4u);
  for (const Tuple& t : engine.TableContents("pair")) {
    EXPECT_EQ(engine.CountOf(t), 1) << t.ToString();
  }
  // Deleting one item removes its pairs exactly.
  ASSERT_TRUE(
      engine.Delete(Tuple("item", {Value::Address(0), Value::Int(2)})).ok());
  sim.Run();
  EXPECT_EQ(engine.GetTable("pair")->size(), 1u);
  EXPECT_EQ(engine.CountOf(Tuple(
                "pair", {Value::Address(0), Value::Int(1), Value::Int(1)})),
            1);
}

TEST(EngineTest, KeyReplacementCascades) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(conf, infinity, infinity, keys(1)).
    materialize(twice, infinity, infinity, keys(1)).
    r1 twice(@X,V2) :- conf(@X,V), V2 := V * 2.
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  ASSERT_TRUE(
      engine.Insert(Tuple("conf", {Value::Address(0), Value::Int(3)})).ok());
  sim.Run();
  EXPECT_TRUE(
      engine.HasTuple(Tuple("twice", {Value::Address(0), Value::Int(6)})));
  // Replacing conf retracts the old derivation and adds the new one.
  ASSERT_TRUE(
      engine.Insert(Tuple("conf", {Value::Address(0), Value::Int(5)})).ok());
  sim.Run();
  EXPECT_FALSE(
      engine.HasTuple(Tuple("twice", {Value::Address(0), Value::Int(6)})));
  EXPECT_TRUE(
      engine.HasTuple(Tuple("twice", {Value::Address(0), Value::Int(10)})));
  EXPECT_EQ(engine.GetTable("conf")->size(), 1u);
}

TEST(EngineTest, EventsFireRulesButAreNotStored) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(seen, infinity, infinity, keys(1,2)).
    r1 seen(@X,V) :- ping(@X,V).
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  ASSERT_TRUE(engine
                  .InsertEvent(
                      Tuple("ping", {Value::Address(0), Value::Int(9)}))
                  .ok());
  sim.Run();
  EXPECT_TRUE(
      engine.HasTuple(Tuple("seen", {Value::Address(0), Value::Int(9)})));
  EXPECT_EQ(engine.GetTable("ping"), nullptr);
  // InsertEvent on a materialized table is an error.
  EXPECT_FALSE(engine
                   .InsertEvent(
                       Tuple("seen", {Value::Address(0), Value::Int(1)}))
                   .ok());
  // Insert of an event predicate is an error.
  EXPECT_FALSE(
      engine.Insert(Tuple("ping", {Value::Address(0), Value::Int(1)})).ok());
}

TEST(EngineTest, UnnamedPredicatesDrainAsEventBatches) {
  // A tuple whose predicate the receiving program never names — injected
  // locally or shipped by a peer running another program — fires nothing
  // and is stored nowhere, but its VID is registered like any event's.
  CompiledProgramPtr sender_prog = MustCompile(R"(
    materialize(neighbor, infinity, infinity, keys(1,2)).
    r1 told(@Y,V) :- gossip(@X,V), neighbor(@X,Y).
  )",
                                               false);
  CompiledProgramPtr receiver_prog = MustCompile(R"(
    materialize(seen, infinity, infinity, keys(1,2)).
    r1 seen(@X,V) :- ping(@X,V).
  )",
                                                 false);
  net::Simulator sim;
  sim.AddNode();
  sim.AddNode();
  sim.AddLink(0, 1);
  Engine sender(&sim, 0, sender_prog);
  Engine receiver(&sim, 1, receiver_prog);
  ASSERT_TRUE(
      sender.Insert(Tuple("neighbor", {Value::Address(0), Value::Address(1)}))
          .ok());
  ASSERT_TRUE(
      sender.InsertEvent(Tuple("gossip", {Value::Address(0), Value::Int(5)}))
          .ok());
  Tuple stray("stray", {Value::Address(1), Value::Int(7)});
  ASSERT_TRUE(receiver.InsertEvent(stray).ok());
  sim.Run();
  Tuple told("told", {Value::Address(1), Value::Int(5)});
  ASSERT_NE(receiver.FindTupleByVid(told.Hash()), nullptr);
  EXPECT_EQ(*receiver.FindTupleByVid(told.Hash()), told);
  EXPECT_NE(receiver.FindTupleByVid(stray.Hash()), nullptr);
  EXPECT_EQ(receiver.GetTable("told"), nullptr);
  EXPECT_EQ(receiver.stats().rule_firings, 0u);
  // Two distinct unnamed predicates never share a batch.
  EXPECT_EQ(receiver.stats().batches_processed, 2u);
  // A materialized-table API call on an unnamed predicate still fails.
  EXPECT_FALSE(receiver.Insert(told).ok());
}

TEST(EngineTest, EventJoinsAgainstMaterializedState) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(neighbor, infinity, infinity, keys(1,2)).
    materialize(told, infinity, infinity, keys(1,2)).
    r1 told(@Y,V) :- gossip(@X,V), neighbor(@X,Y).
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  sim.AddNode();
  sim.AddLink(0, 1);
  Engine e0(&sim, 0, prog);
  Engine e1(&sim, 1, prog);
  ASSERT_TRUE(
      e0.Insert(Tuple("neighbor", {Value::Address(0), Value::Address(1)}))
          .ok());
  ASSERT_TRUE(
      e0.InsertEvent(Tuple("gossip", {Value::Address(0), Value::Int(5)}))
          .ok());
  sim.Run();
  EXPECT_TRUE(e1.HasTuple(Tuple("told", {Value::Address(1), Value::Int(5)})));
}

TEST(EngineTest, AggregateMinIncremental) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(obs, infinity, infinity, keys(1,2,3)).
    materialize(lowest, infinity, infinity, keys(1,2)).
    r1 lowest(@X,K,a_min<V>) :- obs(@X,K,V).
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  auto obs = [](int64_t k, int64_t v) {
    return Tuple("obs", {Value::Address(0), Value::Int(k), Value::Int(v)});
  };
  auto lowest = [](int64_t k, int64_t v) {
    return Tuple("lowest", {Value::Address(0), Value::Int(k), Value::Int(v)});
  };
  ASSERT_TRUE(engine.Insert(obs(1, 5)).ok());
  sim.Run();
  EXPECT_TRUE(engine.HasTuple(lowest(1, 5)));
  ASSERT_TRUE(engine.Insert(obs(1, 3)).ok());
  sim.Run();
  EXPECT_TRUE(engine.HasTuple(lowest(1, 3)));
  EXPECT_FALSE(engine.HasTuple(lowest(1, 5)));
  EXPECT_EQ(engine.GetTable("lowest")->size(), 1u);
  // Deleting the minimum recovers the next-best.
  ASSERT_TRUE(engine.Delete(obs(1, 3)).ok());
  sim.Run();
  EXPECT_TRUE(engine.HasTuple(lowest(1, 5)));
  // Deleting the last observation empties the group.
  ASSERT_TRUE(engine.Delete(obs(1, 5)).ok());
  sim.Run();
  EXPECT_EQ(engine.GetTable("lowest")->size(), 0u);
}

TEST(EngineTest, AggregateCountStar) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(obs, infinity, infinity, keys(1,2)).
    materialize(total, infinity, infinity, keys(1)).
    r1 total(@X,a_count<*>) :- obs(@X,V).
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        engine.Insert(Tuple("obs", {Value::Address(0), Value::Int(i)})).ok());
  }
  sim.Run();
  EXPECT_TRUE(
      engine.HasTuple(Tuple("total", {Value::Address(0), Value::Int(3)})));
  ASSERT_TRUE(
      engine.Delete(Tuple("obs", {Value::Address(0), Value::Int(0)})).ok());
  sim.Run();
  EXPECT_TRUE(
      engine.HasTuple(Tuple("total", {Value::Address(0), Value::Int(2)})));
}

TEST(EngineTest, SelectionsAndAssignmentsFilter) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(num, infinity, infinity, keys(1,2)).
    materialize(big, infinity, infinity, keys(1,2)).
    r1 big(@X,V2) :- num(@X,V), V > 10, V2 := V + 1.
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  ASSERT_TRUE(
      engine.Insert(Tuple("num", {Value::Address(0), Value::Int(5)})).ok());
  ASSERT_TRUE(
      engine.Insert(Tuple("num", {Value::Address(0), Value::Int(20)})).ok());
  sim.Run();
  EXPECT_EQ(engine.GetTable("big")->size(), 1u);
  EXPECT_TRUE(
      engine.HasTuple(Tuple("big", {Value::Address(0), Value::Int(21)})));
}

TEST(EngineTest, VidIndexTracksTuples) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(reach, infinity, infinity, keys(1,2)).
    r1 reach(@X,Y) :- link(@X,Y,C).
  )",
                                        true);
  net::Simulator sim;
  sim.AddNode();
  sim.AddNode();
  sim.AddLink(0, 1);
  Engine engine(&sim, 0, prog);
  Engine peer(&sim, 1, prog);
  ASSERT_TRUE(engine.Insert(Link(0, 1, 4)).ok());
  sim.Run();
  Tuple reach("reach", {Value::Address(0), Value::Address(1)});
  const Tuple* found = engine.FindTupleByVid(reach.Hash());
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, reach);
  EXPECT_NE(engine.FindTupleByVid(Link(0, 1, 4).Hash()), nullptr);
}

TEST(EngineTest, StatsAccumulate) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(reach, infinity, infinity, keys(1,2)).
    r1 reach(@X,Y) :- link(@X,Y,C).
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  ASSERT_TRUE(engine.Insert(Link(0, 0 + 1, 1)).ok());
  sim.Run();
  EXPECT_GT(engine.stats().deltas_enqueued, 0u);
  EXPECT_GT(engine.stats().rule_firings, 0u);
  EXPECT_EQ(engine.stats().eval_errors, 0u);
  EXPECT_FALSE(engine.overflowed());
}

TEST(EngineTest, RuntimeEvalErrorsAreCountedNotFatal) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(num, infinity, infinity, keys(1,2)).
    materialize(inv, infinity, infinity, keys(1,2)).
    r1 inv(@X,V2) :- num(@X,V), V2 := 100 / V.
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  ASSERT_TRUE(
      engine.Insert(Tuple("num", {Value::Address(0), Value::Int(0)})).ok());
  ASSERT_TRUE(
      engine.Insert(Tuple("num", {Value::Address(0), Value::Int(4)})).ok());
  sim.Run();
  EXPECT_EQ(engine.stats().eval_errors, 1u);
  EXPECT_TRUE(
      engine.HasTuple(Tuple("inv", {Value::Address(0), Value::Int(25)})));
  EXPECT_EQ(engine.GetTable("inv")->size(), 1u);
}

TEST(EngineTest, OverflowSafetyValve) {
  // A deliberately divergent program: ticker grows forever.
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(tick, infinity, infinity, keys(1,2)).
    r1 tick(@X,V2) :- tick(@X,V), V2 := V + 1.
  )",
                                        false);
  net::Simulator sim;
  sim.AddNode();
  EngineOptions opts;
  opts.max_actions_per_trigger = 1000;
  Engine engine(&sim, 0, prog, opts);
  ASSERT_TRUE(
      engine.Insert(Tuple("tick", {Value::Address(0), Value::Int(0)})).ok());
  sim.Run();
  EXPECT_TRUE(engine.overflowed());
  EXPECT_FALSE(engine.last_error().empty());
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
