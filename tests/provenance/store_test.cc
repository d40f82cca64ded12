#include "src/provenance/store.h"

#include <gtest/gtest.h>

#include "src/runtime/plan.h"

namespace nettrails {
namespace provenance {
namespace {

constexpr char kSrc[] = R"(
  materialize(link, infinity, infinity, keys(1,2)).
  materialize(reach, infinity, infinity, keys(1,2)).
  r1 reach(@X,Y) :- link(@X,Y,C).
)";

std::vector<ProvEdge> EdgesOf(const ProvStore& store, Vid vid) {
  std::vector<ProvEdge> out;
  store.EdgesFor(vid, [&](const ProvEdge& e) { out.push_back(e); });
  return out;
}

size_t NumIndexes(const runtime::Engine& engine, const char* table) {
  return engine.GetTable(table)->num_indexes();
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<runtime::CompiledProgramPtr> prog = runtime::Compile(kSrc);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    prog_ = *prog;
    sim_.AddNode();
    engine_ = std::make_unique<runtime::Engine>(&sim_, 0, prog_);
    store_ = std::make_unique<ProvStore>(engine_.get());
  }

  Tuple Link(int64_t c) {
    return Tuple("link",
                 {Value::Address(0), Value::Address(0 + 0), Value::Int(c)});
  }

  runtime::CompiledProgramPtr prog_;
  net::Simulator sim_;
  std::unique_ptr<runtime::Engine> engine_;
  std::unique_ptr<ProvStore> store_;
};

TEST_F(StoreTest, BaseTupleGetsSelfEdge) {
  Tuple link("link", {Value::Address(0), Value::Address(1), Value::Int(3)});
  ASSERT_TRUE(engine_->Insert(link).ok());
  sim_.Run();
  const std::vector<ProvEdge> edges = EdgesOf(*store_, link.Hash());
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].IsSelf(link.Hash()));
  EXPECT_EQ(edges[0].count, 1);
}

TEST_F(StoreTest, DerivedTupleGetsExecEdge) {
  Tuple link("link", {Value::Address(0), Value::Address(0), Value::Int(3)});
  // Self-link keeps the head local so edges and exec are both at node 0.
  ASSERT_TRUE(engine_->Insert(link).ok());
  sim_.Run();
  Tuple reach("reach", {Value::Address(0), Value::Address(0)});
  ASSERT_TRUE(engine_->HasTuple(reach));
  const std::vector<ProvEdge> edges = EdgesOf(*store_, reach.Hash());
  ASSERT_EQ(edges.size(), 1u);
  const ProvEdge& e = edges[0];
  EXPECT_FALSE(e.IsSelf(reach.Hash()));
  EXPECT_FALSE(e.maybe);
  EXPECT_EQ(e.rloc, 0u);
  const std::optional<ExecEntry> exec = store_->ExecFor(e.rid);
  ASSERT_TRUE(exec.has_value());
  EXPECT_EQ(exec->rule, "r1");
  EXPECT_EQ(exec->count, 1);
  ASSERT_EQ(exec->inputs.size(), 1u);
  EXPECT_EQ(exec->inputs[0], link.Hash());
}

TEST_F(StoreTest, DeletionRemovesEdgesAndBumpsVersion) {
  Tuple link("link", {Value::Address(0), Value::Address(0), Value::Int(3)});
  ASSERT_TRUE(engine_->Insert(link).ok());
  sim_.Run();
  uint64_t v1 = store_->version();
  EXPECT_GT(v1, 0u);
  ASSERT_TRUE(engine_->Delete(link).ok());
  sim_.Run();
  EXPECT_GT(store_->version(), v1);
  Tuple reach("reach", {Value::Address(0), Value::Address(0)});
  EXPECT_TRUE(EdgesOf(*store_, reach.Hash()).empty());
  EXPECT_TRUE(EdgesOf(*store_, link.Hash()).empty());
  EXPECT_EQ(store_->exec_count(), 0u);
  EXPECT_EQ(store_->edge_count(), 0u);
}

TEST_F(StoreTest, IndexesOnlyEnginesThatAreRead) {
  // An engine nobody reads carries no index on the provenance views.
  net::Simulator sim;
  sim.AddNode();
  runtime::Engine engine(&sim, 0, prog_);
  EXPECT_EQ(NumIndexes(engine, kProvTable), 0u);
  EXPECT_EQ(NumIndexes(engine, kRuleExecTable), 0u);
  Tuple link("link", {Value::Address(0), Value::Address(0), Value::Int(3)});
  ASSERT_TRUE(engine.Insert(link).ok());
  sim.Run();

  // The first store attached after the fact indexes the current rows...
  ProvStore late(&engine);
  EXPECT_EQ(NumIndexes(engine, kProvTable), 1u);
  EXPECT_EQ(NumIndexes(engine, kRuleExecTable), 1u);
  EXPECT_EQ(EdgesOf(late, link.Hash()).size(), 1u);
  EXPECT_EQ(late.edge_count(), 2u);  // link's self-edge + reach's edge
  EXPECT_EQ(late.exec_count(), 1u);
  // ...and a second store reuses its indexes.
  ProvStore second(&engine);
  EXPECT_EQ(NumIndexes(engine, kProvTable), 1u);
  EXPECT_EQ(NumIndexes(engine, kRuleExecTable), 1u);
  EXPECT_EQ(second.CanonicalGraph(), late.CanonicalGraph());
}

TEST(StoreProvenanceOffTest, AnswersEveryLookupWithNothing) {
  Result<runtime::CompiledProgramPtr> prog =
      runtime::Compile(kSrc, runtime::NoProvenanceOptions());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  net::Simulator sim;
  sim.AddNode();
  runtime::Engine engine(&sim, 0, *prog);
  ProvStore store(&engine);
  Tuple link("link", {Value::Address(0), Value::Address(0), Value::Int(3)});
  ASSERT_TRUE(engine.Insert(link).ok());
  sim.Run();
  Tuple reach("reach", {Value::Address(0), Value::Address(0)});
  ASSERT_TRUE(engine.HasTuple(reach));
  EXPECT_TRUE(EdgesOf(store, link.Hash()).empty());
  EXPECT_TRUE(EdgesOf(store, reach.Hash()).empty());
  EXPECT_FALSE(store.ExecFor(reach.Hash()).has_value());
  EXPECT_TRUE(store.AllVids().empty());
  EXPECT_EQ(store.CanonicalGraph(), "");
  EXPECT_EQ(store.edge_count(), 0u);
  EXPECT_EQ(store.exec_count(), 0u);
  EXPECT_EQ(store.version(), 0u);
}

TEST_F(StoreTest, AllVidsEnumerates) {
  Tuple link("link", {Value::Address(0), Value::Address(0), Value::Int(3)});
  ASSERT_TRUE(engine_->Insert(link).ok());
  sim_.Run();
  std::vector<Vid> vids = store_->AllVids();
  EXPECT_EQ(vids.size(), 2u);  // link + reach
}

}  // namespace
}  // namespace provenance
}  // namespace nettrails
