// Engine checkpoint / crash / restore: the round trip must preserve table
// fixpoints with derivation counts, aggregate group internals (so later
// incremental updates behave as if the crash never happened), the VID
// interner and index, soft-state lifetimes at their ORIGINAL absolute
// deadlines, and the provenance slice (the store attached before the crash
// reads the restored tables and reproduces the canonical graph, at a larger
// version). HaltForCrash must fence every pending timer of the dead
// incarnation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/provenance/store.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace runtime {
namespace {

CompiledProgramPtr MustCompile(const std::string& src,
                               bool provenance = false) {
  CompileOptions opts;
  opts.provenance = provenance;
  Result<CompiledProgramPtr> prog = Compile(src, opts);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return prog.ok() ? *prog : nullptr;
}

/// All materialized tables of one engine, with derivation counts, in
/// canonical order.
std::string EngineFingerprint(const Engine& engine) {
  std::string out;
  for (const auto& [name, info] : engine.program().tables) {
    if (!info.materialized) continue;
    out += "-- " + name + "\n";
    for (const Tuple& t : engine.TableContents(name)) {
      out += t.ToString() + " x" + std::to_string(engine.CountOf(t)) + "\n";
    }
  }
  return out;
}

std::string WorldFingerprint(
    const std::vector<std::unique_ptr<Engine>>& engines) {
  std::string out;
  for (const auto& e : engines) {
    out += "== node " + std::to_string(e->id()) + "\n" + EngineFingerprint(*e);
  }
  return out;
}

TEST(CheckpointTest, RoundTripPreservesConvergedState) {
  CompiledProgramPtr prog =
      MustCompile(protocols::MincostProgram(), /*provenance=*/true);
  net::Topology topo = net::MakeLine(4, 1);
  net::Simulator sim;
  auto engines = protocols::MakeEngines(&sim, topo, prog);
  auto store = std::make_unique<provenance::ProvStore>(engines[1].get());
  ASSERT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());

  const std::string before = EngineFingerprint(*engines[1]);
  const std::string graph_before = store->CanonicalGraph();
  const uint64_t version_before = store->version();
  ASSERT_FALSE(before.empty());
  ASSERT_FALSE(graph_before.empty());

  EngineCheckpoint ckpt = engines[1]->TakeCheckpoint();
  engines[1]->HaltForCrash();
  engines[1]->RestoreCheckpoint(ckpt);

  // The pre-crash store needs no re-attach: it reads the restored tables
  // (its indexes were rebuilt with them), and the version moved on, so no
  // cache keyed on the old version survives the restore.
  EXPECT_EQ(EngineFingerprint(*engines[1]), before);
  EXPECT_EQ(store->CanonicalGraph(), graph_before);
  EXPECT_GT(store->version(), version_before);
  size_t edges = 0;
  for (Vid vid : store->AllVids()) {
    store->EdgesFor(vid, [&](const provenance::ProvEdge&) { ++edges; });
  }
  EXPECT_EQ(edges, store->edge_count());
}

// Aggregate internals (contribution multisets, last outputs) must survive:
// a world that checkpoints and restores a node, then fails a link and
// reconverges, must land on exactly the state of a world that never
// crashed. Any lost contribution or stale last_output would desynchronize
// the incremental a_min maintenance during the retraction cascade.
TEST(CheckpointTest, RestoredWorldTracksUncrashedWorldThroughChurn) {
  auto run = [](bool with_restore) {
    CompiledProgramPtr prog =
        MustCompile(protocols::MincostProgram(), /*provenance=*/true);
    net::Topology topo = net::MakeLine(4, 1);
    net::Simulator sim;
    auto engines = protocols::MakeEngines(&sim, topo, prog);
    EXPECT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());
    if (with_restore) {
      EngineCheckpoint ckpt = engines[2]->TakeCheckpoint();
      engines[2]->HaltForCrash();
      engines[2]->RestoreCheckpoint(ckpt);
    }
    // Post-restore dynamics: retraction cascade plus re-derivation.
    EXPECT_TRUE(protocols::FailLink(0, 1, 1, &engines, &sim).ok());
    EXPECT_TRUE(protocols::RecoverLink(0, 1, 1, &engines, &sim).ok());
    return WorldFingerprint(engines);
  };
  const std::string restored = run(true);
  const std::string pristine = run(false);
  ASSERT_FALSE(restored.empty());
  EXPECT_EQ(restored, pristine);
}

TEST(CheckpointTest, SoftStateKeepsOriginalDeadlineAcrossRestore) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(obs, 5, infinity, keys(1,2)).
  )");
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  Tuple obs("obs", {Value::Address(0), Value::Int(7)});
  ASSERT_TRUE(engine.Insert(obs).ok());
  sim.RunUntil(2 * net::kSecond);

  EngineCheckpoint ckpt = engine.TakeCheckpoint();
  engine.HaltForCrash();
  engine.RestoreCheckpoint(ckpt);
  // The lifetime is NOT restarted at restore time: the tuple still expires
  // 5s after its insertion, not 5s after the restore.
  sim.RunUntil(4900 * net::kMillisecond);
  EXPECT_TRUE(engine.HasTuple(obs));
  sim.RunUntil(5100 * net::kMillisecond);
  EXPECT_FALSE(engine.HasTuple(obs));
  EXPECT_EQ(engine.stats().expirations, 1u);
}

TEST(CheckpointTest, ExpiredWhileDownRetractsImmediatelyAfterRestore) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(obs, 5, infinity, keys(1,2)).
  )");
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  Tuple obs("obs", {Value::Address(0), Value::Int(7)});
  ASSERT_TRUE(engine.Insert(obs).ok());
  sim.RunUntil(2 * net::kSecond);
  EngineCheckpoint ckpt = engine.TakeCheckpoint();
  engine.HaltForCrash();
  // The node stays down past the tuple's deadline.
  sim.RunUntil(8 * net::kSecond);
  engine.RestoreCheckpoint(ckpt);
  EXPECT_TRUE(engine.HasTuple(obs));  // restored as data...
  sim.Run();
  EXPECT_FALSE(engine.HasTuple(obs));  // ...and retracted at once
  EXPECT_EQ(sim.now(), 8 * net::kSecond);
}

TEST(CheckpointTest, HaltFencesPendingTimersAndRestoreRestartsThem) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(tick, infinity, infinity, keys(1,2)).
    p1 tick(@X,E) :- periodic(@X,E,2,3).
  )");
  net::Simulator sim;
  sim.AddNode();
  Engine engine(&sim, 0, prog);
  sim.RunUntil(3 * net::kSecond);  // one firing (t=2s) happened
  ASSERT_EQ(engine.stats().periodic_firings, 1u);

  EngineCheckpoint ckpt = engine.TakeCheckpoint();
  engine.HaltForCrash();
  sim.Run();
  // The armed t=4s/t=6s closures fired as events but were epoch-fenced.
  EXPECT_EQ(engine.stats().periodic_firings, 1u);
  EXPECT_EQ(engine.GetTable("tick")->size(), 1u);

  engine.RestoreCheckpoint(ckpt);
  sim.Run();
  // The restored node runs its periodic stream from iteration 1 again
  // (fresh event ids), on top of the one checkpointed tick.
  EXPECT_EQ(engine.stats().periodic_firings, 4u);
  EXPECT_EQ(engine.GetTable("tick")->size(), 4u);
}

TEST(CheckpointTest, DropRemoteDerivationsScrubsOnlyRemoteGroundedRows) {
  CompiledProgramPtr prog = MustCompile(R"(
    materialize(src, infinity, infinity, keys(1,2)).
    materialize(dest, infinity, infinity, keys(1,2)).
    materialize(obs, infinity, infinity, keys(1,2)).
    r1 obs(@Y,V) :- src(@X,V), dest(@X,Y).
  )",
                                        /*provenance=*/true);
  net::Simulator sim;
  sim.AddNode();
  sim.AddNode();
  sim.AddLink(0, 1);
  Engine e0(&sim, 0, prog);
  Engine e1(&sim, 1, prog);
  ASSERT_TRUE(
      e0.Insert(Tuple("dest", {Value::Address(0), Value::Address(1)})).ok());
  ASSERT_TRUE(
      e0.Insert(Tuple("src", {Value::Address(0), Value::Int(5)})).ok());
  // A purely local base row at node 1: locally grounded, must survive.
  ASSERT_TRUE(
      e1.Insert(Tuple("src", {Value::Address(1), Value::Int(9)})).ok());
  sim.Run();
  // obs(@1,5) arrived at node 1, derived by r1 executing at node 0.
  Tuple shipped("obs", {Value::Address(1), Value::Int(5)});
  ASSERT_TRUE(e1.HasTuple(shipped));
  ASSERT_GT(e1.TableContents("prov").size(), 0u);

  e1.DropRemoteDerivations();
  sim.Run();
  // The remote-grounded tuple and its prov rows are gone...
  EXPECT_FALSE(e1.HasTuple(shipped));
  // ...the locally grounded base row and ITS provenance survive.
  EXPECT_TRUE(e1.HasTuple(Tuple("src", {Value::Address(1), Value::Int(9)})));
  const std::vector<Tuple> prov = e1.TableContents("prov");
  ASSERT_EQ(prov.size(), 1u);  // the base self-edge of src(@1,9)
  EXPECT_EQ(prov[0].field(3).as_address(), 1u);
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
