// Batched-vs-serial equivalence harness: the engine's DeltaBatch pipeline
// at EngineOptions::batch_size > 1 must reach exactly the state the serial
// anchor (batch_size = 1: every delta drains as its own batch, whose suffix
// overlay is exactly the pre-action store) reaches — identical table
// fixpoints (which subsumes identical aggregate
// output values: aggregate outputs are rows of mincost / bestcost), and
// bit-identical distributed provenance graphs — under randomized seeded
// churn: link flaps and failure bursts over the path-vector and MINCOST
// protocols, route announce/withdraw churn over the legacy-BGP maybe
// program, and event bursts into a self-join (the only shape whose
// triggers read the batch's suffix overlay — no shipped protocol has one).
// CI runs this suite via `ctest -R equivalence` with the three fixed seeds
// below.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/provenance/store.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace runtime {
namespace {

/// MINCOST with the distance-vector "infinity" lowered from 255 to 24.
/// Identical rules to protocols::MincostProgram(); the lower bound only
/// shortens the count-to-infinity transient when a failure burst
/// temporarily partitions the 6-node test topology (with the shipped 255
/// bound a partition makes every surviving pair count up by link-cost
/// steps, which swamps the equivalence runs without exercising anything
/// new — the transient is protocol behaviour, not engine behaviour).
const char* kBoundedMincost = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2)).
    mc1 cost(@X,Y,C) :- link(@X,Y,C).
    mc2 cost(@X,Z,C) :- link(@X,Y,C1), mincost(@Y,Z,C2), X != Z,
                        C := C1 + C2, C < 24.
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
)";

/// Self-join bursts: each flood event derives one item2 row per item
/// through f1 and then a replacement for each through f2 (item2 is keyed
/// on (X,K)), so one run of item2 deltas inserts rows and retracts them
/// again, and p1 joins item2 with itself.
const char* kSelfJoinBursts = R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(item2, infinity, infinity, keys(1,2)).
    materialize(pair, infinity, infinity, keys(1,2,3)).
    f1 item2(@X,K,V) :- flood(@X,N), item(@X,K), V := N.
    f2 item2(@X,K,V) :- flood(@X,N), item(@X,K), V := N + 1.
    p1 pair(@X,A,B) :- item2(@X,A,V), item2(@X,B,W).
)";

struct WorldStats {
  uint64_t batches_processed = 0;
  uint64_t batched_tuples = 0;
  uint64_t trigger_dispatches = 0;
  uint64_t batch_messages_sent = 0;
  bool overflowed = false;
};

/// Full-system fixpoint fingerprint: every materialized table's visible
/// tuples with derivation counts (deterministic order) per node, plus each
/// node's canonical provenance graph.
std::string Fingerprint(
    const std::vector<std::unique_ptr<Engine>>& engines,
    const std::vector<std::unique_ptr<provenance::ProvStore>>& stores) {
  std::string out;
  for (const auto& engine : engines) {
    out += "== node " + std::to_string(engine->id()) + "\n";
    for (const auto& [name, info] : engine->program().tables) {
      if (!info.materialized) continue;
      for (const Tuple& t : engine->TableContents(name)) {
        out += t.ToString() + " x" + std::to_string(engine->CountOf(t)) + "\n";
      }
    }
  }
  for (const auto& store : stores) {
    out += "== provenance node " + std::to_string(store->node()) + "\n";
    out += store->CanonicalGraph();
  }
  return out;
}

WorldStats Collect(const std::vector<std::unique_ptr<Engine>>& engines) {
  WorldStats ws;
  for (const auto& e : engines) {
    ws.batches_processed += e->stats().batches_processed;
    ws.batched_tuples += e->stats().batched_tuples;
    ws.trigger_dispatches += e->stats().trigger_dispatches;
    ws.batch_messages_sent += e->stats().batch_messages_sent;
    ws.overflowed |= e->overflowed();
  }
  return ws;
}

/// Seeded link churn over a routing protocol: converge a random connected
/// topology, then apply single flaps and multi-link failure bursts. The Rng
/// consumption is engine-state-independent, so every batch_size replays the
/// identical schedule.
std::string RunLinkChurn(const char* program, uint64_t seed,
                         uint32_t batch_size, WorldStats* out_stats) {
  Result<CompiledProgramPtr> prog = Compile(program);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return "";

  Rng rng(seed);
  net::Topology topo = net::MakeRandomConnected(6, 0.35, &rng, 3);
  net::Simulator sim;
  EngineOptions opts;
  opts.batch_size = batch_size;
  auto engines = protocols::MakeEngines(&sim, topo, *prog, opts);
  std::vector<std::unique_ptr<provenance::ProvStore>> stores;
  for (const auto& e : engines) {
    stores.push_back(std::make_unique<provenance::ProvStore>(e.get()));
  }
  EXPECT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());

  std::vector<bool> up(topo.links.size(), true);
  for (int op = 0; op < 14; ++op) {
    // Burst: flip 1-3 links before letting the network reconverge, so
    // retraction and re-derivation cascades overlap (deep batches).
    size_t burst = 1 + rng.NextBelow(3);
    for (size_t b = 0; b < burst; ++b) {
      size_t i = rng.NextBelow(topo.links.size());
      const net::CostedLink& l = topo.links[i];
      if (up[i]) {
        EXPECT_TRUE(protocols::FailLink(l.a, l.b, l.cost, &engines, &sim,
                                        /*run_to_quiescence=*/false)
                        .ok());
      } else {
        EXPECT_TRUE(protocols::RecoverLink(l.a, l.b, l.cost, &engines, &sim,
                                           /*run_to_quiescence=*/false)
                        .ok());
      }
      up[i] = !up[i];
    }
    sim.Run();
  }
  // Leave no link down at the end so every node holds interesting state.
  for (size_t i = 0; i < topo.links.size(); ++i) {
    if (!up[i]) {
      const net::CostedLink& l = topo.links[i];
      EXPECT_TRUE(protocols::RecoverLink(l.a, l.b, l.cost, &engines, &sim,
                                         /*run_to_quiescence=*/false)
                      .ok());
    }
  }
  sim.Run();

  *out_stats = Collect(engines);
  EXPECT_FALSE(out_stats->overflowed);
  return Fingerprint(engines, stores);
}

/// Seeded announce/withdraw churn over the legacy-BGP maybe program:
/// inputRoute / outputRoute inserts (some output routes genuinely extending
/// an input route, exercising the maybe join), key-replacement updates, and
/// deletes of still-live tuples.
std::string RunBgpChurn(const char* program, uint64_t seed,
                        uint32_t batch_size, WorldStats* out_stats) {
  Result<CompiledProgramPtr> prog = Compile(program);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return "";

  Rng rng(seed);
  net::Simulator sim;
  sim.AddNode();
  EngineOptions opts;
  opts.batch_size = batch_size;
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<Engine>(&sim, 0, *prog, opts));
  Engine& engine = *engines[0];
  std::vector<std::unique_ptr<provenance::ProvStore>> stores;
  stores.push_back(std::make_unique<provenance::ProvStore>(&engine));

  auto route = [&](int64_t first, int64_t len) {
    ValueList hops;
    for (int64_t i = 0; i < len; ++i) {
      hops.push_back(Value::Address(static_cast<NodeId>(first + i)));
    }
    return Value::List(std::move(hops));
  };
  std::vector<Tuple> live;
  for (int op = 0; op < 60; ++op) {
    if (!live.empty() && rng.NextBool(0.3)) {
      size_t i = rng.NextBelow(live.size());
      if (engine.HasTuple(live[i])) {
        EXPECT_TRUE(engine.Delete(live[i]).ok());
      }
      live.erase(live.begin() + static_cast<long>(i));
    } else {
      int64_t router = rng.NextInRange(1, 3);
      int64_t prefix = rng.NextInRange(10, 13);
      Value in_route = route(rng.NextInRange(4, 6), rng.NextInRange(1, 3));
      Tuple in("inputRoute", {Value::Address(0), Value::Int(router),
                              Value::Int(prefix), in_route});
      EXPECT_TRUE(engine.Insert(in).ok());
      live.push_back(in);
      if (rng.NextBool(0.7)) {
        // Extend: prepend this AS (node 0), matching f_isExtend.
        ValueList extended{Value::Address(0)};
        for (const Value& hop : in_route.as_list()) extended.push_back(hop);
        Tuple out_t("outputRoute",
                    {Value::Address(0), Value::Int(router), Value::Int(prefix),
                     Value::List(std::move(extended))});
        EXPECT_TRUE(engine.Insert(out_t).ok());
        live.push_back(out_t);
      }
    }
    sim.Run();
  }

  *out_stats = Collect(engines);
  EXPECT_FALSE(out_stats->overflowed);
  return Fingerprint(engines, stores);
}

/// Seeded self-join bursts on one node: toggle a random item, then (most
/// of the time) flood, which derives a run of item2 inserts and key
/// replacements that p1 joins with itself. Item state depends on the
/// schedule alone, so every batch_size replays the same inputs. Also
/// checks that batching reached the self-join: one delta applies at most
/// two actions (a key replacement's retraction and insert), so a wider
/// item2 batch carried several deltas through the suffix overlay.
std::string RunSelfJoinBursts(const char* program, uint64_t seed,
                              uint32_t batch_size, WorldStats* out_stats) {
  Result<CompiledProgramPtr> prog = Compile(program);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return "";

  Rng rng(seed);
  net::Simulator sim;
  sim.AddNode();
  EngineOptions opts;
  opts.batch_size = batch_size;
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<Engine>(&sim, 0, *prog, opts));
  Engine& engine = *engines[0];
  std::vector<std::unique_ptr<provenance::ProvStore>> stores;
  stores.push_back(std::make_unique<provenance::ProvStore>(&engine));
  // Observers run once per applied action, in the batch epilogue, so calls
  // that read the same batches_processed belong to one batch.
  uint64_t widest = 0, batch = 0, batch_actions = 0;
  engine.AddActionObserver([&](const std::string& table, const TableAction&) {
    if (table != "item2") return;
    if (engine.stats().batches_processed != batch) {
      batch = engine.stats().batches_processed;
      batch_actions = 0;
    }
    widest = std::max(widest, ++batch_actions);
  });

  for (int op = 0; op < 40; ++op) {
    Tuple item("item", {Value::Address(0), Value::Int(rng.NextInRange(1, 6))});
    if (engine.HasTuple(item)) {
      EXPECT_TRUE(engine.Delete(item).ok());
    } else {
      EXPECT_TRUE(engine.Insert(item).ok());
    }
    if (rng.NextBool(0.7)) {
      Tuple flood("flood",
                  {Value::Address(0), Value::Int(rng.NextInRange(1, 4))});
      EXPECT_TRUE(engine.InsertEvent(flood).ok());
    }
    sim.Run();
  }
  if (batch_size == 1) {
    EXPECT_LE(widest, 2u);
  } else {
    EXPECT_GT(widest, 2u) << "batch_size=" << batch_size;
  }

  *out_stats = Collect(engines);
  EXPECT_FALSE(out_stats->overflowed);
  return Fingerprint(engines, stores);
}

/// A seeded churn driver: replays one schedule of `program` at
/// `batch_size` and returns the final fingerprint.
using Driver = std::string (*)(const char* program, uint64_t seed,
                               uint32_t batch_size, WorldStats* out_stats);

struct EqCase {
  const char* name;
  Driver run;
  const char* program;
  uint64_t seed;
};

class BatchEquivalence : public ::testing::TestWithParam<EqCase> {};

TEST_P(BatchEquivalence, BatchedFixpointMatchesSerial) {
  const EqCase& c = GetParam();
  auto run = [&](uint32_t batch_size, WorldStats* ws) {
    return c.run(c.program, c.seed, batch_size, ws);
  };
  WorldStats serial_ws, b8_ws, b64_ws;
  std::string serial = run(1, &serial_ws);
  std::string batched8 = run(8, &b8_ws);
  std::string batched64 = run(64, &b64_ws);
  ASSERT_FALSE(serial.empty());

  EXPECT_EQ(batched8, serial) << "batch_size=8 diverged from serial";
  EXPECT_EQ(batched64, serial) << "batch_size=64 diverged from serial";

  // The serial anchor drains single-tuple batches; the batched runs must
  // actually exercise the pipeline (multi-tuple batches, not just runs of
  // one).
  EXPECT_GT(serial_ws.batches_processed, 0u);
  EXPECT_EQ(serial_ws.batched_tuples, serial_ws.batches_processed);
  EXPECT_GT(b8_ws.batches_processed, 0u);
  EXPECT_GT(b8_ws.batched_tuples, b8_ws.batches_processed);
  EXPECT_GT(b64_ws.batched_tuples, b64_ws.batches_processed);
  // Amortization: batching must strictly reduce trigger dispatches.
  EXPECT_LT(b64_ws.trigger_dispatches, serial_ws.trigger_dispatches);
}

INSTANTIATE_TEST_SUITE_P(
    SeededChurn, BatchEquivalence,
    ::testing::Values(
        EqCase{"mincost_s1", RunLinkChurn, kBoundedMincost, 101},
        EqCase{"mincost_s2", RunLinkChurn, kBoundedMincost, 202},
        EqCase{"mincost_s3", RunLinkChurn, kBoundedMincost, 303},
        EqCase{"pathvector_s1", RunLinkChurn, protocols::PathVectorProgram(),
               101},
        EqCase{"pathvector_s2", RunLinkChurn, protocols::PathVectorProgram(),
               202},
        EqCase{"pathvector_s3", RunLinkChurn, protocols::PathVectorProgram(),
               303},
        EqCase{"bgp_s1", RunBgpChurn, protocols::BgpMaybeProgram(), 101},
        EqCase{"bgp_s2", RunBgpChurn, protocols::BgpMaybeProgram(), 202},
        EqCase{"bgp_s3", RunBgpChurn, protocols::BgpMaybeProgram(), 303},
        EqCase{"selfjoin_s1", RunSelfJoinBursts, kSelfJoinBursts, 101},
        EqCase{"selfjoin_s2", RunSelfJoinBursts, kSelfJoinBursts, 202},
        EqCase{"selfjoin_s3", RunSelfJoinBursts, kSelfJoinBursts, 303}),
    [](const ::testing::TestParamInfo<EqCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// EngineStats batch counters.

TEST(BatchStatsTest, DeltasEnqueuedCountsTuplesNotBatches) {
  // One gossip event fans out into 3 remote deltas: at every batch size the
  // sender frames them into a single message (they come from one action),
  // but the receiver must still count 3 enqueued deltas (plus nothing else
  // on the sender beyond the event).
  Result<CompiledProgramPtr> prog = Compile(R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(told, infinity, infinity, keys(1,2)).
    r1 told(@Y,I) :- gossip(@X,Y), item(@X,I).
  )",
                                            NoProvenanceOptions());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  for (uint32_t batch_size : {1u, 64u}) {
    net::Simulator sim;
    sim.AddNode();
    sim.AddNode();
    sim.AddLink(0, 1);
    EngineOptions opts;
    opts.batch_size = batch_size;
    Engine sender(&sim, 0, *prog, opts);
    Engine receiver(&sim, 1, *prog, opts);
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          sender.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    ASSERT_TRUE(
        sender
            .InsertEvent(Tuple("gossip", {Value::Address(0), Value::Address(1)}))
            .ok());
    sim.Run();
    EXPECT_EQ(receiver.GetTable("told")->size(), 3u);
    // Per-tuple accounting regardless of framing.
    EXPECT_EQ(receiver.stats().deltas_enqueued, 3u) << "batch=" << batch_size;
    EXPECT_EQ(sender.stats().tuples_shipped, 3u) << "batch=" << batch_size;
    EXPECT_EQ(sender.stats().messages_sent, 1u) << "batch=" << batch_size;
    EXPECT_EQ(sender.stats().batch_messages_sent, 1u) << "batch=" << batch_size;
    EXPECT_EQ(receiver.stats().batched_tuples, 3u) << "batch=" << batch_size;
    // The receiver drains the frame's 3 deltas as one DeltaBatch, or as
    // three single-tuple batches at batch_size 1.
    EXPECT_EQ(receiver.stats().batches_processed, batch_size == 1 ? 3u : 1u);
  }
}

TEST(BatchStatsTest, BatchesProcessedAndDispatchAmortization) {
  // A local fan-out: one trigger derives 8 same-table tuples, so the
  // batched engine drains them as one batch (1 trigger dispatch) while the
  // serial anchor drains 8 single-tuple batches.
  Result<CompiledProgramPtr> prog = Compile(R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(copy, infinity, infinity, keys(1,2)).
    materialize(twice, infinity, infinity, keys(1,2)).
    r1 copy(@X,I) :- burst(@X,N), item(@X,I).
    r2 twice(@X,I2) :- copy(@X,I), I2 := I * 2.
  )",
                                            NoProvenanceOptions());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto dispatches = [&](uint32_t batch_size, EngineStats* stats) {
    net::Simulator sim;
    sim.AddNode();
    EngineOptions opts;
    opts.batch_size = batch_size;
    Engine engine(&sim, 0, *prog, opts);
    for (int64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(
          engine.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    EngineStats before = engine.stats();  // the item inserts batch too
    EXPECT_TRUE(
        engine.InsertEvent(Tuple("burst", {Value::Address(0), Value::Int(1)}))
            .ok());
    sim.Run();
    EXPECT_EQ(engine.GetTable("twice")->size(), 8u);
    EngineStats after = engine.stats();
    stats->batches_processed =
        after.batches_processed - before.batches_processed;
    stats->batched_tuples = after.batched_tuples - before.batched_tuples;
    return after.trigger_dispatches - before.trigger_dispatches;
  };
  EngineStats serial_stats, batched_stats;
  uint64_t serial = dispatches(1, &serial_stats);
  uint64_t batched = dispatches(64, &batched_stats);
  // Serial: 1 event + 8 copy + 8 twice = 17 single-tuple batches, one
  // dispatch each. Batched: 1 event batch + 1 copy batch + 1 twice batch = 3.
  EXPECT_EQ(serial, 17u);
  EXPECT_EQ(batched, 3u);
  EXPECT_EQ(serial_stats.batches_processed, 17u);
  EXPECT_EQ(serial_stats.batched_tuples, 17u);
  EXPECT_EQ(batched_stats.batches_processed, 3u);
  EXPECT_EQ(batched_stats.batched_tuples, 17u);
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
