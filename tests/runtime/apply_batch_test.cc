// Property tests for Table::ApplyBatch: a batch of deltas must produce
// exactly the visible actions and final storage state of N sequential
// PlanInsert/PlanDelete + Apply round-trips — including mixed insert+delete
// of the same key inside one batch, key replacement, count-to-zero
// retraction, and spurious-delete accounting — while keeping every
// secondary index consistent. Engine-level soft-state (FIFO eviction and
// lifetime expiry) equivalence across batch sizes is covered at the
// bottom.
#include <gtest/gtest.h>

#include "src/common/rand.h"
#include "src/net/simulator.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"
#include "src/runtime/table.h"

namespace nettrails {
namespace runtime {
namespace {

ndlog::TableInfo CountingInfo() {
  ndlog::TableInfo info;
  info.name = "t";
  info.arity = 3;
  info.materialized = true;
  // keys empty = all fields: counting semantics.
  return info;
}

ndlog::TableInfo ReplacingInfo() {
  ndlog::TableInfo info;
  info.name = "t";
  info.arity = 3;
  info.materialized = true;
  info.keys = {0, 1};
  return info;
}

ValueList Row(int64_t a, int64_t b, int64_t c) {
  return {Value::Int(a), Value::Int(b), Value::Int(c)};
}

std::string Dump(const Table& t) {
  std::string out;
  for (Table::RowHandle h : t.OrderedView()) {
    const Table::Row& row = t.Deref(h);
    out += Tuple(t.name(), row.fields).ToString() + " x" +
           std::to_string(row.count) + "\n";
  }
  return out;
}

std::string Dump(const std::vector<TableAction>& actions) {
  std::string out;
  for (const TableAction& a : actions) {
    out += std::string(a.is_delete ? "-" : "+") +
           Tuple("t", a.fields).ToString() + " x" + std::to_string(a.mult) +
           "\n";
  }
  return out;
}

/// Reference semantics: one delta at a time through the planning API.
std::vector<TableAction> SerialApply(Table* t,
                                     const std::vector<DeltaRequest>& deltas) {
  std::vector<TableAction> out;
  for (const DeltaRequest& d : deltas) {
    std::vector<TableAction> actions = d.is_delete
                                           ? t->PlanDelete(d.fields, d.mult)
                                           : t->PlanInsert(d.fields, d.mult);
    for (const TableAction& a : actions) {
      t->Apply(a);
      out.push_back(a);
    }
  }
  return out;
}

/// Every secondary-index bucket row must be a live visible row, and every
/// visible row must be probeable through every index.
void ExpectIndexesConsistent(const Table& t) {
  for (size_t idx = 0; idx < t.num_indexes(); ++idx) {
    int id = static_cast<int>(idx);
    for (Table::RowHandle row : t.OrderedView()) {
      ValueList probe_key =
          Table::Project(t.IndexPositions(id), t.Deref(row).fields);
      const std::vector<Table::RowHandle>* rows = t.Probe(id, probe_key);
      ASSERT_NE(rows, nullptr);
      bool found = false;
      for (Table::RowHandle h : *rows) found |= (h == row);
      EXPECT_TRUE(found) << "row missing from index " << id;
    }
  }
}

struct BatchCase {
  const char* name;
  std::vector<DeltaRequest> deltas;
};

class ApplyBatchDirected : public ::testing::TestWithParam<bool> {};

TEST_P(ApplyBatchDirected, MixedInsertDeleteSameKeyInOneBatch) {
  ndlog::TableInfo info = GetParam() ? ReplacingInfo() : CountingInfo();
  std::vector<BatchCase> cases = {
      {"insert-then-delete",
       {{Row(1, 1, 1), 1, false}, {Row(1, 1, 1), 1, true}}},
      {"insert-delete-reinsert",
       {{Row(1, 1, 1), 2, false},
        {Row(1, 1, 1), 2, true},
        {Row(1, 1, 1), 1, false}}},
      {"delete-of-missing-then-insert",
       {{Row(9, 9, 9), 1, true}, {Row(9, 9, 9), 1, false}}},
      {"count-to-zero-retraction",
       {{Row(2, 2, 2), 3, false},
        {Row(2, 2, 2), 1, true},
        {Row(2, 2, 2), 2, true}}},
      {"key-replacement-chain",  // same key (0,1), three field variants
       {{Row(0, 1, 10), 1, false},
        {Row(0, 1, 20), 1, false},
        {Row(0, 1, 30), 1, false},
        {Row(0, 1, 30), 1, true}}},
      {"overdelete-clamps",
       {{Row(3, 3, 3), 1, false}, {Row(3, 3, 3), 5, true}}},
  };
  for (const BatchCase& c : cases) {
    Table serial(info);
    Table batched(info);
    serial.AddIndex({2});
    batched.AddIndex({2});
    std::vector<TableAction> ref = SerialApply(&serial, c.deltas);
    std::vector<TableAction> got;
    batched.ApplyBatch(c.deltas, &got);
    EXPECT_EQ(Dump(got), Dump(ref)) << c.name;
    EXPECT_EQ(Dump(batched), Dump(serial)) << c.name;
    EXPECT_EQ(batched.spurious_deletes(), serial.spurious_deletes()) << c.name;
    ExpectIndexesConsistent(batched);
  }
}

INSTANTIATE_TEST_SUITE_P(BothSemantics, ApplyBatchDirected,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("replacing")
                                             : std::string("counting");
                         });

TEST(ApplyBatchPropertyTest, RandomizedBatchesMatchSerialApplies) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (bool replacing : {false, true}) {
      Rng rng(seed + (replacing ? 100 : 0));
      ndlog::TableInfo info = replacing ? ReplacingInfo() : CountingInfo();
      Table serial(info);
      Table batched(info);
      serial.AddIndex({1});
      batched.AddIndex({1});
      serial.AddIndex({1, 2});
      batched.AddIndex({1, 2});
      // Small key domain so inserts, deletes, replacements, and repeats of
      // the same key collide within single batches.
      size_t step = 0;
      while (step < 300) {
        size_t batch = 1 + rng.NextBelow(9);
        std::vector<DeltaRequest> deltas;
        for (size_t i = 0; i < batch && step < 300; ++i, ++step) {
          DeltaRequest d;
          d.fields = Row(rng.NextInRange(0, 2), rng.NextInRange(0, 2),
                         rng.NextInRange(0, 3));
          d.mult = rng.NextInRange(1, 3);
          d.is_delete = rng.NextBool(0.45);
          deltas.push_back(std::move(d));
        }
        std::vector<TableAction> ref = SerialApply(&serial, deltas);
        std::vector<TableAction> got;
        batched.ApplyBatch(deltas, &got);
        ASSERT_EQ(Dump(got), Dump(ref)) << "seed " << seed << " step " << step;
        ASSERT_EQ(Dump(batched), Dump(serial))
            << "seed " << seed << " step " << step;
        ASSERT_EQ(batched.spurious_deletes(), serial.spurious_deletes());
        ExpectIndexesConsistent(batched);
      }
      EXPECT_GT(serial.spurious_deletes(), 0u);  // the sweep hit that path
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level soft state: FIFO eviction and lifetime expiry must pick the
// same victims in the same order whether deltas arrive one at a time
// (batch_size=1) or in batches.

CompiledProgramPtr SoftStateProgram(const char* decl) {
  Result<CompiledProgramPtr> prog = Compile(decl, NoProvenanceOptions());
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return prog.ok() ? *prog : nullptr;
}

std::string TableFingerprint(const Engine& engine, const std::string& table) {
  std::string out;
  for (const Tuple& t : engine.TableContents(table)) {
    out += t.ToString() + " x" + std::to_string(engine.CountOf(t)) + "\n";
  }
  return out;
}

TEST(SoftStateBatchEquivalenceTest, FifoEvictionOrderMatchesSerial) {
  // cache holds at most 3 rows; one flood event joins 6 item rows, so the
  // batched engine receives all 6 cache inserts as one DeltaBatch while the
  // serial engine evicts incrementally as each insert crosses the limit.
  // Victims and survivors must be identical.
  const char* src = R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(cache, infinity, 3, keys(1,2)).
    r1 cache(@X,I) :- flood(@X,N), item(@X,I).
  )";
  CompiledProgramPtr prog = SoftStateProgram(src);
  ASSERT_NE(prog, nullptr);
  auto run = [&](uint32_t batch_size, EngineStats* stats) {
    net::Simulator sim;
    sim.AddNode();
    EngineOptions opts;
    opts.batch_size = batch_size;
    Engine engine(&sim, 0, prog, opts);
    for (int64_t i = 1; i <= 6; ++i) {
      EXPECT_TRUE(
          engine.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    EXPECT_TRUE(
        engine.InsertEvent(Tuple("flood", {Value::Address(0), Value::Int(1)}))
            .ok());
    sim.Run();
    *stats = engine.stats();
    return TableFingerprint(engine, "cache");
  };
  EngineStats serial_stats, batched_stats;
  std::string serial = run(1, &serial_stats);
  std::string batched = run(64, &batched_stats);
  EXPECT_EQ(batched, serial);
  EXPECT_GT(serial_stats.evictions, 0u);
  EXPECT_EQ(batched_stats.evictions, serial_stats.evictions);
  EXPECT_EQ(batched_stats.expirations, serial_stats.expirations);
}

TEST(SoftStateBatchEquivalenceTest, FifoVictimReinsertedInSameBatchMatchesSerial) {
  // Regression: a burst that inserts a fresh key AND re-derives the current
  // FIFO victim. Per-delta processing evicts the victim at its pre-re-insert
  // count (the re-insert then survives with the remainder); a multi-tuple
  // batch epilogue would read the victim's post-batch count and over-evict.
  // The engine therefore drains soft-state tables in batches of one at
  // every batch_size — this pins that.
  const char* src = R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(cache, infinity, 2, keys(1,2)).
    r1 cache(@X,I) :- poke(@X,N), item(@X,I).
  )";
  CompiledProgramPtr prog = SoftStateProgram(src);
  ASSERT_NE(prog, nullptr);
  auto run = [&](uint32_t batch_size, EngineStats* stats) {
    net::Simulator sim;
    sim.AddNode();
    EngineOptions opts;
    opts.batch_size = batch_size;
    Engine engine(&sim, 0, prog, opts);
    // cache = {1 (FIFO-oldest), 2}, at max_size.
    for (int64_t i : {1, 2}) {
      EXPECT_TRUE(
          engine.Insert(Tuple("cache", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    // The broadcast join iterates items in sorted order, so the burst
    // derives cache(0) — evicting FIFO-oldest cache(1) at its current
    // count — and then re-derives cache(1) itself.
    for (int64_t i : {0, 1}) {
      EXPECT_TRUE(
          engine.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    EXPECT_TRUE(
        engine.InsertEvent(Tuple("poke", {Value::Address(0), Value::Int(1)}))
            .ok());
    sim.Run();
    *stats = engine.stats();
    return TableFingerprint(engine, "cache");
  };
  EngineStats serial_stats, batched_stats;
  std::string serial = run(1, &serial_stats);
  std::string batched = run(64, &batched_stats);
  EXPECT_EQ(batched, serial);
  EXPECT_GT(serial_stats.evictions, 0u);
  EXPECT_EQ(batched_stats.evictions, serial_stats.evictions);
  // Serial semantics: the victim was evicted at its pre-re-insert count,
  // so the re-derived cache(1) survives with one derivation.
  EXPECT_NE(serial.find("cache(@0,1) x1"), std::string::npos) << serial;
}

TEST(SoftStateBatchEquivalenceTest, LifetimeExpiryMatchesSerial) {
  // seen rows live 2 virtual seconds; a second ping mid-lifetime refreshes
  // every row's timer (invalidating the first generation), so the final
  // expiry wave must retract all rows in both modes at the refreshed time.
  const char* src = R"(
    materialize(item, infinity, infinity, keys(1,2)).
    materialize(seen, 2, infinity, keys(1,2)).
    r1 seen(@X,I) :- ping(@X,N), item(@X,I).
  )";
  CompiledProgramPtr prog = SoftStateProgram(src);
  ASSERT_NE(prog, nullptr);
  auto run = [&](uint32_t batch_size, EngineStats* stats) {
    net::Simulator sim;
    sim.AddNode();
    EngineOptions opts;
    opts.batch_size = batch_size;
    Engine engine(&sim, 0, prog, opts);
    for (int64_t i = 1; i <= 4; ++i) {
      EXPECT_TRUE(
          engine.Insert(Tuple("item", {Value::Address(0), Value::Int(i)}))
              .ok());
    }
    EXPECT_TRUE(
        engine.InsertEvent(Tuple("ping", {Value::Address(0), Value::Int(1)}))
            .ok());
    sim.RunFor(1 * net::kSecond);
    EXPECT_TRUE(
        engine.InsertEvent(Tuple("ping", {Value::Address(0), Value::Int(2)}))
            .ok());
    std::string mid = TableFingerprint(engine, "seen");
    sim.Run();
    *stats = engine.stats();
    return mid + "----\n" + TableFingerprint(engine, "seen");
  };
  EngineStats serial_stats, batched_stats;
  std::string serial = run(1, &serial_stats);
  std::string batched = run(64, &batched_stats);
  EXPECT_EQ(batched, serial);
  EXPECT_GT(serial_stats.expirations, 0u);
  EXPECT_EQ(batched_stats.expirations, serial_stats.expirations);
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
