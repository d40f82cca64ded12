// Property-based provenance invariants, swept over protocols and
// topologies with parameterized tests:
//   I1. Every visible derived tuple has at least one provenance edge, and
//       its derivation count matches the tuple's stored count.
//   I2. Every prov edge points to a resolvable rule execution whose inputs
//       are (or were) known tuples.
//   I3. Lineage queries bottom out exclusively in base tuples.
//   I4. The derivation-count query equals the engine's stored count for
//       counting tables.
//   I5. After deleting all base tuples, all derived state and all
//       provenance is retracted.
#include <gtest/gtest.h>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/provenance/rewrite.h"
#include "src/query/query_engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace {

struct SweepParam {
  const char* name;
  const char* program;
  // Topology generator (kind + size) kept simple for value-param printing.
  enum Kind { kLine, kRing, kChords, kRandom } kind;
  size_t n;
  uint64_t seed;
  // Table whose derivation closure contains no aggregates (exact-count
  // check); nullptr skips the check. Aggregate vertices count each winning
  // contribution as a derivation, so exact equality with the stored bag
  // count only holds aggregate-free.
  const char* exact_count_table = nullptr;
};

net::Topology MakeTopo(const SweepParam& p) {
  switch (p.kind) {
    case SweepParam::kLine:
      return net::MakeLine(p.n, 1);
    case SweepParam::kRing:
      return net::MakeRing(p.n, 1);
    case SweepParam::kChords:
      return net::MakeRingWithChords(p.n, 1, 2);
    case SweepParam::kRandom: {
      Rng rng(p.seed);
      return net::MakeRandomConnected(p.n, 0.15, &rng);
    }
  }
  return net::MakeLine(2, 1);
}

class ProvenanceInvariants : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    Result<runtime::CompiledProgramPtr> prog =
        runtime::Compile(GetParam().program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    prog_ = *prog;
    topo_ = MakeTopo(GetParam());
    engines_ = protocols::MakeEngines(&sim_, topo_, prog_);
    querier_ = std::make_unique<query::ProvenanceQuerier>(
        &sim_, protocols::EnginePtrs(engines_));
    ASSERT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_).ok());
    for (const auto& e : engines_) {
      ASSERT_FALSE(e->overflowed()) << e->last_error();
    }
  }

  bool IsUserTable(const std::string& name) {
    return !provenance::IsProvenancePredicate(name) &&
           name.rfind("_d") != name.size() - 2;
  }

  // Derived (non-base) user tables of the program.
  std::vector<std::string> DerivedTables() {
    std::vector<std::string> out;
    for (const auto& [name, info] : prog_->tables) {
      if (info.materialized && !info.is_base &&
          !provenance::IsProvenancePredicate(name)) {
        out.push_back(name);
      }
    }
    return out;
  }

  runtime::CompiledProgramPtr prog_;
  net::Simulator sim_;
  net::Topology topo_;
  std::vector<std::unique_ptr<runtime::Engine>> engines_;
  std::unique_ptr<query::ProvenanceQuerier> querier_;
};

TEST_P(ProvenanceInvariants, DerivedTuplesHaveProvenanceEdges) {
  size_t checked = 0;
  for (const auto& engine : engines_) {
    provenance::ProvStore* store = querier_->store(engine->id());
    for (const std::string& table : DerivedTables()) {
      for (const Tuple& t : engine->TableContents(table)) {
        size_t edges = 0;
        int64_t total = 0;
        store->EdgesFor(t.Hash(), [&](const provenance::ProvEdge& e) {
          ++edges;
          total += e.count;
        });
        ASSERT_GT(edges, 0u) << t.ToString();
        // I1: for counting tables, edge multiplicity sums to the tuple's
        // derivation count. (Aggregate outputs keep one stored tuple but
        // one edge per winning contribution, so only >= 1 is required.)
        const ndlog::TableInfo* info = prog_->FindTable(table);
        if (info != nullptr && info->KeysCoverAllFields()) {
          EXPECT_EQ(total, engine->CountOf(t)) << t.ToString();
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(ProvenanceInvariants, EdgesResolveToKnownExecutions) {
  for (const auto& engine : engines_) {
    provenance::ProvStore* store = querier_->store(engine->id());
    for (Vid vid : store->AllVids()) {
      store->EdgesFor(vid, [&](const provenance::ProvEdge& e) {
        if (e.IsSelf(vid)) return;
        const std::optional<provenance::ExecEntry> exec =
            querier_->store(e.rloc)->ExecFor(e.rid);
        ASSERT_TRUE(exec.has_value()) << "dangling exec edge";
        EXPECT_FALSE(exec->rule.empty());
        // I2: inputs are known tuples at the executing node.
        for (Vid input : exec->inputs) {
          EXPECT_NE(engines_[e.rloc]->FindTupleByVid(input), nullptr);
        }
      });
    }
  }
}

TEST_P(ProvenanceInvariants, LineageBottomsOutInBaseTuples) {
  // Sample a handful of derived tuples per node.
  query::QueryOptions opts;
  opts.type = query::QueryType::kLineage;
  size_t queried = 0;
  for (const auto& engine : engines_) {
    for (const std::string& table : DerivedTables()) {
      std::vector<Tuple> tuples = engine->TableContents(table);
      if (tuples.empty()) continue;
      const Tuple& t = tuples[tuples.size() / 2];
      Result<query::QueryResult> r = querier_->Query(t, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r->leaf_tuples.empty()) << t.ToString();
      for (const std::string& leaf : r->leaf_tuples) {
        // I3: all leaves are base (link) tuples for the routing protocols.
        EXPECT_EQ(leaf.rfind("link(", 0), 0u)
            << "non-base leaf " << leaf << " for " << t.ToString();
      }
      ++queried;
      if (queried > 8) return;  // bounded work per sweep point
    }
  }
}

TEST_P(ProvenanceInvariants, CountQueryMatchesStoredCounts) {
  if (GetParam().exact_count_table == nullptr) {
    GTEST_SKIP() << "no aggregate-free table for this program";
  }
  const std::string table = GetParam().exact_count_table;
  query::QueryOptions opts;
  opts.type = query::QueryType::kDerivCount;
  opts.use_cache = false;
  size_t queried = 0;
  for (const auto& engine : engines_) {
    for (const Tuple& t : engine->TableContents(table)) {
      Result<query::QueryResult> r = querier_->Query(t, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->count, engine->CountOf(t)) << t.ToString();
      if (++queried > 12) return;
    }
  }
}

TEST_P(ProvenanceInvariants, FullTeardownRetractsEverything) {
  // I5: delete every link tuple; all derived state and provenance vanish.
  for (const net::CostedLink& l : topo_.links) {
    ASSERT_TRUE(protocols::FailLink(l.a, l.b, l.cost, &engines_, &sim_,
                                    /*run_to_quiescence=*/false)
                    .ok());
  }
  sim_.Run();
  for (const auto& engine : engines_) {
    ASSERT_FALSE(engine->overflowed()) << engine->last_error();
    for (const auto& [name, info] : prog_->tables) {
      if (!info.materialized) continue;
      EXPECT_EQ(engine->TableContents(name).size(), 0u)
          << "node " << engine->id() << " table " << name << " not empty";
    }
    provenance::ProvStore* store = querier_->store(engine->id());
    EXPECT_EQ(store->edge_count(), 0u);
    EXPECT_EQ(store->exec_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MincostSweep, ProvenanceInvariants,
    ::testing::Values(
        SweepParam{"line4", protocols::MincostProgram(), SweepParam::kLine, 4,
                   0},
        SweepParam{"ring5", protocols::MincostProgram(), SweepParam::kRing, 5,
                   0},
        SweepParam{"chords6", protocols::MincostProgram(),
                   SweepParam::kChords, 6, 0},
        SweepParam{"rand8a", protocols::MincostProgram(), SweepParam::kRandom,
                   8, 11},
        SweepParam{"rand8b", protocols::MincostProgram(), SweepParam::kRandom,
                   8, 22}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string("mincost_") + info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    PathVectorSweep, ProvenanceInvariants,
    ::testing::Values(
        SweepParam{"line4", protocols::PathVectorProgram(), SweepParam::kLine,
                   4, 0, "path"},
        SweepParam{"ring5", protocols::PathVectorProgram(), SweepParam::kRing,
                   5, 0, "path"},
        SweepParam{"chords6", protocols::PathVectorProgram(),
                   SweepParam::kChords, 6, 0, "path"},
        SweepParam{"rand7", protocols::PathVectorProgram(),
                   SweepParam::kRandom, 7, 33, "path"}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string("pv_") + info.param.name;
    });

}  // namespace
}  // namespace nettrails
