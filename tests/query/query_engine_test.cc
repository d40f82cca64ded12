#include "src/query/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/proxy/proxy.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace query {
namespace {

// Path-vector over a 4-node line: every tuple has exactly one derivation,
// so derivation counts are predictable.
class QueryLineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<runtime::CompiledProgramPtr> prog =
        runtime::Compile(protocols::PathVectorProgram());
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    topo_ = net::MakeLine(4, 1);
    engines_ = protocols::MakeEngines(&sim_, topo_, *prog);
    querier_ = std::make_unique<ProvenanceQuerier>(
        &sim_, protocols::EnginePtrs(engines_));
    ASSERT_TRUE(protocols::InstallLinks(topo_, &engines_, &sim_).ok());
  }

  Tuple PathTuple(NodeId x, NodeId z, int64_t c,
                  std::vector<NodeId> hops) {
    ValueList p;
    for (NodeId h : hops) p.push_back(Value::Address(h));
    return Tuple("path", {Value::Address(x), Value::Address(z), Value::Int(c),
                          Value::List(std::move(p))});
  }

  net::Simulator sim_;
  net::Topology topo_;
  std::vector<std::unique_ptr<runtime::Engine>> engines_;
  std::unique_ptr<ProvenanceQuerier> querier_;
};

TEST_F(QueryLineTest, LineageOfMultiHopPath) {
  Tuple target = PathTuple(0, 3, 3, {0, 1, 2, 3});
  ASSERT_TRUE(engines_[0]->HasTuple(target));
  QueryOptions opts;
  opts.type = QueryType::kLineage;
  Result<QueryResult> r = querier_->Query(target, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Lineage: the three link tuples along the path (each link(@X,Y,...) and
  // its reversed link_d derivation share the link base tuple).
  EXPECT_EQ(r->leaf_tuples.size(), 3u);
  for (const std::string& leaf : r->leaf_tuples) {
    EXPECT_EQ(leaf.rfind("link(", 0), 0u) << leaf;
  }
}

TEST_F(QueryLineTest, LineageOfDirectPathIsOneLink) {
  Tuple target = PathTuple(0, 1, 1, {0, 1});
  QueryOptions opts;
  opts.type = QueryType::kLineage;
  Result<QueryResult> r = querier_->Query(target, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->leaf_tuples.size(), 1u);
  EXPECT_EQ(r->leaf_tuples[0], "link(@0,@1,1)");
}

TEST_F(QueryLineTest, NodeSetCoversPath) {
  Tuple target = PathTuple(0, 3, 3, {0, 1, 2, 3});
  QueryOptions opts;
  opts.type = QueryType::kNodeSet;
  Result<QueryResult> r = querier_->Query(target, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // All nodes along the derivation chain participated (3 does not: its
  // link tuple lives at 2's side... node 3 hosts link(@3,2) only for the
  // reverse path). At minimum nodes 0..2 must appear.
  EXPECT_TRUE(r->nodes.count(0));
  EXPECT_TRUE(r->nodes.count(1));
  EXPECT_TRUE(r->nodes.count(2));
}

TEST_F(QueryLineTest, DerivCountOnLineIsOne) {
  Tuple target = PathTuple(0, 3, 3, {0, 1, 2, 3});
  QueryOptions opts;
  opts.type = QueryType::kDerivCount;
  Result<QueryResult> r = querier_->Query(target, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 1);
}

TEST_F(QueryLineTest, BaseTupleLineageIsItself) {
  Tuple link("link", {Value::Address(1), Value::Address(2), Value::Int(1)});
  QueryOptions opts;
  opts.type = QueryType::kLineage;
  Result<QueryResult> r = querier_->Query(link, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->leaf_tuples.size(), 1u);
  EXPECT_EQ(r->leaf_tuples[0], "link(@1,@2,1)");
  EXPECT_EQ(r->count, 1);
}

TEST_F(QueryLineTest, RemoteTraversalSendsMessages) {
  Tuple target = PathTuple(0, 3, 3, {0, 1, 2, 3});
  QueryOptions opts;
  opts.type = QueryType::kLineage;
  opts.use_cache = false;
  Result<QueryResult> r = querier_->Query(target, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->messages, 0u);
  EXPECT_GT(r->bytes, 0u);
  EXPECT_GT(r->latency, 0u);
}

TEST_F(QueryLineTest, CachingReducesTrafficOnRepeatedQueries) {
  Tuple target = PathTuple(0, 3, 3, {0, 1, 2, 3});
  QueryOptions opts;
  opts.type = QueryType::kLineage;
  opts.use_cache = true;
  Result<QueryResult> first = querier_->Query(target, opts);
  ASSERT_TRUE(first.ok());
  Result<QueryResult> second = querier_->Query(target, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->messages, first->messages);
  EXPECT_EQ(second->leaf_tuples.size(), first->leaf_tuples.size());
  EXPECT_GT(querier_->total_cache_hits(), 0u);
}

TEST_F(QueryLineTest, CacheDisabledKeepsTrafficFlat) {
  Tuple target = PathTuple(0, 3, 3, {0, 1, 2, 3});
  QueryOptions opts;
  opts.type = QueryType::kLineage;
  opts.use_cache = false;
  Result<QueryResult> first = querier_->Query(target, opts);
  Result<QueryResult> second = querier_->Query(target, opts);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->messages, first->messages);
}

TEST_F(QueryLineTest, CacheInvalidatedByProvenanceChange) {
  Tuple target = PathTuple(0, 3, 3, {0, 1, 2, 3});
  QueryOptions opts;
  opts.type = QueryType::kLineage;
  Result<QueryResult> first = querier_->Query(target, opts);
  ASSERT_TRUE(first.ok());
  // Topology change: add a link at node 2; its provenance version bumps.
  sim_.AddLink(2, 0, net::kMillisecond);
  ASSERT_TRUE(protocols::RecoverLink(2, 0, 10, &engines_, &sim_).ok());
  Result<QueryResult> second = querier_->Query(target, opts);
  ASSERT_TRUE(second.ok());
  // Same leaves (the new link does not support this path tuple).
  EXPECT_EQ(second->leaf_tuples.size(), first->leaf_tuples.size());
}

TEST_F(QueryLineTest, SequentialAndParallelAgree) {
  Tuple target = PathTuple(0, 3, 3, {0, 1, 2, 3});
  for (QueryType type :
       {QueryType::kLineage, QueryType::kNodeSet, QueryType::kDerivCount}) {
    QueryOptions seq;
    seq.type = type;
    seq.traversal = Traversal::kSequential;
    seq.use_cache = false;
    QueryOptions par;
    par.type = type;
    par.traversal = Traversal::kParallel;
    par.use_cache = false;
    Result<QueryResult> a = querier_->Query(target, seq);
    Result<QueryResult> b = querier_->Query(target, par);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->count, b->count);
    EXPECT_EQ(a->leaf_tuples, b->leaf_tuples);
    EXPECT_EQ(a->nodes, b->nodes);
  }
}

TEST_F(QueryLineTest, UnknownVidIsLeaf) {
  QueryOptions opts;
  opts.type = QueryType::kDerivCount;
  Result<QueryResult> r = querier_->QueryVid(0, 999999, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->count, 1);  // treated as an unexplained base fact
}

TEST_F(QueryLineTest, InvalidHomeRejected) {
  QueryOptions opts;
  EXPECT_FALSE(querier_->QueryVid(99, 1, opts).ok());
  EXPECT_FALSE(querier_->Query(Tuple("x", {Value::Int(1)}), opts).ok());
}

// A diamond: two parallel two-hop routes 0->1->3 and 0->2->3 of equal cost
// produce two alternative derivations of bestcost-selected paths, and
// multiple derivations for derived reach-style tuples.
class QueryDiamondTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<runtime::CompiledProgramPtr> prog = runtime::Compile(R"(
      materialize(link, infinity, infinity, keys(1,2)).
      materialize(conn, infinity, infinity, keys(1,2)).
      c1 conn(@X,Y) :- link(@X,Y,C).
      c2 conn(@X,Z) :- link(@X,Y,C), conn(@Y,Z), X != Z.
    )");
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    // Diamond edges (directed inserts only: 0->1, 0->2, 1->3, 2->3 with the
    // link tuples inserted at the source only, so derivations stay acyclic).
    sim_.AddNode();
    sim_.AddNode();
    sim_.AddNode();
    sim_.AddNode();
    sim_.AddLink(0, 1);
    sim_.AddLink(0, 2);
    sim_.AddLink(1, 3);
    sim_.AddLink(2, 3);
    for (NodeId i = 0; i < 4; ++i) {
      engines_.push_back(std::make_unique<runtime::Engine>(&sim_, i, *prog));
    }
    querier_ = std::make_unique<ProvenanceQuerier>(
        &sim_, protocols::EnginePtrs(engines_));
    auto link = [](NodeId a, NodeId b) {
      return Tuple("link",
                   {Value::Address(a), Value::Address(b), Value::Int(1)});
    };
    ASSERT_TRUE(engines_[0]->Insert(link(0, 1)).ok());
    ASSERT_TRUE(engines_[0]->Insert(link(0, 2)).ok());
    ASSERT_TRUE(engines_[1]->Insert(link(1, 3)).ok());
    ASSERT_TRUE(engines_[2]->Insert(link(2, 3)).ok());
    sim_.Run();
  }

  net::Simulator sim_;
  std::vector<std::unique_ptr<runtime::Engine>> engines_;
  std::unique_ptr<ProvenanceQuerier> querier_;
};

TEST_F(QueryDiamondTest, CountsAlternativeDerivations) {
  Tuple conn("conn", {Value::Address(0), Value::Address(3)});
  ASSERT_TRUE(engines_[0]->HasTuple(conn));
  EXPECT_EQ(engines_[0]->CountOf(conn), 2);
  QueryOptions opts;
  opts.type = QueryType::kDerivCount;
  opts.use_cache = false;
  Result<QueryResult> r = querier_->Query(conn, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 2);
}

TEST_F(QueryDiamondTest, LineageUnionsBothBranches) {
  Tuple conn("conn", {Value::Address(0), Value::Address(3)});
  QueryOptions opts;
  opts.type = QueryType::kLineage;
  Result<QueryResult> r = querier_->Query(conn, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->leaf_tuples.size(), 4u);  // all four links contribute
}

TEST_F(QueryDiamondTest, ThresholdPruningStopsEarly) {
  Tuple conn("conn", {Value::Address(0), Value::Address(3)});
  QueryOptions unpruned;
  unpruned.type = QueryType::kDerivCount;
  unpruned.traversal = Traversal::kSequential;
  unpruned.use_cache = false;
  Result<QueryResult> full = querier_->Query(conn, unpruned);
  ASSERT_TRUE(full.ok());

  QueryOptions pruned = unpruned;
  pruned.count_threshold = 1;
  Result<QueryResult> cheap = querier_->Query(conn, pruned);
  ASSERT_TRUE(cheap.ok());
  EXPECT_GE(cheap->count, 1);
  EXPECT_TRUE(cheap->truncated);
  EXPECT_LT(cheap->messages, full->messages);
}

// A "kite": chain 0->1->2->3 plus shortcut 0->2, so conn(@0,3) has two
// derivations that SHARE the sub-derivation conn(@2,3) — a long chain
// through node 1 and a short one over the shortcut. The shortcut link's
// latency is raised so the long-chain derivation reaches node 0 first,
// pinning the provenance edge order (long before short) that the
// depth-budget regression below depends on.
class QueryKiteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<runtime::CompiledProgramPtr> prog = runtime::Compile(R"(
      materialize(link, infinity, infinity, keys(1,2)).
      materialize(conn, infinity, infinity, keys(1,2)).
      c1 conn(@X,Y) :- link(@X,Y,C).
      c2 conn(@X,Z) :- link(@X,Y,C), conn(@Y,Z), X != Z.
    )");
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    sim_.AddNode();
    sim_.AddNode();
    sim_.AddNode();
    sim_.AddNode();
    sim_.AddLink(0, 1);
    sim_.AddLink(1, 2);
    sim_.AddLink(2, 3);
    sim_.AddLink(0, 2, 5 * net::kMillisecond);  // slow shortcut
    for (NodeId i = 0; i < 4; ++i) {
      engines_.push_back(std::make_unique<runtime::Engine>(&sim_, i, *prog));
    }
    querier_ = std::make_unique<ProvenanceQuerier>(
        &sim_, protocols::EnginePtrs(engines_));
    auto link = [](NodeId a, NodeId b) {
      return Tuple("link",
                   {Value::Address(a), Value::Address(b), Value::Int(1)});
    };
    ASSERT_TRUE(engines_[0]->Insert(link(0, 1)).ok());
    ASSERT_TRUE(engines_[1]->Insert(link(1, 2)).ok());
    ASSERT_TRUE(engines_[2]->Insert(link(2, 3)).ok());
    ASSERT_TRUE(engines_[0]->Insert(link(0, 2)).ok());
    sim_.Run();
  }

  net::Simulator sim_;
  std::vector<std::unique_ptr<runtime::Engine>> engines_;
  std::unique_ptr<ProvenanceQuerier> querier_;
};

// Regression for the per-query memo: resolving the long branch first
// exhausts the depth budget partway down, truncating the shared conn(@2,3)
// subtree (0 derivations found there). Memoizing that truncated result as
// complete used to serve the undercount to the short branch — which arrives
// with enough remaining budget to resolve conn(@2,3) fully — collapsing the
// derivation count for conn(@0,3) to 0.
TEST_F(QueryKiteTest, DepthBudgetedCountRecomputesSharedSubtree) {
  Tuple conn("conn", {Value::Address(0), Value::Address(3)});
  ASSERT_TRUE(engines_[0]->HasTuple(conn));
  ASSERT_EQ(engines_[0]->CountOf(conn), 2);

  QueryOptions opts;
  opts.type = QueryType::kDerivCount;
  opts.traversal = Traversal::kSequential;
  opts.use_cache = false;

  // Sanity: with ample depth both derivations are counted.
  Result<QueryResult> full = querier_->Query(conn, opts);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->count, 2);
  EXPECT_FALSE(full->truncated);

  // Budget chosen so the long branch truncates inside conn(@2,3)'s subtree
  // while the short branch, two levels higher, can still resolve it fully:
  // the correct answer is exactly the short branch's derivation.
  opts.max_depth = 6;
  Result<QueryResult> r = querier_->Query(conn, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->truncated);
  EXPECT_EQ(r->count, 1);
}

TEST_F(QueryDiamondTest, DepthLimitTruncates) {
  Tuple conn("conn", {Value::Address(0), Value::Address(3)});
  QueryOptions opts;
  opts.type = QueryType::kLineage;
  opts.max_depth = 2;
  opts.use_cache = false;
  Result<QueryResult> r = querier_->Query(conn, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
}

// A cached subtree's answer depends on provenance held at other nodes, so a
// node must not validate its cache against its own provenance alone: a
// change elsewhere in the network would leave its cached answers stale.
// MINCOST on Abilene, one pass flapping every link; after each event, every
// mincost tuple is queried with the cache on and off, for all three query
// types, and the answers must agree.
TEST(QueryCacheStalenessTest, CachedAnswersMatchUncachedAcrossLinkFlaps) {
  Result<net::Topology> topo = net::LoadTopologyFile(
      std::string(NETTRAILS_SOURCE_DIR) + "/examples/topologies/abilene.topo");
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  Result<runtime::CompiledProgramPtr> prog =
      runtime::Compile(protocols::MincostProgram());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  net::Simulator sim;
  auto engines = protocols::MakeEngines(&sim, *topo, *prog);
  ProvenanceQuerier querier(&sim, protocols::EnginePtrs(engines));
  ASSERT_TRUE(protocols::InstallLinks(*topo, &engines, &sim).ok());

  auto render = [](const QueryResult& r) {
    std::string out = "count=" + std::to_string(r.count) + " leaves=";
    std::vector<Vid> leaves = r.leaf_vids;
    std::sort(leaves.begin(), leaves.end());
    for (Vid v : leaves) out += std::to_string(v) + ",";
    out += " nodes=";
    for (NodeId n : r.nodes) out += std::to_string(n) + ",";
    return out + (r.truncated ? " truncated" : "");
  };
  size_t event = 0;
  auto check_all = [&] {
    for (const auto& engine : engines) {
      for (const Tuple& t : engine->TableContents("mincost")) {
        for (QueryType type : {QueryType::kLineage, QueryType::kNodeSet,
                               QueryType::kDerivCount}) {
          QueryOptions cached;
          cached.type = type;
          QueryOptions uncached = cached;
          uncached.use_cache = false;
          Result<QueryResult> hit = querier.Query(t, cached);
          Result<QueryResult> fresh = querier.Query(t, uncached);
          ASSERT_TRUE(hit.ok()) << hit.status().ToString();
          ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
          EXPECT_EQ(render(*hit), render(*fresh))
              << "event " << event << ", " << t.ToString() << ", type "
              << static_cast<int>(type);
        }
      }
    }
  };
  check_all();  // fills every node's cache at the converged state
  for (const net::CostedLink& l : topo->links) {
    ASSERT_TRUE(protocols::FailLink(l.a, l.b, l.cost, &engines, &sim).ok());
    ++event;
    check_all();
    ASSERT_TRUE(
        protocols::RecoverLink(l.a, l.b, l.cost, &engines, &sim).ok());
    ++event;
    check_all();
  }
  EXPECT_GT(querier.total_cache_hits(), 0u);
}

}  // namespace
}  // namespace query
}  // namespace nettrails
