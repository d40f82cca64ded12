#include "src/query/cache.h"

#include <gtest/gtest.h>

namespace nettrails {
namespace query {
namespace {

PartialResult SomeResult() {
  PartialResult r;
  r.count = 3;
  r.leaves.insert({42, 1});
  r.nodes.insert(1);
  return r;
}

TEST(CacheTest, MissThenHit) {
  ResultCache cache;
  CacheKey key{7, QueryType::kLineage, true, 0};
  EXPECT_EQ(cache.Lookup(key, 1), nullptr);
  cache.Store(key, 1, SomeResult());
  const PartialResult* hit = cache.Lookup(key, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->count, 3);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheTest, VersionMismatchInvalidates) {
  ResultCache cache;
  CacheKey key{7, QueryType::kLineage, true, 0};
  cache.Store(key, 1, SomeResult());
  EXPECT_EQ(cache.Lookup(key, 2), nullptr);  // provenance changed
  EXPECT_EQ(cache.size(), 0u);               // stale entry evicted
}

TEST(CacheTest, KeyDiscriminatesAllFields) {
  ResultCache cache;
  cache.Store({7, QueryType::kLineage, true, 0}, 1, SomeResult());
  EXPECT_EQ(cache.Lookup({8, QueryType::kLineage, true, 0}, 1), nullptr);
  EXPECT_EQ(cache.Lookup({7, QueryType::kDerivCount, true, 0}, 1), nullptr);
  EXPECT_EQ(cache.Lookup({7, QueryType::kLineage, false, 0}, 1), nullptr);
  EXPECT_EQ(cache.Lookup({7, QueryType::kLineage, true, 5}, 1), nullptr);
  EXPECT_EQ(cache.Lookup({7, QueryType::kLineage, true, 0, 9}, 1), nullptr);
  EXPECT_NE(cache.Lookup({7, QueryType::kLineage, true, 0}, 1), nullptr);
}

// Regression: CacheKey used to omit the remaining traversal depth, so a
// result computed by a shallow query (max_depth=5) was served verbatim to a
// later deep query (max_depth=200) at the same provenance version.
TEST(CacheTest, DepthDiscriminatesEntries) {
  ResultCache cache;
  CacheKey shallow{7, QueryType::kDerivCount, true, 0, 5};
  CacheKey deep{7, QueryType::kDerivCount, true, 0, 200};
  cache.Store(shallow, 1, SomeResult());
  EXPECT_EQ(cache.Lookup(deep, 1), nullptr);
  EXPECT_NE(cache.Lookup(shallow, 1), nullptr);
}

// Regression: truncated results are budget artifacts of the traversal that
// produced them, not properties of the provenance graph; caching one would
// silently under-report to every later query with the same key.
TEST(CacheTest, StoreRefusesTruncatedResults) {
  ResultCache cache;
  CacheKey key{7, QueryType::kDerivCount, true, 0, 5};
  PartialResult r = SomeResult();
  r.truncated = true;
  cache.Store(key, 1, r);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(key, 1), nullptr);
}

TEST(CacheTest, ClearDropsEverything) {
  ResultCache cache;
  cache.Store({1, QueryType::kLineage, true, 0}, 1, SomeResult());
  cache.Store({2, QueryType::kLineage, true, 0}, 1, SomeResult());
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup({1, QueryType::kLineage, true, 0}, 1), nullptr);
}

// Regression: Clear() dropped the entries but kept the hit/miss counters,
// so stats straddling a Clear() conflated two unrelated measurement windows.
TEST(CacheTest, ClearResetsCounters) {
  ResultCache cache;
  CacheKey key{1, QueryType::kLineage, true, 0};
  cache.Store(key, 1, SomeResult());
  EXPECT_NE(cache.Lookup(key, 1), nullptr);
  EXPECT_EQ(cache.Lookup({2, QueryType::kLineage, true, 0}, 1), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

// Regression: stale-version entries for keys that were never looked up
// again used to accumulate forever, so the map grew without bound under
// churn+query cycles. A version advance now sweeps the whole cache (all
// entries share one version domain), bounding the size by the number of
// distinct keys queried since the last provenance change.
TEST(CacheTest, SizeBoundedUnderChurnQueryCycles) {
  ResultCache cache;
  for (uint64_t version = 1; version <= 100; ++version) {
    // Each "epoch" queries three fresh vids (distinct keys every round, as
    // churn produces new tuples), misses, and caches the results.
    for (Vid vid = version * 10; vid < version * 10 + 3; ++vid) {
      CacheKey key{vid, QueryType::kDerivCount, true, 0, 8};
      if (cache.Lookup(key, version) == nullptr) {
        cache.Store(key, version, SomeResult());
      }
    }
    EXPECT_LE(cache.size(), 3u) << "at version " << version;
  }
}

// A Store carrying a version older than one the cache has already observed
// (a producer that resolved before churn landed) must not resurrect stale
// data after the sweep.
TEST(CacheTest, StaleVersionStoreIsDropped) {
  ResultCache cache;
  CacheKey key{7, QueryType::kLineage, true, 0};
  EXPECT_EQ(cache.Lookup(key, 5), nullptr);  // observes version 5
  cache.Store(key, 3, SomeResult());         // raced an older version
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(key, 5), nullptr);
}

TEST(CacheTest, PartialResultMergeStructure) {
  PartialResult a = SomeResult();
  PartialResult b;
  b.count = 10;
  b.leaves.insert({43, 2});
  b.nodes.insert(2);
  b.truncated = true;
  a.MergeStructure(b);
  EXPECT_EQ(a.leaves.size(), 2u);
  EXPECT_EQ(a.nodes.size(), 2u);
  EXPECT_TRUE(a.truncated);
  // MergeStructure never combines counts: the fold owner picks sum (tuple
  // vertex alternatives) or product (exec vertex joint inputs).
  EXPECT_EQ(a.count, 3);
}

TEST(CacheTest, StoreOverwrites) {
  ResultCache cache;
  CacheKey key{7, QueryType::kLineage, true, 0};
  cache.Store(key, 1, SomeResult());
  PartialResult other;
  other.count = 99;
  cache.Store(key, 1, other);
  EXPECT_EQ(cache.Lookup(key, 1)->count, 99);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace query
}  // namespace nettrails
