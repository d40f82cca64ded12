// The ExSPAN distributed provenance query engine. Query execution performs
// a traversal of the provenance graph in a distributed fashion: a query for
// tuple T starts at T's home node, expands prov edges to rule-execution
// vertices (possibly on other nodes, reached over the "provq" overlay
// channel), recursively resolves the execution's input tuples, and folds
// results back along the reverse path. Supported optimizations (Section
// 2.2): result caching, alternative traversal orders (sequential vs
// parallel child resolution), and threshold-based pruning for derivation
// counting.
#ifndef NETTRAILS_QUERY_QUERY_ENGINE_H_
#define NETTRAILS_QUERY_QUERY_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/tuple.h"
#include "src/net/simulator.h"
#include "src/provenance/store.h"
#include "src/query/cache.h"
#include "src/runtime/engine.h"

namespace nettrails {
namespace query {

/// The overlay channel provenance queries travel on.
inline constexpr char kProvQueryChannel[] = "provq";

struct QueryOptions {
  QueryType type = QueryType::kLineage;
  Traversal traversal = Traversal::kParallel;
  /// For kDerivCount with kSequential traversal: stop expanding a vertex
  /// once its accumulated count reaches the threshold (the reported count
  /// becomes a lower bound). 0 disables pruning.
  int64_t count_threshold = 0;
  bool use_cache = true;
  /// Traverse maybe edges (inferred legacy-application dependencies).
  bool include_maybe = true;
  uint32_t max_depth = 200;
};

/// Completed query, with the measured cost of answering it.
struct QueryResult {
  QueryType type = QueryType::kLineage;
  int64_t count = 0;
  std::vector<Vid> leaf_vids;
  std::vector<std::string> leaf_tuples;  // rendered base/event tuples
  std::set<NodeId> nodes;
  bool truncated = false;
  net::Time latency = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

/// Per-node query processor. Handles remote rule-execution resolution
/// requests and drives local recursive resolution with memoization.
class QueryService {
 public:
  using Done = std::function<void(const PartialResult&)>;

  /// `network_version` is the provenance version the result cache validates
  /// against; the owning ProvenanceQuerier sets it before each query.
  QueryService(net::Simulator* sim, runtime::Engine* engine,
               const provenance::ProvStore* store,
               const uint64_t* network_version);

  NodeId node() const { return engine_->id(); }

  /// Resolves the provenance subtree rooted at local tuple `vid`.
  /// `path` carries the tuple VIDs on the current branch (cycle guard).
  void ResolveTuple(uint64_t qid, const QueryOptions& opts, Vid vid,
                    uint32_t depth, std::set<Vid> path, Done done);

  /// Drops per-query memoization state.
  void ClearQuery(uint64_t qid);

  ResultCache& cache() { return cache_; }
  uint64_t remote_requests_served() const { return remote_requests_served_; }

 private:
  struct MemoEntry {
    bool complete = false;
    PartialResult result;
    std::vector<Done> waiters;
  };

  void ResolveExec(uint64_t qid, const QueryOptions& opts, Vid rid,
                   uint32_t depth, const std::set<Vid>& path, Done done);
  void ResolveExecAt(uint64_t qid, const QueryOptions& opts, Vid rid,
                     NodeId rloc, uint32_t depth, const std::set<Vid>& path,
                     Done done);
  void OnMessage(const net::Message& msg);
  void HandleRequest(const Tuple& req);
  void HandleReply(const Tuple& rep);
  void SendReply(NodeId dst, int64_t token, const PartialResult& result);

  net::Simulator* sim_;
  runtime::Engine* engine_;
  const provenance::ProvStore* store_;
  const uint64_t* network_version_;
  /// Interned kProvQueryChannel id, resolved once at construction.
  net::ChannelId channel_ = 0;
  ResultCache cache_;

  std::unordered_map<uint64_t, std::unordered_map<Vid, MemoEntry>> memo_;
  std::unordered_map<int64_t, Done> pending_;  // token -> continuation
  int64_t next_token_ = 1;
  uint64_t remote_requests_served_ = 0;
};

/// Client-side facade: owns a ProvStore and QueryService per node, issues
/// queries, runs the simulator to completion, and assembles QueryResults
/// with rendered leaf tuples and measured traffic. The stores are views
/// over the engines' tables, so a node restored from a checkpoint needs no
/// re-attach: its engine's provenance version advances, which invalidates
/// every cached answer.
class ProvenanceQuerier {
 public:
  /// `engines[i]` must be the engine of node i.
  ProvenanceQuerier(net::Simulator* sim,
                    std::vector<runtime::Engine*> engines);

  /// Queries the provenance of `tuple` (homed at its location attribute).
  Result<QueryResult> Query(const Tuple& tuple, const QueryOptions& opts = {});

  /// Queries by VID for historical or remote-known vertices.
  Result<QueryResult> QueryVid(NodeId home, Vid vid, const QueryOptions& opts);

  /// Renders a VID via the nodes' tuple indexes ("vid:<hex>" if unknown).
  std::string RenderVid(Vid vid) const;

  provenance::ProvStore* store(NodeId id) { return stores_[id].get(); }
  QueryService* service(NodeId id) { return services_[id].get(); }
  size_t node_count() const { return services_.size(); }

  /// Aggregate cache statistics across all nodes.
  uint64_t total_cache_hits() const;
  uint64_t total_cache_misses() const;
  void ClearCaches();

 private:
  net::Simulator* sim_;
  std::vector<runtime::Engine*> engines_;
  std::vector<std::unique_ptr<provenance::ProvStore>> stores_;
  std::vector<std::unique_ptr<QueryService>> services_;
  /// Sum of every engine's provenance version, taken once per query and
  /// read by every node's cache during it (see QueryVid).
  uint64_t network_version_ = 0;
  uint64_t next_qid_ = 1;
};

}  // namespace query
}  // namespace nettrails

#endif  // NETTRAILS_QUERY_QUERY_ENGINE_H_
