#include "src/query/query_engine.h"

#include <cassert>

#include "src/runtime/builtins.h"

namespace nettrails {
namespace query {

namespace {

using runtime::ValueToVid;
using runtime::VidToValue;

constexpr char kRequestTuple[] = "provReq";
constexpr char kReplyTuple[] = "provRep";

/// Shared fan-out driver: resolves a list of children sequentially or in
/// parallel and combines results by sum (tuple vertices: alternative
/// derivations) or product (execution vertices: joint inputs).
struct Fanout : std::enable_shared_from_this<Fanout> {
  PartialResult acc;
  bool product = false;
  QueryOptions opts;
  size_t next_child = 0;
  size_t outstanding = 0;
  bool finished = false;
  std::vector<std::function<void(QueryService::Done)>> children;
  QueryService::Done done;

  void Combine(const PartialResult& child) {
    // Count accumulation is owned here, not by MergeStructure: tuple
    // vertices sum alternative derivations, exec vertices multiply joint
    // inputs.
    if (product) {
      acc.count *= child.count;
    } else {
      acc.count += child.count;
    }
    acc.MergeStructure(child);
  }

  bool ShouldPrune() const {
    return !product && opts.type == QueryType::kDerivCount &&
           opts.count_threshold > 0 && acc.count >= opts.count_threshold;
  }

  void Finish() {
    if (finished) return;
    finished = true;
    done(acc);
  }

  void RunSequential() {
    if (ShouldPrune()) {
      acc.truncated = true;
      Finish();
      return;
    }
    if (next_child >= children.size()) {
      Finish();
      return;
    }
    size_t i = next_child++;
    auto self = shared_from_this();
    children[i]([self](const PartialResult& r) {
      self->Combine(r);
      self->RunSequential();
    });
  }

  void RunParallel() {
    if (children.empty()) {
      Finish();
      return;
    }
    outstanding = children.size();
    auto self = shared_from_this();
    // Issue all children; completions may be synchronous.
    for (auto& child : children) {
      child([self](const PartialResult& r) {
        self->Combine(r);
        if (--self->outstanding == 0) self->Finish();
      });
    }
  }

  void Run() {
    if (opts.traversal == Traversal::kSequential) {
      RunSequential();
    } else {
      RunParallel();
    }
  }
};

Value EncodePath(const std::set<Vid>& path) {
  ValueList xs;
  xs.reserve(path.size());
  for (Vid v : path) xs.push_back(VidToValue(v));
  return Value::List(std::move(xs));
}

std::set<Vid> DecodePath(const Value& v) {
  std::set<Vid> out;
  if (v.is_list()) {
    for (const Value& x : v.as_list()) out.insert(ValueToVid(x));
  }
  return out;
}

}  // namespace

QueryService::QueryService(net::Simulator* sim, runtime::Engine* engine,
                           const provenance::ProvStore* store,
                           const uint64_t* network_version)
    : sim_(sim),
      engine_(engine),
      store_(store),
      network_version_(network_version) {
  channel_ = sim_->InternChannel(kProvQueryChannel);
  sim_->RegisterHandler(engine_->id(), kProvQueryChannel,
                        [this](const net::Message& msg) { OnMessage(msg); });
}

void QueryService::ResolveTuple(uint64_t qid, const QueryOptions& opts,
                                Vid vid, uint32_t depth, std::set<Vid> path,
                                Done done) {
  if (depth == 0 || path.count(vid)) {
    PartialResult r;
    r.truncated = true;
    done(r);
    return;
  }

  // Per-query memo (DAG sharing within one traversal).
  MemoEntry& memo = memo_[qid][vid];
  if (memo.complete) {
    done(memo.result);
    return;
  }
  if (!memo.waiters.empty()) {
    memo.waiters.push_back(std::move(done));
    return;
  }
  memo.waiters.push_back(std::move(done));

  // Cross-query cache, validated against the provenance version. The
  // remaining depth is part of the key: a result computed under a tight
  // budget must not be served to a traversal arriving with a deeper one.
  CacheKey key{vid, opts.type, opts.include_maybe, opts.count_threshold,
               depth};
  const uint64_t version = *network_version_;
  if (opts.use_cache) {
    if (const PartialResult* hit = cache_.Lookup(key, version)) {
      MemoEntry& m = memo_[qid][vid];
      m.complete = true;
      m.result = *hit;
      for (Done& w : m.waiters) w(m.result);
      m.waiters.clear();
      return;
    }
  }

  auto fan = std::make_shared<Fanout>();
  fan->opts = opts;
  fan->product = false;
  fan->acc.nodes.insert(node());

  bool leaf_contribution = false;
  std::vector<provenance::ProvEdge> child_edges;
  store_->EdgesFor(vid, [&](const provenance::ProvEdge& e) {
    if (e.IsSelf(vid)) {
      leaf_contribution = true;
    } else if (!e.maybe || opts.include_maybe) {
      child_edges.push_back(e);
    }
  });
  // No usable derivation (including the case where every edge was a maybe
  // edge excluded by the query): the tuple is an unexplained leaf.
  if (child_edges.empty()) leaf_contribution = true;
  if (leaf_contribution) {
    fan->acc.count += 1;
    fan->acc.leaves.insert({vid, node()});
  }

  path.insert(vid);
  for (const provenance::ProvEdge& e : child_edges) {
    fan->children.push_back([this, qid, opts, e, depth, path](Done d) {
      ResolveExecAt(qid, opts, e.rid, e.rloc, depth - 1, path, std::move(d));
    });
  }

  fan->done = [this, qid, vid, key, version, opts](const PartialResult& r) {
    if (opts.use_cache) cache_.Store(key, version, r);  // refuses truncated
    auto& per_query = memo_[qid];
    std::vector<Done> waiters = std::move(per_query[vid].waiters);
    per_query[vid].waiters.clear();
    if (r.truncated) {
      // A truncated result reflects the depth/pruning budget of the branch
      // that computed it, not the vertex itself. Memoizing it as complete
      // would serve the undercount to later branches reaching this vertex
      // with more remaining depth (multi-parent derivations), so drop the
      // entry and let them recompute under their own budget. Waiters that
      // piled up while this resolution was in flight (parallel traversal)
      // still receive this result — they arrived under the same in-flight
      // budget and re-resolving them here could recurse forever.
      per_query.erase(vid);
      for (Done& w : waiters) w(r);
      return;
    }
    MemoEntry& m = per_query[vid];
    m.complete = true;
    m.result = r;
    for (Done& w : waiters) w(m.result);
  };
  fan->Run();
}

void QueryService::ResolveExecAt(uint64_t qid, const QueryOptions& opts,
                                 Vid rid, NodeId rloc, uint32_t depth,
                                 const std::set<Vid>& path, Done done) {
  if (rloc == node()) {
    ResolveExec(qid, opts, rid, depth, path, std::move(done));
    return;
  }
  int64_t token = next_token_++;
  pending_[token] = std::move(done);
  Tuple req(kRequestTuple,
            {Value::Address(rloc), Value::Int(static_cast<int64_t>(qid)),
             Value::Int(token), VidToValue(rid),
             Value::Int(static_cast<int64_t>(opts.type)),
             Value::Int(static_cast<int64_t>(opts.traversal)),
             Value::Int(opts.count_threshold), Value::Bool(opts.use_cache),
             Value::Bool(opts.include_maybe),
             Value::Int(static_cast<int64_t>(depth)), EncodePath(path),
             Value::Address(node())});
  net::Message msg;
  msg.src = node();
  msg.dst = rloc;
  msg.channel = channel_;
  msg.payload = std::move(req);
  sim_->Send(std::move(msg));
}

void QueryService::ResolveExec(uint64_t qid, const QueryOptions& opts, Vid rid,
                               uint32_t depth, const std::set<Vid>& path,
                               Done done) {
  const std::optional<provenance::ExecEntry> exec = store_->ExecFor(rid);
  if (!exec || depth == 0) {
    PartialResult r;
    r.truncated = true;
    done(r);
    return;
  }
  auto fan = std::make_shared<Fanout>();
  fan->opts = opts;
  fan->product = true;
  fan->acc.count = 1;
  fan->acc.nodes.insert(node());
  for (Vid input : exec->inputs) {
    fan->children.push_back([this, qid, opts, input, depth, path](Done d) {
      ResolveTuple(qid, opts, input, depth - 1, path, std::move(d));
    });
  }
  fan->done = std::move(done);
  fan->Run();
}

void QueryService::OnMessage(const net::Message& msg) {
  if (msg.payload.name() == kRequestTuple) {
    HandleRequest(msg.payload);
  } else if (msg.payload.name() == kReplyTuple) {
    HandleReply(msg.payload);
  }
}

void QueryService::HandleRequest(const Tuple& req) {
  if (req.arity() != 12) return;
  ++remote_requests_served_;
  uint64_t qid = static_cast<uint64_t>(req.field(1).as_int());
  int64_t token = req.field(2).as_int();
  Vid rid = ValueToVid(req.field(3));
  QueryOptions opts;
  opts.type = static_cast<QueryType>(req.field(4).as_int());
  opts.traversal = static_cast<Traversal>(req.field(5).as_int());
  opts.count_threshold = req.field(6).as_int();
  opts.use_cache = req.field(7).Truthy();
  opts.include_maybe = req.field(8).Truthy();
  uint32_t depth = static_cast<uint32_t>(req.field(9).as_int());
  std::set<Vid> path = DecodePath(req.field(10));
  NodeId reply_to = req.field(11).as_address();

  ResolveExec(qid, opts, rid, depth, path,
              [this, reply_to, token](const PartialResult& r) {
                SendReply(reply_to, token, r);
              });
}

void QueryService::SendReply(NodeId dst, int64_t token,
                             const PartialResult& result) {
  ValueList leaves;
  for (const auto& [vid, loc] : result.leaves) {
    leaves.push_back(
        Value::List({VidToValue(vid), Value::Address(loc)}));
  }
  ValueList nodes;
  for (NodeId n : result.nodes) nodes.push_back(Value::Address(n));
  Tuple rep(kReplyTuple,
            {Value::Address(dst), Value::Int(token), Value::Int(result.count),
             Value::List(std::move(leaves)), Value::List(std::move(nodes)),
             Value::Bool(result.truncated)});
  net::Message msg;
  msg.src = node();
  msg.dst = dst;
  msg.channel = channel_;
  msg.payload = std::move(rep);
  sim_->Send(std::move(msg));
}

void QueryService::HandleReply(const Tuple& rep) {
  if (rep.arity() != 6) return;
  int64_t token = rep.field(1).as_int();
  auto it = pending_.find(token);
  if (it == pending_.end()) return;
  Done done = std::move(it->second);
  pending_.erase(it);

  PartialResult result;
  result.count = rep.field(2).as_int();
  if (rep.field(3).is_list()) {
    for (const Value& v : rep.field(3).as_list()) {
      if (v.is_list() && v.as_list().size() == 2) {
        result.leaves.insert(
            {ValueToVid(v.as_list()[0]), v.as_list()[1].as_address()});
      }
    }
  }
  if (rep.field(4).is_list()) {
    for (const Value& v : rep.field(4).as_list()) {
      if (v.is_address()) result.nodes.insert(v.as_address());
    }
  }
  result.truncated = rep.field(5).Truthy();
  done(result);
}

void QueryService::ClearQuery(uint64_t qid) { memo_.erase(qid); }

ProvenanceQuerier::ProvenanceQuerier(net::Simulator* sim,
                                     std::vector<runtime::Engine*> engines)
    : sim_(sim), engines_(std::move(engines)) {
  sim_->MarkOverlayChannel(kProvQueryChannel);
  for (size_t i = 0; i < engines_.size(); ++i) {
    assert(engines_[i]->id() == i && "engines must be ordered by node id");
    stores_.push_back(std::make_unique<provenance::ProvStore>(engines_[i]));
    services_.push_back(std::make_unique<QueryService>(
        sim_, engines_[i], stores_[i].get(), &network_version_));
  }
}

Result<QueryResult> ProvenanceQuerier::Query(const Tuple& tuple,
                                             const QueryOptions& opts) {
  if (!tuple.HasLocation()) {
    return Status::InvalidArgument("tuple " + tuple.ToString() +
                                   " has no location attribute");
  }
  return QueryVid(tuple.Location(), tuple.Hash(), opts);
}

Result<QueryResult> ProvenanceQuerier::QueryVid(NodeId home, Vid vid,
                                                const QueryOptions& opts) {
  if (home >= services_.size()) {
    return Status::InvalidArgument("unknown home node " +
                                   std::to_string(home));
  }
  // A cached subtree's answer depends on provenance held at other nodes
  // too, so every node's cache validates against the whole network's
  // version: any change anywhere invalidates every cached answer. Summed
  // once per query — per vertex lookup it would cost more than the lookup.
  // A real deployment would propagate invalidations along the provenance
  // edges instead; here the querier can see every node.
  network_version_ = 0;
  for (const auto* e : engines_) network_version_ += e->provenance_version();
  uint64_t qid = next_qid_++;
  net::Time start = sim_->now();
  const net::ChannelId ch = sim_->InternChannel(kProvQueryChannel);
  net::TrafficStats before = sim_->channel_traffic(ch);

  bool done = false;
  PartialResult partial;
  services_[home]->ResolveTuple(qid, opts, vid, opts.max_depth, {},
                                [&](const PartialResult& r) {
                                  partial = r;
                                  done = true;
                                });
  sim_->Run();
  for (auto& service : services_) service->ClearQuery(qid);
  if (!done) {
    return Status::RuntimeError("provenance query did not complete (lost "
                                "messages or partitioned overlay)");
  }

  QueryResult result;
  result.type = opts.type;
  result.count = partial.count;
  result.nodes = partial.nodes;
  result.truncated = partial.truncated;
  for (const auto& [leaf_vid, loc] : partial.leaves) {
    result.leaf_vids.push_back(leaf_vid);
    result.leaf_tuples.push_back(RenderVid(leaf_vid));
  }
  result.latency = sim_->now() - start;
  net::TrafficStats after = sim_->channel_traffic(ch);
  result.messages = after.messages - before.messages;
  result.bytes = after.bytes - before.bytes;
  return result;
}

std::string ProvenanceQuerier::RenderVid(Vid vid) const {
  for (const runtime::Engine* engine : engines_) {
    if (const Tuple* t = engine->FindTupleByVid(vid)) return t->ToString();
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "vid:%016llx",
                static_cast<unsigned long long>(vid));
  return buf;
}

uint64_t ProvenanceQuerier::total_cache_hits() const {
  uint64_t total = 0;
  for (const auto& s : services_) {
    total += const_cast<QueryService&>(*s).cache().hits();
  }
  return total;
}

uint64_t ProvenanceQuerier::total_cache_misses() const {
  uint64_t total = 0;
  for (const auto& s : services_) {
    total += const_cast<QueryService&>(*s).cache().misses();
  }
  return total;
}

void ProvenanceQuerier::ClearCaches() {
  for (auto& s : services_) s->cache().Clear();
}

}  // namespace query
}  // namespace nettrails
