#include "bench_e2e/oracles.h"

#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <utility>

namespace e2e {

using nettrails::Tuple;
using nettrails::net::Topology;

namespace {

struct Arc {
  NodeId to;
  int64_t cost;
};

std::vector<std::vector<Arc>> LiveAdjacency(const Topology& topo,
                                            const std::vector<bool>& down,
                                            int64_t dead) {
  std::vector<std::vector<Arc>> adj(topo.num_nodes);
  for (size_t i = 0; i < topo.links.size(); ++i) {
    const nettrails::net::CostedLink& l = topo.links[i];
    if (i < down.size() && down[i]) continue;
    if (static_cast<int64_t>(l.a) == dead ||
        static_cast<int64_t>(l.b) == dead) {
      continue;
    }
    adj[l.a].push_back({l.b, l.cost});
    adj[l.b].push_back({l.a, l.cost});
  }
  return adj;
}

std::string Describe(NodeId s, NodeId d, int64_t got, int64_t want) {
  auto show = [](int64_t c) {
    return c == kUnreachable ? std::string("none") : std::to_string(c);
  };
  return "mincost(@" + std::to_string(s) + ",@" + std::to_string(d) +
         "): engine " + show(got) + ", Dijkstra " + show(want);
}

// Reads a decimal integer at text[*pos], optionally preceded by '@'.
bool ReadNumber(const std::string& text, size_t* pos, bool allow_at,
                int64_t* out) {
  if (allow_at && *pos < text.size() && text[*pos] == '@') ++*pos;
  size_t start = *pos;
  bool negative = *pos < text.size() && text[*pos] == '-';
  if (negative) ++*pos;
  int64_t v = 0;
  while (*pos < text.size() && text[*pos] >= '0' && text[*pos] <= '9') {
    if (v > (std::numeric_limits<int64_t>::max() - 9) / 10) return false;
    v = v * 10 + (text[*pos] - '0');
    ++*pos;
  }
  if (*pos == start + (negative ? 1 : 0)) return false;
  *out = negative ? -v : v;
  return true;
}

}  // namespace

DistMatrix AllPairsLeastCost(const Topology& topo,
                             const std::vector<bool>& down, int64_t dead) {
  const size_t n = topo.num_nodes;
  std::vector<std::vector<Arc>> adj = LiveAdjacency(topo, down, dead);
  DistMatrix dist(n, std::vector<int64_t>(n, kUnreachable));
  using Entry = std::pair<int64_t, NodeId>;
  for (size_t s = 0; s < n; ++s) {
    if (static_cast<int64_t>(s) == dead) continue;
    std::vector<int64_t>& d = dist[s];
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
    d[s] = 0;
    pq.push({0, static_cast<NodeId>(s)});
    while (!pq.empty()) {
      auto [c, u] = pq.top();
      pq.pop();
      if (c != d[u]) continue;
      for (const Arc& a : adj[u]) {
        if (c + a.cost < d[a.to]) {
          d[a.to] = c + a.cost;
          pq.push({d[a.to], a.to});
        }
      }
    }
  }
  return dist;
}

bool Connected(const Topology& topo, const std::vector<bool>& down) {
  if (topo.num_nodes == 0) return true;
  std::vector<std::vector<Arc>> adj = LiveAdjacency(topo, down, -1);
  std::vector<bool> seen(topo.num_nodes, false);
  std::vector<NodeId> stack = {0};
  seen[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (const Arc& a : adj[u]) {
      if (!seen[a.to]) {
        seen[a.to] = true;
        ++reached;
        stack.push_back(a.to);
      }
    }
  }
  return reached == topo.num_nodes;
}

std::string CheckMincost(
    const std::vector<std::unique_ptr<nettrails::runtime::Engine>>& engines,
    const DistMatrix& dist, int64_t dead) {
  for (size_t s = 0; s < engines.size(); ++s) {
    if (static_cast<int64_t>(s) == dead) continue;
    std::vector<int64_t> got(engines.size(), kUnreachable);
    for (const Tuple& t : engines[s]->TableContents("mincost")) {
      if (t.arity() != 3 || !t.field(0).is_address() ||
          !t.field(1).is_address() || !t.field(2).is_int() ||
          t.field(0).as_address() != s ||
          t.field(1).as_address() >= engines.size()) {
        return "malformed row " + t.ToString() + " at node " +
               std::to_string(s);
      }
      NodeId d = t.field(1).as_address();
      if (got[d] != kUnreachable) {
        return "two mincost rows for (@" + std::to_string(s) + ",@" +
               std::to_string(d) + ")";
      }
      got[d] = t.field(2).as_int();
    }
    for (size_t d = 0; d < engines.size(); ++d) {
      int64_t want = d == s ? kUnreachable : dist[s][d];
      if (got[d] != want) {
        return Describe(static_cast<NodeId>(s), static_cast<NodeId>(d),
                        got[d], want);
      }
    }
  }
  return "";
}

bool ParseLinkTuple(const std::string& text, NodeId* a, NodeId* b,
                    int64_t* cost) {
  const std::string head = "link(@";
  if (text.compare(0, head.size(), head) != 0) return false;
  size_t pos = head.size();
  int64_t va = 0, vb = 0, vc = 0;
  if (!ReadNumber(text, &pos, false, &va)) return false;
  if (pos >= text.size() || text[pos++] != ',') return false;
  if (!ReadNumber(text, &pos, true, &vb)) return false;
  if (pos >= text.size() || text[pos++] != ',') return false;
  if (!ReadNumber(text, &pos, false, &vc)) return false;
  if (pos + 1 != text.size() || text[pos] != ')') return false;
  if (va < 0 || vb < 0 || va > UINT32_MAX || vb > UINT32_MAX) return false;
  *a = static_cast<NodeId>(va);
  *b = static_cast<NodeId>(vb);
  *cost = vc;
  return true;
}

std::string CheckQueryAnswer(const nettrails::query::QueryResult& answer,
                             NodeId home, const Topology& topo,
                             const std::vector<bool>& down) {
  using nettrails::query::QueryType;
  if (answer.truncated) return "answer truncated";
  switch (answer.type) {
    case QueryType::kLineage: {
      if (answer.leaf_tuples.empty()) return "lineage has no leaves";
      for (const std::string& leaf : answer.leaf_tuples) {
        NodeId a = 0, b = 0;
        int64_t cost = 0;
        if (!ParseLinkTuple(leaf, &a, &b, &cost)) {
          return "lineage leaf " + leaf + " is not a link";
        }
        bool live = false;
        for (size_t i = 0; i < topo.links.size() && !live; ++i) {
          const nettrails::net::CostedLink& l = topo.links[i];
          live = !(i < down.size() && down[i]) && l.cost == cost &&
                 ((l.a == a && l.b == b) || (l.a == b && l.b == a));
        }
        if (!live) return "lineage leaf " + leaf + " is not a live link";
      }
      return "";
    }
    case QueryType::kNodeSet:
      return answer.nodes.count(home) ? "" : "node set misses the home node";
    case QueryType::kDerivCount:
      return answer.count >= 1 ? "" : "derivation count below 1";
  }
  return "unknown query type";
}

std::vector<PrefixState> FinalPrefixStates(
    const std::vector<nettrails::bgp::TraceEvent>& trace) {
  std::map<nettrails::bgp::Prefix, PrefixState> last;
  for (const nettrails::bgp::TraceEvent& ev : trace) {
    last[ev.prefix] = {ev.prefix, ev.origin, !ev.withdraw};
  }
  std::vector<PrefixState> out;
  for (const auto& [prefix, state] : last) out.push_back(state);
  return out;
}

std::string CheckBgpRoutes(
    const nettrails::bgp::AsTopology& topo,
    const std::vector<std::unique_ptr<nettrails::bgp::Speaker>>& speakers,
    const std::vector<PrefixState>& prefixes) {
  std::set<std::pair<NodeId, NodeId>> adjacent;
  for (const nettrails::bgp::AsLink& l : topo.links) {
    adjacent.insert({l.a, l.b});
    adjacent.insert({l.b, l.a});
  }
  for (const PrefixState& p : prefixes) {
    const std::string where = " for prefix " + std::to_string(p.prefix);
    for (size_t x = 0; x < speakers.size(); ++x) {
      const NodeId as = static_cast<NodeId>(x);
      std::optional<nettrails::bgp::Route> best =
          speakers[x]->BestRoute(p.prefix);
      const std::string at = " at AS " + std::to_string(x) + where;
      if (!p.announced) {
        if (best) return "route survives withdrawal" + at;
        continue;
      }
      if (as == p.origin) {
        if (!best || !best->as_path.empty()) {
          return "origin lacks its local route" + at;
        }
        continue;
      }
      if (!best) continue;  // export policy may leave an AS without a route
      const std::vector<NodeId>& path = best->as_path;
      if (path.empty()) return "empty AS path" + at;
      if (path.back() != p.origin) return "path ends off the origin" + at;
      std::set<NodeId> seen = {as};
      NodeId prev = as;
      for (NodeId hop : path) {
        if (!seen.insert(hop).second) return "AS path loops" + at;
        if (!adjacent.count({prev, hop})) {
          return "AS path hop " + std::to_string(prev) + "->" +
                 std::to_string(hop) + " is not an AS link" + at;
        }
        prev = hop;
      }
    }
  }
  return "";
}

}  // namespace e2e
