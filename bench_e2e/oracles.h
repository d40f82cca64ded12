// Answer checks for the end-to-end benchmark. None of them reuses engine
// evaluation code: shortest paths come from a plain Dijkstra over the
// benchmark's own model of which links are up, lineage leaves are checked
// by parsing their rendered text, and BGP routes are checked against the
// AS adjacency the trace generator produced.
#ifndef NETTRAILS_BENCH_E2E_ORACLES_H_
#define NETTRAILS_BENCH_E2E_ORACLES_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/bgp/speaker.h"
#include "src/bgp/tracegen.h"
#include "src/net/topology.h"
#include "src/query/query_engine.h"
#include "src/runtime/engine.h"

namespace e2e {

using nettrails::NodeId;

inline constexpr int64_t kUnreachable = std::numeric_limits<int64_t>::max();

/// dist[s][d]: least total cost from s to d, kUnreachable if none.
using DistMatrix = std::vector<std::vector<int64_t>>;

/// All-pairs least costs over `topo.links` minus those with `down[i]` set,
/// with node `dead` (if any) removed.
DistMatrix AllPairsLeastCost(const nettrails::net::Topology& topo,
                             const std::vector<bool>& down,
                             int64_t dead = -1);

/// True if every live node reaches every other over the live links.
bool Connected(const nettrails::net::Topology& topo,
               const std::vector<bool>& down);

/// Compares every node's `mincost` rows with `dist`: one row per reachable
/// destination other than the node itself, carrying exactly that cost.
/// Node `dead` (if any) is skipped. Returns "" on agreement, otherwise the
/// first difference.
std::string CheckMincost(
    const std::vector<std::unique_ptr<nettrails::runtime::Engine>>& engines,
    const DistMatrix& dist, int64_t dead = -1);

/// Parses a rendered base tuple "link(@a,b,c)" (b may be rendered "@b").
bool ParseLinkTuple(const std::string& text, NodeId* a, NodeId* b,
                    int64_t* cost);

/// Checks one provenance query answer for the tuple homed at `home`: not
/// truncated; a lineage names at least one leaf and every leaf is a link
/// that is up in `topo`/`down`; a node set contains `home`; a derivation
/// count is at least 1. Returns "" or the first problem.
std::string CheckQueryAnswer(const nettrails::query::QueryResult& answer,
                             NodeId home,
                             const nettrails::net::Topology& topo,
                             const std::vector<bool>& down);

/// What the trace left each prefix as: its origin and whether it is still
/// announced.
struct PrefixState {
  nettrails::bgp::Prefix prefix = 0;
  NodeId origin = 0;
  bool announced = false;
};

std::vector<PrefixState> FinalPrefixStates(
    const std::vector<nettrails::bgp::TraceEvent>& trace);

/// Every announced prefix: the origin holds its local route, and every
/// other best route is a loop-free AS path over real AS links that ends at
/// the origin. Every withdrawn prefix: no AS holds a route. Returns "" or
/// the first violation.
std::string CheckBgpRoutes(
    const nettrails::bgp::AsTopology& topo,
    const std::vector<std::unique_ptr<nettrails::bgp::Speaker>>& speakers,
    const std::vector<PrefixState>& prefixes);

}  // namespace e2e

#endif  // NETTRAILS_BENCH_E2E_ORACLES_H_
