#include "src/protocols/programs.h"

namespace nettrails {
namespace protocols {

const char* MincostProgram() {
  return R"(
    // MINCOST: pair-wise minimal path costs (Figures 2 and 3 of the paper).
    // The C < 255 bound is the distance-vector "infinity" (RIP counts to
    // 16): it bounds the count-to-infinity transient when link failures
    // partition the network. Topologies must keep true path costs below it.
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2)).

    mc1 cost(@X,Y,C) :- link(@X,Y,C).
    mc2 cost(@X,Z,C) :- link(@X,Y,C1), mincost(@Y,Z,C2), X != Z,
                        C := C1 + C2, C < 255.
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
  )";
}

const char* PathVectorProgram() {
  return R"(
    // Path-vector protocol with loop avoidance and best-path selection.
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(path, infinity, infinity, keys(1,2,3,4)).
    materialize(bestcost, infinity, infinity, keys(1,2)).
    materialize(bestpath, infinity, infinity, keys(1,2,3,4)).

    pv1 path(@X,Y,C,P) :- link(@X,Y,C), P := f_list(X,Y).
    pv2 path(@X,Z,C,P) :- link(@X,Y,C1), path(@Y,Z,C2,P2),
                          f_member(P2,X) == 0, C := C1 + C2,
                          P := f_prepend(X,P2).
    pv3 bestcost(@X,Z,a_min<C>) :- path(@X,Z,C,P).
    pv4 bestpath(@X,Z,C,P) :- bestcost(@X,Z,C), path(@X,Z,C,P).
  )";
}

const char* DsrProgram() {
  return R"(
    // Dynamic source routing: on-demand route discovery. Route requests
    // (rreq) flood outward accumulating the traversed path; when a node
    // adjacent to the destination completes the path, a route reply (rrep)
    // relays back hop-by-hop along the reverse source route (as in DSR:
    // replies follow the accumulated route, not a direct channel).
    //
    // dr3 ships rrep to f_nth(P, I-1) — the previous hop of the recorded
    // route rather than a link neighbor the linter can prove, so the
    // link-restriction lint is suppressed for this file. The route was
    // built hop-by-hop over real links by dr1, which is exactly the
    // invariant ND303 cannot see through a computed address.
    // ndlint: allow(ND303)
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(route, infinity, infinity, keys(1,2)).

    dr1 rreq(@Y,S,D,P2) :- rreq(@X,S,D,P), link(@X,Y,C),
                           Y != D, f_member(P,Y) == 0,
                           P2 := f_append(P,Y).
    dr2 rrep(@X,S,D,P2) :- rreq(@X,S,D,P), link(@X,D,C),
                           f_member(P,D) == 0, P2 := f_append(P,D).
    dr3 rrep(@Prev,S,D,P) :- rrep(@X,S,D,P), X != S,
                             I := f_indexof(P,X), Prev := f_nth(P,I-1).
    dr4 route(@S,D,P) :- rrep(@S,S,D,P).
  )";
}

const char* LinkStateProgram() {
  return R"(
    // Link-state (OSPF-style). ls1 originates an LSA for each adjacent
    // link; ls2 floods LSAs to every neighbor, recording the traversed
    // nodes so each LSA crosses a node at most once per loop-free flood
    // path (bag-semantics-safe termination, standing in for OSPF's
    // sequence-number duplicate suppression). ls3 projects the flood into
    // the node's link-state database; ls4-ls6 are the local SPF: a
    // Bellman-Ford relaxation over the *local* database routed through the
    // a_min aggregate, with the same C < 255 distance-vector bound MINCOST
    // uses to cut the retraction transient when churn partitions the
    // topology. Unlike MINCOST, no SPF messages cross the wire — only
    // LSAs do, exactly the link-state/distance-vector split.
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(lsa, infinity, infinity, keys(1,2,3,4,5)).
    materialize(lsdb, infinity, infinity, keys(1,2,3,4)).
    materialize(spfdist, infinity, infinity, keys(1,2,3)).
    materialize(spf, infinity, infinity, keys(1,2)).

    ls1 lsa(@X,X,Y,C,P) :- link(@X,Y,C), P := f_list(X).
    ls2 lsa(@Z,S,D,C,P2) :- lsa(@X,S,D,C,P), link(@X,Z,C2),
                            f_member(P,Z) == 0, P2 := f_append(P,Z).
    ls3 lsdb(@N,S,D,C) :- lsa(@N,S,D,C,P).
    ls4 spfdist(@N,D,C) :- lsdb(@N,N,D,C).
    ls5 spfdist(@N,D,C) :- spf(@N,Z,C1), lsdb(@N,Z,D,C2), D != N,
                           C := C1 + C2, C < 255.
    ls6 spf(@N,D,a_min<C>) :- spfdist(@N,D,C).
  )";
}

const char* BgpMaybeProgram() {
  return R"(
    // Legacy-application support (Section 2.2): the proxy extracts
    // inputRoute / outputRoute tuples from intercepted BGP messages; the
    // maybe rule br1 captures the likely causal relationship between them.
    materialize(inputRoute, infinity, infinity, keys(1,2,3)).
    materialize(outputRoute, infinity, infinity, keys(1,2,3)).

    br1 outputRoute(@AS,R2,Prefix,Route2) ?-
        inputRoute(@AS,R1,Prefix,Route1),
        f_isExtend(Route2,Route1,AS) == 1.
  )";
}

std::vector<std::unique_ptr<runtime::Engine>> MakeEngines(
    net::Simulator* sim, const net::Topology& topo,
    runtime::CompiledProgramPtr program, const runtime::EngineOptions& opts) {
  topo.Install(sim);
  std::vector<std::unique_ptr<runtime::Engine>> engines;
  engines.reserve(topo.num_nodes);
  for (size_t i = 0; i < topo.num_nodes; ++i) {
    engines.push_back(std::make_unique<runtime::Engine>(
        sim, static_cast<NodeId>(i), program, opts));
  }
  return engines;
}

std::vector<runtime::Engine*> EnginePtrs(
    const std::vector<std::unique_ptr<runtime::Engine>>& engines) {
  std::vector<runtime::Engine*> out;
  out.reserve(engines.size());
  for (const auto& e : engines) out.push_back(e.get());
  return out;
}

namespace {

Tuple LinkTuple(NodeId a, NodeId b, int64_t cost) {
  return Tuple("link",
               {Value::Address(a), Value::Address(b), Value::Int(cost)});
}

}  // namespace

Status InstallLinks(const net::Topology& topo,
                    std::vector<std::unique_ptr<runtime::Engine>>* engines,
                    net::Simulator* sim, bool run_to_quiescence) {
  for (const net::CostedLink& l : topo.links) {
    NT_RETURN_IF_ERROR((*engines)[l.a]->Insert(LinkTuple(l.a, l.b, l.cost)));
    NT_RETURN_IF_ERROR((*engines)[l.b]->Insert(LinkTuple(l.b, l.a, l.cost)));
  }
  if (run_to_quiescence) sim->Run();
  return Status::OK();
}

Status FailLink(NodeId a, NodeId b, int64_t cost,
                std::vector<std::unique_ptr<runtime::Engine>>* engines,
                net::Simulator* sim, bool run_to_quiescence) {
  NT_RETURN_IF_ERROR((*engines)[a]->Delete(LinkTuple(a, b, cost)));
  NT_RETURN_IF_ERROR((*engines)[b]->Delete(LinkTuple(b, a, cost)));
  if (run_to_quiescence) sim->Run();
  return Status::OK();
}

Status RecoverLink(NodeId a, NodeId b, int64_t cost,
                   std::vector<std::unique_ptr<runtime::Engine>>* engines,
                   net::Simulator* sim, bool run_to_quiescence) {
  NT_RETURN_IF_ERROR((*engines)[a]->Insert(LinkTuple(a, b, cost)));
  NT_RETURN_IF_ERROR((*engines)[b]->Insert(LinkTuple(b, a, cost)));
  if (run_to_quiescence) sim->Run();
  return Status::OK();
}

Status CrashNode(NodeId v, const net::Topology& topo,
                 std::vector<std::unique_ptr<runtime::Engine>>* engines,
                 net::Simulator* sim, bool run_to_quiescence) {
  // Physical takedown first: from here on every frame to or from v is
  // swallowed (counted as a fault drop), so nothing the dying node had in
  // flight reaches the survivors after this point.
  NT_RETURN_IF_ERROR(sim->SetNodeUp(v, false));
  (*engines)[v]->HaltForCrash();
  for (const net::CostedLink& l : topo.links) {
    if (l.a == v) {
      NT_RETURN_IF_ERROR((*engines)[l.b]->Delete(LinkTuple(l.b, v, l.cost)));
    } else if (l.b == v) {
      NT_RETURN_IF_ERROR((*engines)[l.a]->Delete(LinkTuple(l.a, v, l.cost)));
    }
  }
  // Survivors evict every derivation grounded at the dead node: its rule
  // executions no longer exist, and any retraction it would have shipped is
  // lost. The cascades route the protocol around the crash; retractions
  // bound for v are swallowed by the simulator. This also keeps the
  // restarted node's later re-announcements from double-counting against
  // stale copies.
  for (size_t u = 0; u < engines->size(); ++u) {
    if (static_cast<NodeId>(u) == v) continue;
    (*engines)[u]->DropDerivationsFrom(v);
  }
  if (run_to_quiescence) sim->Run();
  return Status::OK();
}

Status RestartNode(NodeId v, const runtime::EngineCheckpoint& ckpt,
                   const net::Topology& topo,
                   std::vector<std::unique_ptr<runtime::Engine>>* engines,
                   net::Simulator* sim,
                   const std::function<void(NodeId)>& on_restored,
                   bool run_to_quiescence) {
  NT_RETURN_IF_ERROR(sim->SetNodeUp(v, true));
  runtime::Engine* engine = (*engines)[v].get();
  engine->RestoreCheckpoint(ckpt);
  if (on_restored) on_restored(v);
  // Retract the restored remote-grounded share: v missed every retraction
  // addressed to it while down, so rows whose derivations executed on other
  // nodes may no longer be held by those nodes. The re-announcement below
  // re-derives whatever is still true.
  engine->DropRemoteDerivations();
  // Cycle the links on both endpoints: the Delete scrubs v's restored
  // local derivations rooted at each link (and their exports), the
  // re-Inserts trigger fresh derivation and re-announcement from both
  // sides, re-converging v and its neighbors.
  for (const net::CostedLink& l : topo.links) {
    NodeId u;
    if (l.a == v) {
      u = l.b;
    } else if (l.b == v) {
      u = l.a;
    } else {
      continue;
    }
    // A cold restart (empty or pre-boot checkpoint) restores no link
    // bases; there is nothing to scrub, only the re-announce half applies.
    if (engine->HasTuple(LinkTuple(v, u, l.cost))) {
      NT_RETURN_IF_ERROR(engine->Delete(LinkTuple(v, u, l.cost)));
    }
    NT_RETURN_IF_ERROR(engine->Insert(LinkTuple(v, u, l.cost)));
    NT_RETURN_IF_ERROR((*engines)[u]->Insert(LinkTuple(u, v, l.cost)));
  }
  if (run_to_quiescence) sim->Run();
  return Status::OK();
}

Status StartDsrDiscovery(runtime::Engine* engine, NodeId src, NodeId dst) {
  return engine->InsertEvent(
      Tuple("rreq", {Value::Address(src), Value::Address(src),
                     Value::Address(dst),
                     Value::List({Value::Address(src)})}));
}

}  // namespace protocols
}  // namespace nettrails
