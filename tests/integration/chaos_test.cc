// Seeded chaos suite: convergence oracles under deterministic fault
// injection, across protocols × batch sizes × thread counts.
//
// Three oracles, matched to what each fault class can perturb:
//
//  1. Healed-equality — timing faults (delay jitter, cross-flow reorder)
//     never change delta *content*: per-flow FIFO is clamped, every frame
//     is delivered exactly once. A run whose schedule healed by time T must
//     therefore reach the exact fault-free fixpoint: same tables, same
//     derivation counts, same aggregates, same canonical provenance.
//  2. Loss-determinism — drop/duplicate faults on the tuple channel DO
//     corrupt bag-semantics state (a dropped retraction is simply gone), so
//     fault-free equality cannot hold. The oracle is bit-identical replay:
//     for a fixed (seed, batch) the full system fingerprint — including
//     every simulator counter — must match at any thread count, and the
//     per-channel conservation invariant must hold at quiescence.
//  3. Crash+recovery — a node crash with checkpoint restore plus neighbor
//     re-announcement must reconverge to the state of a world that never
//     crashed (including churn the crashed node missed), with no orphaned
//     provenance: every live tuple keeps at least one reachable derivation
//     whose rule execution and inputs resolve.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/provenance/rewrite.h"
#include "src/provenance/store.h"
#include "src/query/query_engine.h"
#include "src/runtime/engine.h"
#include "src/runtime/plan.h"

namespace nettrails {
namespace {

/// MINCOST with the distance-vector "infinity" lowered to 24: bounds the
/// count-to-infinity transient when faults or crashes partition the
/// topology (same rationale as the batch-equivalence suite).
const char* kBoundedMincost = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(cost, infinity, infinity, keys(1,2,3)).
    materialize(mincost, infinity, infinity, keys(1,2)).
    mc1 cost(@X,Y,C) :- link(@X,Y,C).
    mc2 cost(@X,Z,C) :- link(@X,Y,C1), mincost(@Y,Z,C2), X != Z,
                        C := C1 + C2, C < 24.
    mc3 mincost(@X,Z,a_min<C>) :- cost(@X,Z,C).
)";

struct Protocol {
  const char* name;
  const char* program;      // nullptr: resolved by name at runtime
  const char* route_table;  // routing table probed by the crash test
};

const Protocol kProtocols[] = {
    {"mincost", kBoundedMincost, "mincost"},
    {"pathvector", nullptr, "bestpath"},
    {"linkstate", nullptr, "spf"},
};

const char* ProgramText(const Protocol& p) {
  if (p.program != nullptr) return p.program;
  return std::string(p.name) == "linkstate" ? protocols::LinkStateProgram()
                                            : protocols::PathVectorProgram();
}

/// One running world: simulator, engines, querier (stores + services).
struct World {
  net::Simulator sim;
  net::Topology topo;
  runtime::CompiledProgramPtr prog;
  std::vector<std::unique_ptr<runtime::Engine>> engines;
  std::unique_ptr<query::ProvenanceQuerier> querier;

  World(const char* program, uint32_t batch, unsigned threads,
        const net::FaultPlan& plan) {
    Result<runtime::CompiledProgramPtr> compiled = runtime::Compile(program);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    prog = *compiled;
    topo = net::MakeRingWithChords(5, 1, 2);
    sim.set_num_threads(threads);
    if (!plan.Empty()) sim.InstallFaultPlan(plan);
    runtime::EngineOptions eopts;
    eopts.batch_size = batch;
    engines = protocols::MakeEngines(&sim, topo, prog, eopts);
    querier = std::make_unique<query::ProvenanceQuerier>(
        &sim, protocols::EnginePtrs(engines));
  }

  void Converge() {
    ASSERT_TRUE(protocols::InstallLinks(topo, &engines, &sim).ok());
    CheckHealthy();
  }

  void CheckHealthy() {
    for (const auto& e : engines) {
      ASSERT_FALSE(e->overflowed()) << e->last_error();
      EXPECT_TRUE(e->last_error().empty()) << e->last_error();
    }
  }

  /// Protocol state only: per-node tables with derivation counts plus
  /// canonical provenance graphs. Timing-faulted runs are compared to the
  /// fault-free world through this (traffic differs, state must not).
  std::string StateFingerprint() const {
    std::string out;
    for (const auto& e : engines) {
      out += "== node " + std::to_string(e->id()) + "\n";
      for (const auto& [name, info] : e->program().tables) {
        if (!info.materialized) continue;
        for (const Tuple& t : e->TableContents(name)) {
          out += t.ToString() + " x" + std::to_string(e->CountOf(t)) + "\n";
        }
      }
    }
    for (size_t i = 0; i < engines.size(); ++i) {
      out += "== prov node " + std::to_string(i) + "\n";
      out += querier->store(static_cast<NodeId>(i))->CanonicalGraph();
    }
    return out;
  }

  /// State plus every deterministic simulator counter (events, traffic,
  /// fault accounting). Loss-faulted runs must match this bit-for-bit
  /// across thread counts.
  std::string FullFingerprint() const {
    std::string out = StateFingerprint();
    out += "== sim\n";
    out += "events=" + std::to_string(sim.events_executed()) + "\n";
    const net::TrafficStats t = sim.total_traffic();
    out += "traffic=" + std::to_string(t.messages) + "/" +
           std::to_string(t.bytes) + "/" + std::to_string(t.tuples) + "\n";
    for (const auto& [name, fs] : sim.ChannelFaultStatsByName()) {
      out += name + "=" + std::to_string(fs.sent) + "/" +
             std::to_string(fs.delivered) + "/" +
             std::to_string(fs.dropped_link) + "/" +
             std::to_string(fs.dropped_fault) + "/" +
             std::to_string(fs.duplicated) + "/" +
             std::to_string(fs.delayed) + "/" +
             std::to_string(fs.reordered) + "\n";
    }
    return out;
  }

  void CheckConservation() {
    const net::ChannelFaultStats t = sim.total_fault_stats();
    EXPECT_EQ(t.sent, t.delivered + t.dropped_link + t.dropped_fault);
  }

  /// No-orphan oracle: every visible tuple of a derived user table has at
  /// least one provenance edge, and each non-self edge resolves to a known
  /// rule execution whose inputs are resolvable tuples at the executing
  /// node.
  void CheckNoOrphanedDerivations() {
    size_t checked = 0;
    for (const auto& e : engines) {
      provenance::ProvStore* store = querier->store(e->id());
      for (const auto& [name, info] : e->program().tables) {
        if (!info.materialized || info.is_base ||
            provenance::IsProvenancePredicate(name)) {
          continue;
        }
        if (name.rfind("_d") == name.size() - 2) continue;  // localized aux
        for (const Tuple& t : e->TableContents(name)) {
          size_t edges = 0;
          store->EdgesFor(t.Hash(), [&](const provenance::ProvEdge& edge) {
            ++edges;
            if (edge.IsSelf(t.Hash())) return;
            const std::optional<provenance::ExecEntry> exec =
                querier->store(edge.rloc)->ExecFor(edge.rid);
            ASSERT_TRUE(exec.has_value())
                << "dangling exec for " << t.ToString();
            for (Vid input : exec->inputs) {
              EXPECT_NE(engines[edge.rloc]->FindTupleByVid(input), nullptr)
                  << "unresolvable input of " << t.ToString();
            }
          });
          ASSERT_GT(edges, 0u) << "orphan " << t.ToString();
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 0u);
  }
};

net::FaultPlan TimingPlan(uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.spec.delay_per_10k = 5000;
  plan.spec.delay_jitter_max = 40 * net::kMillisecond;
  plan.spec.reorder_per_10k = 3000;
  plan.spec.reorder_hold = 60 * net::kMillisecond;
  plan.heal_time = 500 * net::kMillisecond;
  return plan;
}

net::FaultPlan LossPlan(uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.spec.drop_per_10k = 700;
  plan.spec.dup_per_10k = 500;
  plan.spec.delay_per_10k = 2000;
  plan.spec.delay_jitter_max = 10 * net::kMillisecond;
  return plan;
}

/// Converge under the plan, run past the heal time, then one fault-free
/// fail/recover churn round, and return the state fingerprint.
std::string RunHealedWorld(const char* program, const net::FaultPlan& plan,
                           uint32_t batch, unsigned threads) {
  World w(program, batch, threads, plan);
  w.Converge();
  w.sim.RunUntil(std::max(w.sim.now(), net::Time{500 * net::kMillisecond}));
  const net::CostedLink& l = w.topo.links[0];
  EXPECT_TRUE(
      protocols::FailLink(l.a, l.b, l.cost, &w.engines, &w.sim).ok());
  EXPECT_TRUE(
      protocols::RecoverLink(l.a, l.b, l.cost, &w.engines, &w.sim).ok());
  w.CheckHealthy();
  w.CheckConservation();
  return w.StateFingerprint();
}

TEST(ChaosTest, HealedTimingFaultsReachTheFaultFreeFixpoint) {
  for (const Protocol& proto : kProtocols) {
    const std::string reference =
        RunHealedWorld(ProgramText(proto), net::FaultPlan{}, 64, 1);
    ASSERT_FALSE(reference.empty());
    for (uint64_t seed : {7001u, 7002u, 7003u}) {
      for (uint32_t batch : {1u, 64u}) {
        for (unsigned threads : {1u, 4u}) {
          const std::string faulted = RunHealedWorld(
              ProgramText(proto), TimingPlan(seed), batch, threads);
          EXPECT_EQ(faulted, reference)
              << proto.name << " seed=" << seed << " batch=" << batch
              << " threads=" << threads
              << ": healed run diverged from the fault-free fixpoint";
        }
      }
    }
  }
}

TEST(ChaosTest, LossFaultsAreBitIdenticalAcrossThreadCounts) {
  for (const Protocol& proto : kProtocols) {
    for (uint64_t seed : {9001u, 9002u, 9003u}) {
      for (uint32_t batch : {1u, 64u}) {
        auto run = [&](unsigned threads) {
          World w(ProgramText(proto), batch, threads, LossPlan(seed));
          w.Converge();
          w.CheckConservation();
          // Loss actually happened — the determinism claim is non-vacuous.
          EXPECT_GT(w.sim.total_fault_stats().dropped_fault +
                        w.sim.total_fault_stats().duplicated,
                    0u);
          return w.FullFingerprint();
        };
        const std::string serial = run(1);
        ASSERT_FALSE(serial.empty());
        EXPECT_EQ(run(4), serial)
            << proto.name << " seed=" << seed << " batch=" << batch
            << ": threaded loss schedule diverged from serial";
      }
    }
  }
}

/// Crash node 2, churn a survivor link while it is down (so it misses both
/// the retraction and the re-derivation), restart from a checkpoint taken
/// at the converged state, and compare against a world that never crashed
/// but saw the same churn.
TEST(ChaosTest, CrashRecoveryReconvergesToTheUncrashedWorld) {
  const NodeId kVictim = 2;
  for (const Protocol& proto : kProtocols) {
    for (unsigned threads : {1u, 4u}) {
      // Reference world: no crash, same survivor churn.
      World ref(ProgramText(proto), 64, threads, net::FaultPlan{});
      ref.Converge();
      const net::CostedLink* churn = nullptr;
      for (const net::CostedLink& l : ref.topo.links) {
        if (l.a != kVictim && l.b != kVictim) {
          churn = &l;
          break;
        }
      }
      ASSERT_NE(churn, nullptr);
      ASSERT_TRUE(protocols::FailLink(churn->a, churn->b, churn->cost,
                                      &ref.engines, &ref.sim)
                      .ok());
      ASSERT_TRUE(protocols::RecoverLink(churn->a, churn->b, churn->cost,
                                         &ref.engines, &ref.sim)
                      .ok());
      ref.CheckHealthy();

      // Crashing world.
      World w(ProgramText(proto), 64, threads, net::FaultPlan{});
      w.Converge();
      // Pre-crash query homed at the victim, populating its result cache.
      std::vector<Tuple> victims_tuples =
          w.engines[kVictim]->TableContents(proto.route_table);
      ASSERT_FALSE(victims_tuples.empty());
      const Tuple probe = victims_tuples.front();
      Result<query::QueryResult> pre = w.querier->Query(probe);
      ASSERT_TRUE(pre.ok()) << pre.status().ToString();

      runtime::EngineCheckpoint ckpt =
          w.engines[kVictim]->TakeCheckpoint();
      ASSERT_TRUE(
          protocols::CrashNode(kVictim, w.topo, &w.engines, &w.sim).ok());
      EXPECT_FALSE(w.sim.NodeUp(kVictim));
      // Survivor churn the victim never hears about.
      ASSERT_TRUE(protocols::FailLink(churn->a, churn->b, churn->cost,
                                      &w.engines, &w.sim)
                      .ok());
      ASSERT_TRUE(protocols::RecoverLink(churn->a, churn->b, churn->cost,
                                         &w.engines, &w.sim)
                      .ok());
      ASSERT_TRUE(
          protocols::RestartNode(kVictim, ckpt, w.topo, &w.engines, &w.sim)
              .ok());
      EXPECT_TRUE(w.sim.NodeUp(kVictim));
      w.CheckHealthy();
      w.CheckConservation();

      // Oracle 3a: exact reconvergence to the uncrashed world.
      EXPECT_EQ(w.StateFingerprint(), ref.StateFingerprint())
          << proto.name << " threads=" << threads
          << ": recovered world diverged from the uncrashed reference";
      // Oracle 3b: no orphaned derivations anywhere after recovery.
      w.CheckNoOrphanedDerivations();

      // Query-layer fence, with no restart hook: the same query against the
      // recovered node must answer from the new incarnation and agree with
      // the reference world (a stale cached answer would differ or dangle).
      // The pre-crash answer is still cached; only the provenance version,
      // which the restore advanced, keeps it from being served.
      Result<query::QueryResult> post = w.querier->Query(probe);
      ASSERT_TRUE(post.ok()) << post.status().ToString();
      Result<query::QueryResult> ref_q = ref.querier->Query(probe);
      ASSERT_TRUE(ref_q.ok()) << ref_q.status().ToString();
      auto leaves = [](const query::QueryResult& r) {
        std::vector<std::string> v = r.leaf_tuples;
        std::sort(v.begin(), v.end());
        return v;
      };
      EXPECT_EQ(leaves(*post), leaves(*ref_q)) << proto.name;
      EXPECT_EQ(post->count, ref_q->count);
    }
  }
}

/// Crash + restore under an active timing-fault schedule: the recovered
/// world must still match the uncrashed reference once the schedule heals
/// (both worlds run the same plan, so their transients differ but their
/// fixpoints must not — and must equal each other's).
TEST(ChaosTest, CrashRecoveryUnderTimingFaults) {
  const NodeId kVictim = 1;
  for (uint64_t seed : {5001u, 5002u}) {
    auto run = [&](bool crash) {
      World w(kBoundedMincost, 64, 1, TimingPlan(seed));
      w.Converge();
      if (crash) {
        runtime::EngineCheckpoint ckpt =
            w.engines[kVictim]->TakeCheckpoint();
        EXPECT_TRUE(
            protocols::CrashNode(kVictim, w.topo, &w.engines, &w.sim).ok());
        EXPECT_TRUE(
            protocols::RestartNode(kVictim, ckpt, w.topo, &w.engines, &w.sim)
                .ok());
      }
      w.sim.RunUntil(
          std::max(w.sim.now(), net::Time{500 * net::kMillisecond}));
      const net::CostedLink& l = w.topo.links[1];
      EXPECT_TRUE(
          protocols::FailLink(l.a, l.b, l.cost, &w.engines, &w.sim).ok());
      EXPECT_TRUE(
          protocols::RecoverLink(l.a, l.b, l.cost, &w.engines, &w.sim).ok());
      w.CheckHealthy();
      w.CheckConservation();
      if (crash) w.CheckNoOrphanedDerivations();
      return w.StateFingerprint();
    };
    const std::string uncrashed = run(false);
    ASSERT_FALSE(uncrashed.empty());
    EXPECT_EQ(run(true), uncrashed) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace nettrails
