// Experiment E9: cascading effects of topology updates. Measures the cost
// of reconverging state AND provenance after a link failure/recovery flap,
// and compares incremental maintenance against recomputation from scratch
// (the paper's motivation for *incremental* provenance maintenance).
// MINCOST is the primary workload (it scales to the larger networks);
// path-vector runs at small sizes, where its loop-free path enumeration
// stays tractable.
//
// The flap benchmarks take (nodes, batch_size) so one run compares
// single-tuple batches (batch_size=1, the serial anchor) against
// multi-tuple batches: the dispatches_per_flap counter (trigger-index
// dispatches per converged flap) is the amortization headline —
// batch_size>=8 must cut it >=2x — with msgs_per_flap showing the
// per-destination frame win on the wire (tuples_per_flap stays constant:
// framing changes packaging, not content).
#include <benchmark/benchmark.h>

#include <string>

#include "src/common/alloc_hook.h"
#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/runtime/plan.h"

namespace {

// Set by main() from --topology=<file>; empty selects the default corpus
// file. Lives at global scope so both main() and the benches see it.
std::string g_topology_path;

}  // namespace

namespace nettrails {
namespace {

// The RealTopology benches default to the committed Abilene-like corpus
// file, so benches and the scenario matrix exercise the same graphs.
std::string TopologyPath() {
  if (!g_topology_path.empty()) return g_topology_path;
  return std::string(NETTRAILS_SOURCE_DIR) +
         "/examples/topologies/abilene.topo";
}

runtime::CompiledProgramPtr CompileCached(const char* source) {
  Result<runtime::CompiledProgramPtr> r = runtime::Compile(source);
  return r.ok() ? *r : nullptr;
}

uint64_t TotalDispatches(
    const std::vector<std::unique_ptr<runtime::Engine>>& engines) {
  uint64_t total = 0;
  for (const auto& e : engines) total += e->stats().trigger_dispatches;
  return total;
}

// One link flap (fail + recover) on a converged network, incremental.
// Shared by the random-topology and corpus-file benches; counters are
// identical either way so the columns stay comparable.
void RunFlapLoop(benchmark::State& state, runtime::CompiledProgramPtr prog,
                 const net::Topology& topo, uint32_t batch_size) {
  net::Simulator sim;
  runtime::EngineOptions opts;
  opts.batch_size = batch_size;
  auto engines = protocols::MakeEngines(&sim, topo, prog, opts);
  if (!protocols::InstallLinks(topo, &engines, &sim).ok()) {
    state.SkipWithError("install failed");
    return;
  }
  const net::CostedLink& flap = topo.links[topo.links.size() / 2];

  uint64_t flaps = 0;
  uint64_t base_msgs = sim.total_traffic().messages;
  uint64_t base_tuples = sim.total_traffic().tuples;
  uint64_t base_disp = TotalDispatches(engines);
  uint64_t base_allocs = AllocCount();
  uint64_t base_drain = 0;
  for (const auto& e : engines) base_drain += e->stats().drain_allocs;
  for (auto _ : state) {
    (void)protocols::FailLink(flap.a, flap.b, flap.cost, &engines, &sim);
    (void)protocols::RecoverLink(flap.a, flap.b, flap.cost, &engines, &sim);
    ++flaps;
  }
  state.counters["nodes"] = static_cast<double>(topo.num_nodes);
  state.counters["batch_size"] = static_cast<double>(batch_size);
  if (flaps > 0) {
    state.counters["msgs_per_flap"] =
        static_cast<double>(sim.total_traffic().messages - base_msgs) /
        static_cast<double>(flaps);
    state.counters["tuples_per_flap"] =
        static_cast<double>(sim.total_traffic().tuples - base_tuples) /
        static_cast<double>(flaps);
    state.counters["dispatches_per_flap"] =
        static_cast<double>(TotalDispatches(engines) - base_disp) /
        static_cast<double>(flaps);
  }
  if (flaps > 0 && AllocCountingEnabled()) {
    // Heap allocations per converged flap (operator-new calls; whole
    // process, but the bench loop is the only allocator while running).
    // Only measured when built with -DNETTRAILS_COUNT_ALLOCS=ON, and absent
    // from the output otherwise; pinned by scripts/check_alloc_budget.sh in
    // CI.
    state.counters["allocs_per_flap"] =
        static_cast<double>(AllocCount() - base_allocs) /
        static_cast<double>(flaps);
    uint64_t drain = 0;
    for (const auto& e : engines) drain += e->stats().drain_allocs;
    state.counters["drain_allocs_per_flap"] =
        static_cast<double>(drain - base_drain) / static_cast<double>(flaps);
  }
}

void RunIncrementalFlap(benchmark::State& state, const char* program,
                        double p) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t batch_size = static_cast<uint32_t>(state.range(1));
  runtime::CompiledProgramPtr prog = CompileCached(program);
  if (prog == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }
  Rng rng(1);
  net::Topology topo = net::MakeRandomConnected(n, p, &rng, 4);
  RunFlapLoop(state, prog, topo, batch_size);
}

void BM_Churn_Mincost_IncrementalFlap(benchmark::State& state) {
  RunIncrementalFlap(state, protocols::MincostProgram(), 0.08);
}
void BM_Churn_PathVector_IncrementalFlap(benchmark::State& state) {
  RunIncrementalFlap(state, protocols::PathVectorProgram(), 0.04);
}

// Same flap loop on a committed corpus topology (default: the Abilene-like
// research map; override with --topology=<file>). Arg is batch_size. The
// name deliberately avoids the 'IncrementalFlap' substring so the CI smoke
// filter and the alloc-budget gate keep their existing selections.
void BM_Churn_Mincost_RealTopologyFlap(benchmark::State& state) {
  const uint32_t batch_size = static_cast<uint32_t>(state.range(0));
  runtime::CompiledProgramPtr prog =
      CompileCached(protocols::MincostProgram());
  if (prog == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }
  Result<net::Topology> topo = net::LoadTopologyFile(TopologyPath());
  if (!topo.ok()) {
    state.SkipWithError(topo.status().ToString().c_str());
    return;
  }
  RunFlapLoop(state, prog, *topo, batch_size);
}

BENCHMARK(BM_Churn_Mincost_IncrementalFlap)
    ->Args({8, 1})->Args({8, 8})->Args({8, 64})
    ->Args({16, 1})->Args({16, 8})->Args({16, 64})
    ->Args({24, 1})->Args({24, 64})
    ->Args({32, 1})->Args({32, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Churn_PathVector_IncrementalFlap)
    ->Args({6, 1})->Args({6, 8})->Args({6, 64})
    ->Args({8, 1})->Args({8, 8})->Args({8, 64})
    ->Args({10, 1})->Args({10, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Churn_Mincost_RealTopologyFlap)
    ->Arg(1)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Recompute-from-scratch baseline: rebuild the whole network per "event".
void BM_Churn_Mincost_FullRecompute(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  runtime::CompiledProgramPtr prog =
      CompileCached(protocols::MincostProgram());
  if (prog == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }
  Rng rng(1);
  net::Topology topo = net::MakeRandomConnected(n, 0.08, &rng, 4);
  uint64_t rebuilds = 0, messages = 0;
  for (auto _ : state) {
    net::Simulator sim;
    auto engines = protocols::MakeEngines(&sim, topo, prog);
    if (!protocols::InstallLinks(topo, &engines, &sim).ok()) {
      state.SkipWithError("install failed");
      return;
    }
    ++rebuilds;
    messages += sim.total_traffic().messages;
  }
  state.counters["nodes"] = static_cast<double>(n);
  if (rebuilds > 0) {
    state.counters["msgs_per_rebuild"] =
        static_cast<double>(messages) / static_cast<double>(rebuilds);
  }
}

BENCHMARK(BM_Churn_Mincost_FullRecompute)->Arg(8)->Arg(16)->Arg(24)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Failure storm: k sequential link failures without recovery, measuring
// the cascade cost of provenance-consistent retraction.
void BM_Churn_FailureStorm(benchmark::State& state) {
  const size_t kFailures = static_cast<size_t>(state.range(0));
  runtime::CompiledProgramPtr prog =
      CompileCached(protocols::MincostProgram());
  if (prog == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }
  Rng rng(3);
  net::Topology topo = net::MakeRandomConnected(16, 0.1, &rng, 4);
  uint64_t storms = 0, messages = 0;
  for (auto _ : state) {
    net::Simulator sim;
    auto engines = protocols::MakeEngines(&sim, topo, prog);
    if (!protocols::InstallLinks(topo, &engines, &sim).ok()) {
      state.SkipWithError("install failed");
      return;
    }
    uint64_t before = sim.total_traffic().messages;
    for (size_t k = 0; k < kFailures && k < topo.links.size(); ++k) {
      const net::CostedLink& l = topo.links[k];
      (void)protocols::FailLink(l.a, l.b, l.cost, &engines, &sim);
    }
    messages += sim.total_traffic().messages - before;
    ++storms;
  }
  state.counters["failures"] = static_cast<double>(kFailures);
  if (storms > 0) {
    state.counters["msgs_per_storm"] =
        static_cast<double>(messages) / static_cast<double>(storms);
  }
}

// Note: storms that partition the network (6+ tree-link failures on this
// topology) additionally pay the distance-vector count-to-infinity
// transient up to the protocol's cost bound — visible as a superlinear
// jump in msgs_per_storm. That is protocol behaviour, not engine cost.
BENCHMARK(BM_Churn_FailureStorm)->Arg(1)->Arg(2)->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nettrails

// Defining main() here overrides the benchmark_main library's: strip the
// repo-local --topology=<file> flag before google-benchmark parses argv.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.compare(0, 11, "--topology=") == 0) {
      g_topology_path = arg.substr(11);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
