// Scale-out benchmark: the sharded epoch-barrier event loop
// (SimulatorOptions::num_threads) on topologies large enough that every
// delivery wave carries real parallel work — MINCOST convergence and
// incremental link flaps at (nodes x threads). The threaded and serial
// runs execute bit-identical event sequences (that is the protocol's
// contract, pinned by tests/runtime/threaded_determinism_test.cc), so the
// time ratio at fixed nodes is a pure measure of the sharded loop: wall
// clock is the only column that may differ across thread counts.
//
// Measurement caveat: speedup numbers are only meaningful on a machine
// with as many free cores as `threads`. On a single-core host (such as the
// container that produced the committed BENCH_scaleout.json) the worker
// pool is time-sliced onto one CPU and threaded runs can only show barrier
// overhead, never speedup — the committed numbers there document overhead
// honestly, not the scaling claim. Run on a multi-core host to measure
// scaling; correctness at every thread count is covered by the (cheap)
// determinism suite either way.
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

runtime::CompiledProgramPtr CompileCached(const char* source) {
  Result<runtime::CompiledProgramPtr> r = runtime::Compile(source);
  return r.ok() ? *r : nullptr;
}

// The RealTopology bench defaults to the committed 102-node synthetic-ISP
// corpus file — the one corpus graph sized for scale-out measurement.
std::string TopologyPath() {
  if (!g_topology_path.empty()) return g_topology_path;
  return std::string(NETTRAILS_SOURCE_DIR) +
         "/examples/topologies/isp_synth_102.topo";
}

// Sparse random topology: p chosen so average degree stays near 4 as n
// grows (p = 4/n), keeping per-node work flat and wave width ~n.
net::Topology MakeScaleTopology(size_t n, Rng* rng) {
  double p = 4.0 / static_cast<double>(n);
  return net::MakeRandomConnected(n, p, rng, 4);
}

// Full MINCOST convergence from cold: build engines, install every link,
// run to quiescence. Each iteration is an independent world.
void BM_Scaleout_Mincost_Converge(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  runtime::CompiledProgramPtr prog =
      CompileCached(protocols::MincostProgram());
  if (prog == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }
  Rng rng(7);
  net::Topology topo = MakeScaleTopology(n, &rng);
  uint64_t runs = 0, events = 0, messages = 0;
  for (auto _ : state) {
    net::SimulatorOptions sopts;
    sopts.num_threads = threads;
    net::Simulator sim(sopts);
    runtime::EngineOptions opts;
    opts.batch_size = 64;
    auto engines = protocols::MakeEngines(&sim, topo, prog, opts);
    if (!protocols::InstallLinks(topo, &engines, &sim).ok()) {
      state.SkipWithError("install failed");
      return;
    }
    ++runs;
    events += sim.events_executed();
    messages += sim.total_traffic().messages;
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(threads);
  if (runs > 0) {
    // Identical across thread counts by construction; a divergence here
    // means the determinism contract broke.
    state.counters["events_per_run"] =
        static_cast<double>(events) / static_cast<double>(runs);
    state.counters["msgs_per_run"] =
        static_cast<double>(messages) / static_cast<double>(runs);
  }
}

// MeasureProcessCPUTime: by default google-benchmark reports the main
// thread's CPU time, which sleeps at the wave barrier while workers burn
// cycles — process CPU time is the honest column for threaded runs (it
// also makes threads=1 vs N directly comparable: equal process-CPU with
// lower wall time is the definition of speedup here). UseRealTime paces
// iterations by wall clock for the same reason.
BENCHMARK(BM_Scaleout_Mincost_Converge)
    ->Args({64, 1})->Args({64, 2})->Args({64, 4})
    ->Args({200, 1})->Args({200, 2})->Args({200, 4})
    ->MeasureProcessCPUTime()->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Incremental flap on a converged network (the bench_churn headline, at
// scale-out sizes): fail + recover one bridge-free link, reconverging to
// quiescence each time.
void BM_Scaleout_Mincost_IncrementalFlap(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  runtime::CompiledProgramPtr prog =
      CompileCached(protocols::MincostProgram());
  if (prog == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }
  Rng rng(7);
  net::Topology topo = MakeScaleTopology(n, &rng);
  net::SimulatorOptions sopts;
  sopts.num_threads = threads;
  net::Simulator sim(sopts);
  runtime::EngineOptions opts;
  opts.batch_size = 64;
  auto engines = protocols::MakeEngines(&sim, topo, prog, opts);
  if (!protocols::InstallLinks(topo, &engines, &sim).ok()) {
    state.SkipWithError("install failed");
    return;
  }
  const net::CostedLink& flap = topo.links[topo.links.size() / 2];
  uint64_t flaps = 0;
  uint64_t base_msgs = sim.total_traffic().messages;
  uint64_t base_allocs = AllocCount();
  for (auto _ : state) {
    (void)protocols::FailLink(flap.a, flap.b, flap.cost, &engines, &sim);
    (void)protocols::RecoverLink(flap.a, flap.b, flap.cost, &engines, &sim);
    ++flaps;
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(threads);
  if (flaps > 0) {
    state.counters["msgs_per_flap"] =
        static_cast<double>(sim.total_traffic().messages - base_msgs) /
        static_cast<double>(flaps);
  }
  if (flaps > 0 && AllocCountingEnabled()) {
    // Whole-process operator-new calls per converged flap. Only measured
    // when built with -DNETTRAILS_COUNT_ALLOCS=ON, and absent from the
    // output otherwise; the threads=4 leg is pinned by
    // scripts/check_alloc_budget.sh in CI — worker arenas and op logs must
    // reach steady state like the shared frame pool does.
    state.counters["allocs_per_flap"] =
        static_cast<double>(AllocCount() - base_allocs) /
        static_cast<double>(flaps);
  }
}

BENCHMARK(BM_Scaleout_Mincost_IncrementalFlap)
    ->Args({64, 1})->Args({64, 2})->Args({64, 4})
    ->Args({200, 1})->Args({200, 2})->Args({200, 4})
    ->MeasureProcessCPUTime()->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Cold convergence on a committed corpus topology (default: the 102-node
// synthetic ISP; override with --topology=<file>). Arg is the thread
// count; the graph comes from the file, so this is the scale-out story on
// the same corpus the scenario matrix pins.
void BM_Scaleout_Mincost_RealTopologyConverge(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  runtime::CompiledProgramPtr prog =
      CompileCached(protocols::MincostProgram());
  if (prog == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }
  Result<net::Topology> file_topo = net::LoadTopologyFile(TopologyPath());
  if (!file_topo.ok()) {
    state.SkipWithError(file_topo.status().ToString().c_str());
    return;
  }
  const net::Topology& topo = *file_topo;
  uint64_t runs = 0, events = 0, messages = 0;
  for (auto _ : state) {
    net::SimulatorOptions sopts;
    sopts.num_threads = threads;
    net::Simulator sim(sopts);
    runtime::EngineOptions opts;
    opts.batch_size = 64;
    auto engines = protocols::MakeEngines(&sim, topo, prog, opts);
    if (!protocols::InstallLinks(topo, &engines, &sim).ok()) {
      state.SkipWithError("install failed");
      return;
    }
    ++runs;
    events += sim.events_executed();
    messages += sim.total_traffic().messages;
  }
  state.counters["nodes"] = static_cast<double>(topo.num_nodes);
  state.counters["threads"] = static_cast<double>(threads);
  if (runs > 0) {
    state.counters["events_per_run"] =
        static_cast<double>(events) / static_cast<double>(runs);
    state.counters["msgs_per_run"] =
        static_cast<double>(messages) / static_cast<double>(runs);
  }
}

BENCHMARK(BM_Scaleout_Mincost_RealTopologyConverge)
    ->Arg(1)->Arg(2)->Arg(4)
    ->MeasureProcessCPUTime()->UseRealTime()
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
