// bench_e2e: the NetTrails end-to-end benchmark. One process runs one
// workload, built from --seed, for --seconds of measurement, and drives the
// system only through its public APIs:
//
//   converge    cold MINCOST fixpoints on the 102-node synthetic ISP, with
//               provenance on, off, and on with the threaded simulator
//   churn       link flaps on a provenance-on world and its provenance-off
//               twin, plus node crash and restart
//   query_mix   distributed provenance queries beside link events
//   bgp_replay  a RouteViews-style trace through BGP speakers, with and
//               without the proxy and its maybe-rule provenance
//
// Every workload has one primary op (a cold fixpoint, a link flap, a query,
// a window of trace events) and a twin: the same op without the mechanism
// under study (provenance, the query result cache, the proxy). All ops run
// in a closed loop. Answers are checked by oracles.h, which shares no
// engine code.
//
// The untraced run (--trace 0) prints the end-to-end metrics; the traced
// run (--trace 1) records spans around every call into a layer in every
// other round and prints the per-layer metrics and a layer table. The last
// line of standard output is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits non-zero if any op failed or any answer was wrong.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_e2e/oracles.h"
#include "bench_e2e/trace.h"
#include "src/bgp/speaker.h"
#include "src/bgp/tracegen.h"
#include "src/common/alloc_hook.h"
#include "src/net/topology.h"
#include "src/protocols/programs.h"
#include "src/proxy/proxy.h"
#include "src/query/query_engine.h"
#include "src/runtime/plan.h"

#ifndef NETTRAILS_E2E_BUILD_TYPE
#define NETTRAILS_E2E_BUILD_TYPE "unknown"
#endif
#ifndef NETTRAILS_E2E_COMPILER
#define NETTRAILS_E2E_COMPILER "unknown"
#endif

namespace e2e {
namespace {

namespace nt = nettrails;
using nt::Status;
using nt::Tuple;
using nt::Value;
using Engines = std::vector<std::unique_ptr<nt::runtime::Engine>>;

// ------------------------------------------------------------ options ----

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_file;  // Chrome trace output (traced run only)
  std::string out_file;    // full result record (--benchmark_out)
  std::string commit = "unknown";
};

/// Workload sizes. Smoke runs every workload at about 1/50 of the full
/// size, with the same oracles and output.
struct Scale {
  // MakeSyntheticIsp(core, regions, region_size): 12/10/9 is the committed
  // isp_synth_102 corpus graph.
  size_t isp_core, isp_regions, isp_region_size;
  size_t churn_block;        // flaps per background link failure
  size_t queries_per_event;  // queries between link events in query_mix
  size_t as_tier1, as_mid, as_stub;
  size_t bgp_churn_events;   // trace events after the initial announcements
};
constexpr Scale kFullScale{12, 10, 9, 32, 400, 4, 12, 40, 1000};
constexpr Scale kSmokeScale{4, 3, 4, 3, 40, 2, 4, 10, 80};

// Fixed parts of the inputs. --seed draws what happens on them: which links
// flap and fail, which queries are asked, which prefixes the trace flaps.
// Keeping the graphs and the query popularity ranking fixed keeps one
// seed's costs comparable with another's.
constexpr uint64_t kIspSeed = 42;  // isp_synth_102's generator seed
constexpr uint64_t kAsTopologySeed = 2011;
constexpr uint64_t kQueryRankSeed = 7;
constexpr int kSetupReps = 5;
constexpr size_t kOracleEvery = 25;  // query_mix link events per check
constexpr size_t kMaxLinksDown = 2;
// One bgp_replay op replays this many consecutive trace events (0.4 s of
// virtual time): announcements and withdrawals cost different amounts, and
// a window holds a mix of both, so its time has one mode, not two.
constexpr size_t kBgpWindow = 8;
constexpr double kZipfS = 1.0;

// ------------------------------------------------------------ samples ----

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Timings of one kind of op. Each sample remembers whether it was traced,
/// so the traced run can compare its traced and untraced halves.
class Samples {
 public:
  void Add(double v, bool traced = false) {
    values_.push_back(v);
    traced_.push_back(traced);
  }
  size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile; `which` selects all samples (-1) or only
  /// the untraced (0) or traced (1) ones. 0 when there are none.
  double Quantile(double q, int which = -1) const {
    std::vector<double> v;
    for (size_t i = 0; i < values_.size(); ++i) {
      if (which < 0 || traced_[i] == (which == 1)) v.push_back(values_[i]);
    }
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Quantile(0.5); }

  /// Median of values_[i] / other.values_[i]. Every workload records its
  /// i-th op and the i-th twin op on the same input (the same flap, query,
  /// trace window or fixpoint), so the ratio leaves out how costly that
  /// input is and, since the two run seconds apart, how loaded the host is.
  double MedianRatio(const Samples& other) const {
    Samples ratios;
    for (size_t i = 0; i < values_.size() && i < other.values_.size(); ++i) {
      ratios.Add(Ratio(values_[i], other.values_[i]));
    }
    return ratios.Median();
  }

 private:
  std::vector<double> values_;
  std::vector<bool> traced_;
};

// ------------------------------------------------------------ worlds -----

/// One simulated network. Members are declared in dependency order, so
/// speakers and proxies go first and the simulator last on destruction.
struct World {
  std::unique_ptr<nt::net::Simulator> sim;
  Engines engines;
  std::vector<std::unique_ptr<nt::proxy::Proxy>> proxies;
  std::vector<std::unique_ptr<nt::bgp::Speaker>> speakers;
};

enum Counter {
  kDeltas,
  kBatches,
  kBatchedTuples,
  kDispatches,
  kFirings,
  kAggRecomputes,
  kJoinProbes,
  kIndexProbes,
  kBroadcastProbes,
  kScanFallbacks,
  kShipped,
  kEvalErrors,
  kAllocs,
  kEvents,
  kMsgs,
  kBytes,
  kTuples,
  kVirtualUs,
  kNumCounters
};
using Counters = std::array<uint64_t, kNumCounters>;

/// Public counters of a world: engine stats summed over nodes, simulator
/// traffic and events, virtual time, and process-wide allocations (0
/// unless the library counts them).
Counters Snapshot(const World& w) {
  Counters c{};
  if (w.sim == nullptr) return c;
  for (const auto& e : w.engines) {
    const nt::runtime::EngineStats& s = e->stats();
    c[kDeltas] += s.deltas_enqueued;
    c[kBatches] += s.batches_processed;
    c[kBatchedTuples] += s.batched_tuples;
    c[kDispatches] += s.trigger_dispatches;
    c[kFirings] += s.rule_firings;
    c[kAggRecomputes] += s.agg_recomputes;
    c[kJoinProbes] += s.join_probes;
    c[kIndexProbes] += s.index_probes;
    c[kBroadcastProbes] += s.broadcast_probes;
    c[kScanFallbacks] += s.index_scan_fallbacks;
    c[kShipped] += s.tuples_shipped;
    c[kEvalErrors] += s.eval_errors;
  }
  c[kAllocs] = nt::AllocCount();
  nt::net::TrafficStats t = w.sim->total_traffic();
  c[kEvents] = w.sim->events_executed();
  c[kMsgs] = t.messages;
  c[kBytes] = t.bytes;
  c[kTuples] = t.tuples;
  c[kVirtualUs] = w.sim->now();
  return c;
}

/// Counter deltas summed over a set of ops.
struct Tally {
  Counters sum{};
  uint64_t ops = 0;

  void Add(const Counters& before, const Counters& after) {
    for (int i = 0; i < kNumCounters; ++i) sum[i] += after[i] - before[i];
    ++ops;
  }
  double PerOp(Counter c) const {
    return ops == 0 ? 0 : static_cast<double>(sum[c]) / ops;
  }
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// (rows, sum of VIDs, xor of VIDs) of each materialized table of `prog`
/// across a world's nodes: equal digests mean equal table contents.
std::vector<std::array<uint64_t, 3>> TableDigest(
    const World& w, const nt::runtime::CompiledProgram& prog) {
  std::vector<std::array<uint64_t, 3>> out;
  for (const auto& [name, info] : prog.tables) {
    if (!info.materialized) continue;
    std::array<uint64_t, 3> d{};
    for (const auto& e : w.engines) {
      for (const Tuple& t : e->TableContents(name)) {
        ++d[0];
        d[1] += t.Hash();
        d[2] ^= t.Hash();
      }
    }
    out.push_back(d);
  }
  return out;
}

/// Records the state size of the primary world (at the end of round 0) and
/// its simulator's frame pool as per-layer metrics.
void RecordState(const World& w, std::map<std::string, double>* layer) {
  double live = 0, prov = 0, slots = 0, vids = 0;
  for (const auto& e : w.engines) {
    live += static_cast<double>(e->TotalTuples(false));
    prov += static_cast<double>(e->TotalTuples(true));
    vids += static_cast<double>(e->vid_interner()->size());
    for (const auto& [name, info] : e->program().tables) {
      if (const nt::runtime::Table* t = e->GetTable(name)) {
        slots += static_cast<double>(t->slot_count());
      }
    }
  }
  (*layer)["runtime.live_tuples"] = live;
  (*layer)["runtime.prov_tuples"] = prov;
  (*layer)["runtime.table_slots"] = slots;
  (*layer)["runtime.vids_interned"] = vids;
  (*layer)["net.frame_pool"] = static_cast<double>(w.sim->frame_pool_size());
}

// ------------------------------------------------------------ bench ------

class Bench {
 public:
  explicit Bench(const Options& opt) : opt_(opt) {
    tracer.set_enabled(opt.trace);
  }

  /// Runs one timed op in a closed loop. The op fails on a non-OK Status,
  /// a rise in any engine's eval_errors, or a tripped action limit. With
  /// `tally`, the op's counter deltas are added to it.
  template <typename F>
  double Op(const char* name, Samples* into, World& w, Tally* tally,
            F&& body) {
    const bool traced = traced_round_;
    const Counters before = Snapshot(w);
    tracer.set_enabled(traced);
    Status st;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(&tracer, name, /*new_op=*/true);
      st = body();
    }
    const double ms = MsBetween(t0, Clock::now());
    tracer.set_enabled(opt_.trace);
    ++attempted;
    ++window_ops;
    into->Add(ms, traced);
    const Counters after = Snapshot(w);
    if (!st.ok()) {
      Fail(std::string(name) + ": " + st.ToString());
    } else if (after[kEvalErrors] > before[kEvalErrors]) {
      Fail(std::string(name) + ": evaluation error");
    } else if (std::any_of(w.engines.begin(), w.engines.end(),
                           [](const auto& e) { return e->overflowed(); })) {
      Fail(std::string(name) + ": action limit tripped");
    }
    if (tally != nullptr) tally->Add(before, after);
    return ms;
  }

  /// Times a layer call outside or inside an op: one sample under `name`
  /// (taken when `fn` returns, whatever it returns) and, when tracing, one
  /// span.
  template <typename F>
  auto Timed(const char* name, F&& fn) {
    ScopedSpan span(&tracer, name);
    struct Stop {
      Samples* into;
      Clock::time_point t0;
      ~Stop() { into->Add(MsBetween(t0, Clock::now())); }
    } stop{&timings[name], Clock::now()};
    return fn();
  }

  nt::runtime::CompiledProgramPtr Compile(
      const char* source, const nt::runtime::CompileOptions& options = {}) {
    nt::Result<nt::runtime::CompiledProgramPtr> prog = Timed(
        "ndlog.compile", [&] { return nt::runtime::Compile(source, options); });
    if (!prog.ok()) {
      Fail("compile: " + prog.status().ToString());
      return nullptr;
    }
    return *prog;
  }

  /// Builds a world of `prog` engines over `topo`.
  void MakeWorld(const nt::net::Topology& topo,
                 nt::runtime::CompiledProgramPtr prog, unsigned threads,
                 World* w) {
    nt::net::SimulatorOptions so;
    so.num_threads = threads;
    w->sim = std::make_unique<nt::net::Simulator>(so);
    w->engines = Timed("runtime.make_engines", [&] {
      return nt::protocols::MakeEngines(w->sim.get(), topo, prog);
    });
  }

  void Fail(const std::string& why, uint64_t ops = 1) {
    failed += ops;
    if (failures.size() < 8) failures.push_back(why);
  }
  /// Marks the ops since the last passing check failed when `diff` is set.
  void Check(const std::string& what, const std::string& diff) {
    if (!diff.empty()) {
      Fail(what + ": " + diff, std::max<uint64_t>(1, window_ops));
    }
    window_ops = 0;
  }

  template <typename F>
  void TimeSetup(F&& fn) {
    for (int rep = 0; rep < kSetupReps && failed == 0; ++rep) {
      const Clock::time_point t0 = Clock::now();
      fn();
      setup_s.Add(MsBetween(t0, Clock::now()) / 1000.0);
    }
    measure_start_ = Clock::now();
  }
  /// Called before each round; says whether to run it. A later round
  /// starts only if at least half of an average round fits in the
  /// measurement window, so whole rounds end close to it. Rounds 0 and 1
  /// always run in a traced run, which traces the even rounds only: its
  /// odd rounds measure the same work untraced.
  bool KeepGoing(size_t round) {
    // Memory is read after round 0, whose work is the same in every run:
    // later rounds depend on how fast the host is.
    if (round == 1) first_round_rss_mb = PeakRssMb();
    if (failed > 0) return false;
    traced_round_ = opt_.trace && round % 2 == 0;
    if (round == 0 || (opt_.trace && round == 1)) return true;
    const double elapsed = MsBetween(measure_start_, Clock::now());
    return elapsed + elapsed / static_cast<double>(round) / 2 <
           opt_.seconds * 1000.0;
  }

  const Options& opt() const { return opt_; }

  Tracer tracer;
  double first_round_rss_mb = 0;
  Samples setup_s, op_ms, twin_ms;
  std::map<std::string, Samples> timings;  // secondary ops and layer calls
  Tally op_tally, twin_tally;              // first-round counters
  std::map<std::string, double> layer;     // workload-specific per-layer
  uint64_t attempted = 0, failed = 0, window_ops = 0;
  std::vector<std::string> failures;

 private:
  Options opt_;
  Clock::time_point measure_start_;
  bool traced_round_ = false;
};

nt::net::Topology IspTopology(const Scale& sc) {
  return nt::net::MakeSyntheticIsp(sc.isp_core, sc.isp_regions,
                                   sc.isp_region_size, kIspSeed);
}

/// Cold fixpoint: MakeEngines, InstallLinks, run to quiescence.
Status ConvergeWorld(Bench& b, const nt::net::Topology& topo,
                     nt::runtime::CompiledProgramPtr prog, unsigned threads,
                     World* w) {
  b.MakeWorld(topo, prog, threads, w);
  {
    ScopedSpan span(&b.tracer, "runtime.local_drain");
    NT_RETURN_IF_ERROR(nt::protocols::InstallLinks(topo, &w->engines,
                                                   w->sim.get(), false));
  }
  ScopedSpan span(&b.tracer, "net.run");
  w->sim->Run();
  return Status::OK();
}

/// Seeded link failures that never partition the graph: a failure that
/// would disconnect it is redrawn. The topology must be 2-edge-connected
/// (every MakeSyntheticIsp graph is), so a safe failure always exists
/// while fewer than kMaxLinksDown links are down.
class LinkChurn {
 public:
  struct Event {
    size_t link;
    bool fail;
  };

  LinkChurn(const nt::net::Topology& topo, uint64_t seed)
      : topo_(topo), down_(topo.links.size(), false), rng_(seed) {}

  /// True if `link` is up and failing it keeps the graph connected.
  bool SafeToFail(size_t link) {
    if (down_[link]) return false;
    down_[link] = true;
    const bool safe = Connected(topo_, down_);
    down_[link] = false;
    return safe;
  }
  /// A seeded link that can fail safely: the first one scanning from a
  /// random link.
  size_t PickFailure() {
    const size_t n = topo_.links.size();
    const size_t start = rng_.NextBelow(n);
    for (size_t k = 0; k < n; ++k) {
      if (SafeToFail((start + k) % n)) return (start + k) % n;
    }
    return n;
  }
  void SetDown(size_t link, bool down) {
    down_[link] = down;
    auto it = std::find(down_list_.begin(), down_list_.end(), link);
    if (down && it == down_list_.end()) down_list_.push_back(link);
    if (!down && it != down_list_.end()) down_list_.erase(it);
  }
  /// The next step of a random walk over failure states with at most
  /// kMaxLinksDown links down.
  Event Next() {
    const bool fail =
        down_list_.empty() ||
        (down_list_.size() < kMaxLinksDown && rng_.NextBool(0.5));
    const size_t link = fail ? PickFailure()
                             : down_list_[rng_.NextBelow(down_list_.size())];
    SetDown(link, fail);
    return {link, fail};
  }
  const std::vector<bool>& down() const { return down_; }

 private:
  const nt::net::Topology& topo_;
  std::vector<bool> down_;
  std::vector<size_t> down_list_;
  nt::Rng rng_;
};

/// Fails or recovers one link on `w`, run to quiescence.
Status ApplyLinkEvent(Bench& b, World& w, const nt::net::Topology& topo,
                      size_t link, bool fail) {
  const nt::net::CostedLink& l = topo.links[link];
  {
    ScopedSpan span(&b.tracer, "runtime.local_drain");
    NT_RETURN_IF_ERROR(
        fail ? nt::protocols::FailLink(l.a, l.b, l.cost, &w.engines,
                                       w.sim.get(), false)
             : nt::protocols::RecoverLink(l.a, l.b, l.cost, &w.engines,
                                          w.sim.get(), false));
  }
  ScopedSpan span(&b.tracer, "net.run");
  w.sim->Run();
  return Status::OK();
}

// ------------------------------------------------------------ converge ---

void RunConverge(Bench& b, const Scale& sc) {
  nt::runtime::CompiledProgramPtr prov, noprov;
  nt::net::Topology topo;
  DistMatrix dist;
  b.TimeSetup([&] {
    prov = b.Compile(nt::protocols::MincostProgram());
    noprov = b.Compile(nt::protocols::MincostProgram(),
                       nt::runtime::NoProvenanceOptions());
    topo = IspTopology(sc);
    dist = AllPairsLeastCost(topo, {});
    // One untimed fixpoint, so the first timed one does not pay for the
    // process's first heap growth.
    World warm;
    if (prov != nullptr) {
      Status st = ConvergeWorld(b, topo, prov, 1, &warm);
      if (!st.ok()) b.Fail("warm-up: " + st.ToString());
    }
  });
  if (b.failed > 0) return;

  const unsigned t4 =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  Samples& t4_ms = b.timings["op.converge_t4"];
  for (size_t round = 0; b.KeepGoing(round); ++round) {
    World on, off, on_t4;
    b.Op("op.converge", &b.op_ms, on, round == 0 ? &b.op_tally : nullptr,
         [&] { return ConvergeWorld(b, topo, prov, 1, &on); });
    b.Op("op.converge", &b.twin_ms, off, round == 0 ? &b.twin_tally : nullptr,
         [&] { return ConvergeWorld(b, topo, noprov, 1, &off); });
    b.Op("op.converge", &t4_ms, on_t4, nullptr,
         [&] { return ConvergeWorld(b, topo, prov, t4, &on_t4); });

    ScopedSpan oracle(&b.tracer, "bench.oracle");
    for (const World* w : {&on, &off, &on_t4}) {
      b.window_ops = 1;
      b.Check("converge", CheckMincost(w->engines, dist));
    }
    b.window_ops = 3;
    std::string diff;
    if (TableDigest(on, *noprov) != TableDigest(off, *noprov) ||
        TableDigest(on, *noprov) != TableDigest(on_t4, *noprov)) {
      diff = "provenance-on, provenance-off and threaded tables differ";
    } else if (TableDigest(on, *prov) != TableDigest(on_t4, *prov)) {
      diff = "threaded provenance tables differ";
    } else if (Snapshot(on)[kBytes] != Snapshot(on_t4)[kBytes] ||
               Snapshot(on)[kMsgs] != Snapshot(on_t4)[kMsgs] ||
               Snapshot(on)[kEvents] != Snapshot(on_t4)[kEvents]) {
      diff = "threaded traffic differs from serial";
    }
    b.Check("converge", diff);
    if (round == 0) RecordState(on, &b.layer);
  }
  b.layer["net.t4_converge_ms_p50"] = t4_ms.Median();
  b.layer["net.t4_speedup"] = Ratio(b.op_ms.Median(), t4_ms.Median());
}

// ------------------------------------------------------------ churn ------

void RunChurn(Bench& b, const Scale& sc) {
  struct State {
    nt::runtime::CompiledProgramPtr prov, noprov;
    nt::net::Topology topo;
    World on, off;
  };
  std::unique_ptr<State> s;
  b.TimeSetup([&] {
    auto next = std::make_unique<State>();
    next->prov = b.Compile(nt::protocols::MincostProgram());
    next->noprov = b.Compile(nt::protocols::MincostProgram(),
                             nt::runtime::NoProvenanceOptions());
    if (next->prov == nullptr || next->noprov == nullptr) return;
    next->topo = IspTopology(sc);
    for (auto [w, prog] : {std::pair{&next->on, next->prov},
                           std::pair{&next->off, next->noprov}}) {
      b.MakeWorld(next->topo, prog, 1, w);
      Status st = nt::protocols::InstallLinks(next->topo, &w->engines,
                                              w->sim.get());
      if (!st.ok()) b.Fail("install: " + st.ToString());
    }
    s = std::move(next);
  });
  if (b.failed > 0) return;

  const nt::net::Topology& topo = s->topo;
  const DistMatrix full = AllPairsLeastCost(topo, {});
  LinkChurn churn(topo, b.opt().seed);
  nt::Rng rng(b.opt().seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<size_t> order(topo.links.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  size_t blocks = 0;
  auto check_both = [&](const DistMatrix& dist) {
    ScopedSpan oracle(&b.tracer, "bench.oracle");
    std::string diff = CheckMincost(s->on.engines, dist);
    if (diff.empty()) diff = CheckMincost(s->off.engines, dist);
    b.Check("churn", diff);
  };
  auto background = [&](size_t link, bool fail) {
    churn.SetDown(link, fail);
    for (World* w : {&s->on, &s->off}) {
      b.Op("op.link_event", &b.timings["op.link_event"], *w, nullptr,
           [&] { return ApplyLinkEvent(b, *w, topo, link, fail); });
    }
  };

  Samples& crash_ms = b.timings["op.crash"];
  Samples& restart_ms = b.timings["op.restart"];
  // A round flaps every link once, in a seeded order, so every run sees the
  // same mix of cheap and costly flaps whatever its seed.
  for (size_t round = 0; b.KeepGoing(round); ++round) {
    rng.Shuffle(&order);
    for (size_t first = 0; first < order.size();
         first += sc.churn_block, ++blocks) {
      // One background failure stays down for each block, so the flaps run
      // with up to two links down. Flaps that would then partition the
      // graph are skipped.
      const size_t held = churn.PickFailure();
      background(held, true);
      std::vector<size_t> links;
      for (size_t i = first; i < first + sc.churn_block && i < order.size();
           ++i) {
        if (churn.SafeToFail(order[i])) links.push_back(order[i]);
      }
      // Each world flaps the whole block back to back, as one network
      // would; interleaving the twins flap by flap made each run in the
      // other's cache footprint. Which world goes first alternates.
      for (int k = 0; k < 2; ++k) {
        const bool on = (k == 0) == (blocks % 2 == 0);
        World& w = on ? s->on : s->off;
        for (size_t link : links) {
          b.Op("op.flap", on ? &b.op_ms : &b.twin_ms, w,
               round == 0 ? (on ? &b.op_tally : &b.twin_tally) : nullptr, [&] {
                 NT_RETURN_IF_ERROR(ApplyLinkEvent(b, w, topo, link, true));
                 return ApplyLinkEvent(b, w, topo, link, false);
               });
        }
      }
      check_both(AllPairsLeastCost(topo, churn.down()));
      background(held, false);
    }
    check_both(full);

    // Crash and restart one seeded victim on the provenance-on world, with
    // every link up.
    const NodeId victim = static_cast<NodeId>(rng.NextBelow(topo.num_nodes));
    nt::runtime::EngineCheckpoint ckpt;
    World& w = s->on;
    b.Op("op.crash", &crash_ms, w, nullptr, [&] {
      ckpt = b.Timed("runtime.checkpoint",
                     [&] { return w.engines[victim]->TakeCheckpoint(); });
      {
        ScopedSpan span(&b.tracer, "protocols.crash_node");
        NT_RETURN_IF_ERROR(nt::protocols::CrashNode(victim, topo, &w.engines,
                                                    w.sim.get(), false));
      }
      ScopedSpan span(&b.tracer, "net.run");
      w.sim->Run();
      return Status::OK();
    });
    {
      ScopedSpan oracle(&b.tracer, "bench.oracle");
      b.Check("crash", CheckMincost(w.engines,
                                    AllPairsLeastCost(topo, {}, victim),
                                    victim));
    }
    b.Op("op.restart", &restart_ms, w, nullptr, [&] {
      {
        ScopedSpan span(&b.tracer, "protocols.restart_node");
        NT_RETURN_IF_ERROR(nt::protocols::RestartNode(
            victim, ckpt, topo, &w.engines, w.sim.get(), nullptr, false));
      }
      ScopedSpan span(&b.tracer, "net.run");
      w.sim->Run();
      return Status::OK();
    });
    check_both(full);
    if (round == 0) RecordState(s->on, &b.layer);
  }
  b.layer["protocols.crash_ms_p50"] = crash_ms.Median();
  b.layer["protocols.restart_ms_p50"] = restart_ms.Median();
  b.layer["runtime.checkpoint_ms_p50"] =
      b.timings["runtime.checkpoint"].Median();
}

// ------------------------------------------------------------ query_mix --

void RunQueryMix(Bench& b, const Scale& sc) {
  struct State {
    nt::runtime::CompiledProgramPtr prov;
    nt::net::Topology topo;
    World on;
    // Declared after `on`: the stores observing the engines die first.
    std::unique_ptr<nt::query::ProvenanceQuerier> querier;
    std::vector<std::pair<NodeId, NodeId>> targets;
  };
  std::unique_ptr<State> s;
  b.TimeSetup([&] {
    auto next = std::make_unique<State>();
    next->prov = b.Compile(nt::protocols::MincostProgram());
    if (next->prov == nullptr) return;
    next->topo = IspTopology(sc);
    b.MakeWorld(next->topo, next->prov, 1, &next->on);
    Status st = nt::protocols::InstallLinks(next->topo, &next->on.engines,
                                            next->on.sim.get());
    if (!st.ok()) b.Fail("install: " + st.ToString());
    next->querier = b.Timed("query.attach", [&] {
      return std::make_unique<nt::query::ProvenanceQuerier>(
          next->on.sim.get(), nt::protocols::EnginePtrs(next->on.engines));
    });
    // Every mincost tuple, in a seeded order that Zipf ranks index into.
    for (NodeId a = 0; a < next->topo.num_nodes; ++a) {
      for (NodeId d = 0; d < next->topo.num_nodes; ++d) {
        if (a != d) next->targets.push_back({a, d});
      }
    }
    nt::Rng perm(kQueryRankSeed);
    perm.Shuffle(&next->targets);
    s = std::move(next);
  });
  if (b.failed > 0) return;

  using nt::query::QueryType;
  const nt::net::Topology& topo = s->topo;
  World& w = s->on;
  nt::query::ProvenanceQuerier& q = *s->querier;
  LinkChurn churn(topo, b.opt().seed + 1);
  nt::Rng pick(b.opt().seed + 2);
  DistMatrix dist = AllPairsLeastCost(topo, churn.down());
  static const char* const kTypeTimings[] = {"query.lineage", "query.nodeset",
                                             "query.derivcount"};
  Samples& link_ms = b.timings["op.link_event"];
  Samples& vlat_us = b.timings["query.vlat_us"];
  uint64_t truncated = 0, round0_hits = 0, round0_misses = 0;
  size_t events = 0;
  using Answer = nt::Result<nt::query::QueryResult>;
  for (size_t round = 0; b.KeepGoing(round); ++round) {
    // This round's queries, at the targets' current costs.
    std::vector<std::pair<Tuple, QueryType>> batch;
    for (size_t i = 0; i < sc.queries_per_event; ++i) {
      const auto [src, dst] =
          s->targets[pick.NextZipf(s->targets.size(), kZipfS)];
      batch.push_back({Tuple("mincost", {Value::Address(src),
                                         Value::Address(dst),
                                         Value::Int(dist[src][dst])}),
                       static_cast<QueryType>(i % 3)});
    }
    // The batch runs back to back with the cache on, and again with it
    // off, in an order that alternates by round.
    std::vector<Answer> answers[2];  // cache on, cache off
    const uint64_t hits0 = q.total_cache_hits();
    const uint64_t misses0 = q.total_cache_misses();
    for (int k = 0; k < 2; ++k) {
      const bool cached = (k == 0) == (round % 2 == 0);
      for (const auto& [target, type] : batch) {
        nt::query::QueryOptions qo;
        qo.type = type;
        qo.use_cache = cached;
        Answer r = Status::RuntimeError("not run");
        const double ms = b.Op(
            "op.query", cached ? &b.op_ms : &b.twin_ms, w,
            round == 0 ? (cached ? &b.op_tally : &b.twin_tally) : nullptr,
            [&] {
              ScopedSpan span(&b.tracer, "query.query");
              r = q.Query(target, qo);
              return r.ok() ? Status::OK() : r.status();
            });
        if (cached) {
          b.timings[kTypeTimings[static_cast<int>(type)]].Add(ms * 1000.0);
        }
        answers[cached ? 0 : 1].push_back(std::move(r));
      }
    }
    if (round == 0) {
      round0_hits = q.total_cache_hits() - hits0;
      round0_misses = q.total_cache_misses() - misses0;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      ScopedSpan oracle(&b.tracer, "bench.oracle");
      const Answer& on = answers[0][i];
      const Answer& off = answers[1][i];
      std::string diff;
      for (const Answer* r : {&on, &off}) {
        if (r->ok() && diff.empty()) {
          diff = CheckQueryAnswer(**r, batch[i].first.Location(), topo,
                                  churn.down());
        }
      }
      if (diff.empty() && on.ok() && off.ok() &&
          (on->count != off->count || on->leaf_vids != off->leaf_vids ||
           on->nodes != off->nodes)) {
        diff = "cached and uncached answers differ (counts " +
               std::to_string(on->count) + " and " +
               std::to_string(off->count) + ")";
      }
      if (!diff.empty()) diff = batch[i].first.ToString() + ": " + diff;
      b.window_ops = 2;
      b.Check("query", diff);
      if (on.ok()) {
        vlat_us.Add(static_cast<double>(on->latency));
        truncated += on->truncated;
      }
    }

    // One link event under the attached provenance store and caches.
    const LinkChurn::Event ev = churn.Next();
    b.Op("op.link_event", &link_ms, w, nullptr,
         [&] { return ApplyLinkEvent(b, w, topo, ev.link, ev.fail); });
    // Each node validates its cached subtrees against its own store's
    // version only, so a change to provenance held at another node leaves
    // them stale (the cached/uncached oracle above catches it within a few
    // dozen events). Until that is fixed the cache is measured only
    // between changes.
    q.ClearCaches();
    dist = AllPairsLeastCost(topo, churn.down());
    if (++events % kOracleEvery == 0) {
      ScopedSpan oracle(&b.tracer, "bench.oracle");
      b.Check("query_mix", CheckMincost(w.engines, dist));
    }
    if (round == 0) {
      RecordState(w, &b.layer);
      double edges = 0, execs = 0;
      for (NodeId n = 0; n < q.node_count(); ++n) {
        edges += static_cast<double>(q.store(n)->edge_count());
        execs += static_cast<double>(q.store(n)->exec_count());
      }
      b.layer["provenance.store_edges"] = edges;
      b.layer["provenance.store_execs"] = execs;
    }
  }
  b.layer["query.link_event_ms_p50"] = link_ms.Median();
  b.layer["query.vlat_us_p50"] = vlat_us.Median();
  b.layer["query.cache_hit_ratio"] =
      Ratio(static_cast<double>(round0_hits),
            static_cast<double>(round0_hits + round0_misses));
  b.layer["query.lineage_us_p50"] = b.timings["query.lineage"].Median();
  b.layer["query.nodeset_us_p50"] = b.timings["query.nodeset"].Median();
  b.layer["query.derivcount_us_p50"] = b.timings["query.derivcount"].Median();
  b.layer["query.truncated"] = static_cast<double>(truncated);
}

// ------------------------------------------------------------ bgp_replay -

/// A BGP world: one speaker per AS and, with `prog`, an engine running the
/// maybe-rule program plus a proxy feeding it every speaker message.
void MakeBgpWorld(Bench& b, const nt::bgp::AsTopology& topo,
                  nt::runtime::CompiledProgramPtr prog, World* w) {
  w->sim = std::make_unique<nt::net::Simulator>();
  topo.Install(w->sim.get());
  if (prog != nullptr) {
    w->engines = b.Timed("runtime.make_engines", [&] {
      Engines engines;
      for (size_t i = 0; i < topo.num_ases; ++i) {
        engines.push_back(std::make_unique<nt::runtime::Engine>(
            w->sim.get(), static_cast<NodeId>(i), prog));
      }
      return engines;
    });
    for (const auto& e : w->engines) {
      w->proxies.push_back(std::make_unique<nt::proxy::Proxy>(e.get()));
    }
  }
  for (size_t i = 0; i < topo.num_ases; ++i) {
    w->speakers.push_back(std::make_unique<nt::bgp::Speaker>(
        w->sim.get(), static_cast<NodeId>(i),
        w->proxies.empty() ? nullptr : w->proxies[i].get()));
  }
  for (const nt::bgp::AsLink& l : topo.links) {
    w->speakers[l.a]->AddNeighbor(l.b, l.relation);
    w->speakers[l.b]->AddNeighbor(l.a, nt::bgp::Reverse(l.relation));
  }
}

/// Applies trace event `i` and runs the world up to the next event's time.
void ReplayEvent(Bench& b, World& w,
                 const std::vector<nt::bgp::TraceEvent>& trace, size_t i) {
  const nt::bgp::TraceEvent& ev = trace[i];
  {
    ScopedSpan span(&b.tracer, "bgp.speaker");
    if (ev.withdraw) {
      w.speakers[ev.origin]->Withdraw(ev.prefix);
    } else {
      w.speakers[ev.origin]->Originate(ev.prefix);
    }
  }
  ScopedSpan span(&b.tracer, "net.run");
  if (i + 1 < trace.size()) {
    w.sim->RunUntil(trace[i + 1].time);
  } else {
    w.sim->Run();
  }
}

void RunBgpReplay(Bench& b, const Scale& sc) {
  nt::runtime::CompiledProgramPtr prog;
  nt::bgp::AsTopology topo;
  std::vector<nt::bgp::TraceEvent> trace;
  auto fresh_worlds = [&](World* with_proxy, World* plain) {
    MakeBgpWorld(b, topo, prog, with_proxy);
    MakeBgpWorld(b, topo, nullptr, plain);
    // The initial table transfer (one announcement per stub) is set-up.
    for (size_t i = 0; i < topo.stubs.size(); ++i) {
      ReplayEvent(b, *with_proxy, trace, i);
      ReplayEvent(b, *plain, trace, i);
    }
  };
  auto with_proxy = std::make_unique<World>();
  auto plain = std::make_unique<World>();
  b.TimeSetup([&] {
    prog = b.Compile(nt::protocols::BgpMaybeProgram());
    if (prog == nullptr) return;
    b.Timed("bgp.tracegen", [&] {
      nt::Rng topo_rng(kAsTopologySeed);
      topo = nt::bgp::MakeAsTopology(sc.as_tier1, sc.as_mid, sc.as_stub,
                                     &topo_rng);
      nt::Rng trace_rng(b.opt().seed);
      trace = nt::bgp::GenerateTrace(topo, sc.bgp_churn_events, &trace_rng);
    });
    with_proxy = std::make_unique<World>();
    plain = std::make_unique<World>();
    fresh_worlds(with_proxy.get(), plain.get());
  });
  if (b.failed > 0) return;

  const std::vector<PrefixState> final_state = FinalPrefixStates(trace);
  const size_t first = topo.stubs.size();
  const size_t mid = first + (trace.size() - first) / 2;
  double rss_mid_kb = 0;
  size_t rss_mid_event = mid;
  // BGP updates sent and messages intercepted in the proxy world so far.
  auto speaker_counts = [&] {
    uint64_t updates = 0, intercepts = 0;
    for (const auto& sp : with_proxy->speakers) updates += sp->updates_sent();
    for (const auto& px : with_proxy->proxies) {
      intercepts += px->incoming_seen() + px->outgoing_seen();
    }
    return std::pair{updates, intercepts};
  };
  for (size_t round = 0; b.KeepGoing(round); ++round) {
    if (round > 0) {
      with_proxy = std::make_unique<World>();
      plain = std::make_unique<World>();
      fresh_worlds(with_proxy.get(), plain.get());
    }
    const auto [updates0, intercepts0] = speaker_counts();
    b.window_ops = 0;
    // Each world replays the whole trace back to back; which goes first
    // alternates by round. Round 0 starts with the proxy world, whose
    // memory growth it measures.
    for (int k = 0; k < 2; ++k) {
      const bool proxied = (k == 0) == (round % 2 == 0);
      World& w = proxied ? *with_proxy : *plain;
      for (size_t i = first; i < trace.size(); i += kBgpWindow) {
        const size_t end = std::min(i + kBgpWindow, trace.size());
        b.Op("op.bgp_window", proxied ? &b.op_ms : &b.twin_ms, w,
             round == 0 ? (proxied ? &b.op_tally : &b.twin_tally) : nullptr,
             [&] {
               for (size_t j = i; j < end; ++j) ReplayEvent(b, w, trace, j);
               return Status::OK();
             });
        if (round == 0 && proxied && i <= mid && mid < end) {
          rss_mid_kb = PeakRssMb() * 1024.0;
          rss_mid_event = end;
        }
      }
      if (round == 0 && proxied) {
        b.layer["bgp.rss_growth_kb_per_event"] =
            (PeakRssMb() * 1024.0 - rss_mid_kb) /
            static_cast<double>(trace.size() - rss_mid_event);
      }
    }
    {
      ScopedSpan oracle(&b.tracer, "bench.oracle");
      std::string diff =
          CheckBgpRoutes(topo, with_proxy->speakers, final_state);
      if (diff.empty()) {
        diff = CheckBgpRoutes(topo, plain->speakers, final_state);
      }
      for (size_t x = 0; x < topo.num_ases && diff.empty(); ++x) {
        for (const PrefixState& p : final_state) {
          auto r1 = with_proxy->speakers[x]->BestRoute(p.prefix);
          auto r2 = plain->speakers[x]->BestRoute(p.prefix);
          if (r1.has_value() != r2.has_value() ||
              (r1 && r1->as_path != r2->as_path)) {
            diff = "the proxy changed AS " + std::to_string(x) +
                   "'s route for prefix " + std::to_string(p.prefix);
            break;
          }
        }
      }
      b.Check("bgp_replay", diff);
    }
    if (round == 0) {
      const double events = static_cast<double>(trace.size() - first);
      const auto [updates, intercepts] = speaker_counts();
      b.layer["bgp.updates_per_event"] =
          static_cast<double>(updates - updates0) / events;
      b.layer["proxy.intercepts_per_event"] =
          static_cast<double>(intercepts - intercepts0) / events;
      RecordState(*with_proxy, &b.layer);
    }
  }
}

// ------------------------------------------------------------ output -----

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run, whatever the workload. "op" is the
/// workload's primary op; "twin" is the same op without the mechanism
/// under study.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_ms_p50", "ms"},
    {"twin_op_ms_p50", "ms"},
    // What the mechanism costs: the median over ops of op time / twin time
    // on the same input. Both sides of a pair run within seconds of each
    // other and slow down together when the host is loaded, so the ratio
    // stays steady where the times do not.
    {"overhead_x", "x"},
};

/// Reported by every traced run. A layer the workload never calls reads 0.
constexpr MetricDef kPerLayer[] = {
    // The primary op's tail. It moves with the host's load phases far more
    // than the median does, so it carries no bound.
    {"op_ms_p90", "ms"},
    // Set-up calls, median per call.
    {"ndlog.compile_ms", "ms"},
    {"runtime.make_engines_ms", "ms"},
    {"query.attach_ms", "ms"},
    {"bgp.tracegen_ms", "ms"},
    // Self time of each layer span, as a share of traced op wall time.
    {"runtime.make_engines_share", "ratio"},
    {"runtime.local_drain_share", "ratio"},
    {"net.run_share", "ratio"},
    {"runtime.checkpoint_share", "ratio"},
    {"protocols.crash_node_share", "ratio"},
    {"protocols.restart_node_share", "ratio"},
    {"query.query_share", "ratio"},
    {"bgp.speaker_share", "ratio"},
    {"trace.span_coverage", "ratio"},
    {"trace.op_coverage_p01", "ratio"},
    {"trace.overhead", "ratio"},
    // Counters per primary op, over the first round.
    {"runtime.deltas_per_op", "count/op"},
    {"runtime.dispatches_per_op", "count/op"},
    {"runtime.firings_per_op", "count/op"},
    {"runtime.agg_recomputes_per_op", "count/op"},
    {"runtime.shipped_per_op", "count/op"},
    {"runtime.batch_fill", "tuples/batch"},
    {"runtime.probes_per_firing", "ratio"},
    {"runtime.index_probe_share", "ratio"},
    {"runtime.scan_fallbacks", "count"},
    {"net.events_per_op", "count/op"},
    {"net.msgs_per_op", "count/op"},
    {"net.bytes_per_op", "B/op"},
    {"net.tuples_per_msg", "ratio"},
    {"net.virtual_ms_per_op", "ms/op"},
    {"net.frame_pool", "count"},
    // Bytes on the wire, primary op over its twin.
    {"twin.bytes_x", "x"},
    // State of the primary world after the first round.
    {"runtime.live_tuples", "count"},
    {"runtime.prov_tuples", "count"},
    {"provenance.tuple_share", "ratio"},
    {"runtime.table_slots", "count"},
    {"runtime.vids_interned", "count"},
    {"provenance.store_edges", "count"},
    {"provenance.store_execs", "count"},
    // Workload-specific timings and counts.
    {"net.t4_converge_ms_p50", "ms"},
    {"net.t4_speedup", "x"},
    {"runtime.checkpoint_ms_p50", "ms"},
    {"protocols.crash_ms_p50", "ms"},
    {"protocols.restart_ms_p50", "ms"},
    {"query.link_event_ms_p50", "ms"},
    {"query.vlat_us_p50", "us"},
    {"query.cache_hit_ratio", "ratio"},
    {"query.lineage_us_p50", "us"},
    {"query.nodeset_us_p50", "us"},
    {"query.derivcount_us_p50", "us"},
    {"query.truncated", "count"},
    {"bgp.updates_per_event", "count/op"},
    {"proxy.intercepts_per_event", "count/op"},
    {"bgp.rss_growth_kb_per_event", "KB/op"},
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::map<std::string, double> EndToEndValues(const Bench& b) {
  return {{"setup_s", b.setup_s.Median()},
          {"peak_rss_mb", b.first_round_rss_mb},
          {"op_ms_p50", b.op_ms.Median()},
          {"twin_op_ms_p50", b.twin_ms.Median()},
          {"overhead_x", b.op_ms.MedianRatio(b.twin_ms)}};
}

std::map<std::string, double> PerLayerValues(Bench& b) {
  std::map<std::string, double> v = b.layer;
  v["op_ms_p90"] = b.op_ms.Quantile(0.9);
  for (const char* call : {"ndlog.compile", "runtime.make_engines",
                           "query.attach", "bgp.tracegen"}) {
    auto it = b.timings.find(call);
    v[std::string(call) + "_ms"] =
        it == b.timings.end() ? 0 : it->second.Median();
  }
  const std::map<std::string, Tracer::Row> rows = b.tracer.Summary(true);
  double op_ms = 0, covered_ms = 0;
  for (const auto& [name, row] : rows) {
    if (name.rfind("op.", 0) == 0) {
      op_ms += row.total_ms;
      covered_ms += row.total_ms - row.self_ms;
    }
  }
  for (const char* span :
       {"runtime.make_engines", "runtime.local_drain", "net.run",
        "runtime.checkpoint", "protocols.crash_node", "protocols.restart_node",
        "query.query", "bgp.speaker"}) {
    auto it = rows.find(span);
    v[std::string(span) + "_share"] =
        it == rows.end() ? 0 : Ratio(it->second.self_ms, op_ms);
  }
  v["trace.span_coverage"] = Ratio(covered_ms, op_ms);
  // One interrupt can uncover most of a 20 us query, so the per-op figure
  // is the 1st percentile rather than the minimum.
  v["trace.op_coverage_p01"] = b.tracer.OpCoverage(0.01);
  v["trace.overhead"] =
      Ratio(b.op_ms.Quantile(0.5, 1), b.op_ms.Quantile(0.5, 0)) - 1.0;

  const Tally& t = b.op_tally;
  v["runtime.deltas_per_op"] = t.PerOp(kDeltas);
  v["runtime.dispatches_per_op"] = t.PerOp(kDispatches);
  v["runtime.firings_per_op"] = t.PerOp(kFirings);
  v["runtime.agg_recomputes_per_op"] = t.PerOp(kAggRecomputes);
  v["runtime.shipped_per_op"] = t.PerOp(kShipped);
  v["runtime.batch_fill"] = Ratio(t.sum[kBatchedTuples], t.sum[kBatches]);
  v["runtime.probes_per_firing"] = Ratio(t.sum[kJoinProbes], t.sum[kFirings]);
  v["runtime.index_probe_share"] = Ratio(
      t.sum[kIndexProbes], t.sum[kIndexProbes] + t.sum[kBroadcastProbes] +
                               t.sum[kScanFallbacks]);
  v["runtime.scan_fallbacks"] = static_cast<double>(t.sum[kScanFallbacks]);
  v["net.events_per_op"] = t.PerOp(kEvents);
  v["net.msgs_per_op"] = t.PerOp(kMsgs);
  v["net.bytes_per_op"] = t.PerOp(kBytes);
  v["net.tuples_per_msg"] = Ratio(t.sum[kTuples], t.sum[kMsgs]);
  v["net.virtual_ms_per_op"] = t.PerOp(kVirtualUs) / 1000.0;
  v["twin.bytes_x"] = Ratio(t.PerOp(kBytes), b.twin_tally.PerOp(kBytes));
  v["provenance.tuple_share"] =
      Ratio(v["runtime.prov_tuples"], v["runtime.live_tuples"]);
  // Unmeasured is absent, not 0: only a counting build reports allocations.
  if (nt::AllocCountingEnabled()) v["runtime.allocs_per_op"] = t.PerOp(kAllocs);
  return v;
}

void PrintLayerTable(const Tracer& tracer) {
  const std::map<std::string, Tracer::Row> rows = tracer.Summary(true);
  double op_ms = 0;
  for (const auto& [name, row] : rows) {
    if (name.rfind("op.", 0) == 0) op_ms += row.total_ms;
  }
  std::printf("| span | calls | total ms | self ms | share of op time |\n");
  std::printf("|---|---:|---:|---:|---:|\n");
  for (const auto& [name, row] : rows) {
    std::printf("| %s | %llu | %.3f | %.3f | %.4f |\n", name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_ms,
                row.self_ms, Ratio(row.self_ms, op_ms));
  }
}

int Report(Bench& b, const Options& opt) {
  const bool correct = b.failed == 0;
  const uint64_t failed = std::min(b.failed, b.attempted);
  const uint64_t attempted = std::max<uint64_t>(b.attempted, 1);
  std::map<std::string, double> values =
      opt.trace ? PerLayerValues(b) : EndToEndValues(b);
  std::string metrics;
  auto emit = [&](const char* name, const char* unit) {
    auto it = values.find(name);
    const double v = it == values.end() ? 0 : it->second;
    std::printf("%-32s %16.6f %s\n", name, v, unit);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name +
               "\": {\"value\": " + Num(v) + ", \"unit\": \"" + unit + "\"}";
  };
  std::printf("# samples: op=%zu twin=%zu setup=%zu\n", b.op_ms.size(),
              b.twin_ms.size(), b.setup_s.size());
  if (opt.trace) {
    PrintLayerTable(b.tracer);
    for (const MetricDef& m : kPerLayer) emit(m.name, m.unit);
    if (values.count("runtime.allocs_per_op")) {
      emit("runtime.allocs_per_op", "count/op");
    }
    if (!opt.trace_file.empty() && !b.tracer.WriteChromeJson(opt.trace_file)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_file.c_str());
    }
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m.name, m.unit);
  }
  for (const std::string& f : b.failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
      metrics + "}}";
  if (!opt.out_file.empty()) {
    std::string failures;
    for (const std::string& f : b.failures) {
      failures += std::string(failures.empty() ? "" : ", ") + "\"" +
                  JsonEscape(f) + "\"";
    }
    std::FILE* f = std::fopen(opt.out_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.out_file.c_str());
    } else {
      std::fprintf(
          f,
          "{\"context\": {\"commit\": \"%s\", \"nproc\": %u, \"compiler\": "
          "\"%s\", \"build_type\": \"%s\"},\n \"workload\": \"%s\", "
          "\"seed\": %llu, \"seconds\": %s, \"scale\": \"%s\", \"trace\": %s,\n"
          " \"samples\": {\"op\": %zu, \"twin\": %zu, \"setup\": %zu},\n"
          " \"failures\": [%s],\n \"result\": %s}\n",
          JsonEscape(opt.commit).c_str(), std::thread::hardware_concurrency(),
          NETTRAILS_E2E_COMPILER, NETTRAILS_E2E_BUILD_TYPE,
          opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
          Num(opt.seconds).c_str(), opt.smoke ? "smoke" : "full",
          opt.trace ? "true" : "false", b.op_ms.size(), b.twin_ms.size(),
          b.setup_s.size(), failures.c_str(), result.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ------------------------------------------------------------ main -------

constexpr const char* kUsage =
    "usage: bench_e2e --workload converge|churn|query_mix|bgp_replay\n"
    "                 [--seed N] [--seconds S] [--trace 0|1] "
    "[--scale full|smoke]\n"
    "                 [--trace-file FILE] [--benchmark_out FILE] "
    "[--commit SHA]\n"
    "Other --benchmark_* flags are accepted and ignored.\n";

bool ParseArgs(int argc, char** argv, Options* opt) {
  static const char* const kValueFlags[] = {
      "--workload",   "--seed",          "--seconds", "--trace", "--scale",
      "--trace-file", "--benchmark_out", "--commit"};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (std::find(std::begin(kValueFlags), std::end(kValueFlags),
                         arg) != std::end(kValueFlags)) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt->seconds >= 0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (arg == "--scale") {
      if (value != "full" && value != "smoke") return false;
      opt->smoke = value == "smoke";
    } else if (arg == "--trace-file") {
      opt->trace_file = value;
    } else if (arg == "--benchmark_out") {
      opt->out_file = value;
    } else if (arg == "--commit") {
      opt->commit = value;
    } else if (arg.rfind("--benchmark_", 0) != 0) {
      return false;
    }
  }
  return !opt->workload.empty();
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  if (!e2e::ParseArgs(argc, argv, &opt)) {
    std::fputs(e2e::kUsage, stderr);
    return 2;
  }
  static const std::map<std::string, void (*)(e2e::Bench&, const e2e::Scale&)>
      kWorkloads = {{"converge", e2e::RunConverge},
                    {"churn", e2e::RunChurn},
                    {"query_mix", e2e::RunQueryMix},
                    {"bgp_replay", e2e::RunBgpReplay}};
  auto it = kWorkloads.find(opt.workload);
  if (it == kWorkloads.end()) {
    std::fputs(e2e::kUsage, stderr);
    return 2;
  }
  std::printf(
      "# bench_e2e workload=%s seed=%llu seconds=%g scale=%s trace=%d\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.smoke ? "smoke" : "full", opt.trace ? 1 : 0);
  e2e::Bench bench(opt);
  it->second(bench, opt.smoke ? e2e::kSmokeScale : e2e::kFullScale);
  return e2e::Report(bench, opt);
}
