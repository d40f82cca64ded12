// Scenario scripts: timed link-churn and node crash/restart events as data
// files, replayable against any (protocol, topology) pair. A scenario is
// topology-portable: events address links and nodes by *index*, reduced
// modulo the topology's link/node count at run time, so one committed
// script (examples/scenarios/*.scn) drives every topology in the corpus.
//
// File format, one event per line ('#' comments, blank lines ignored):
//
//   scenario <name>            optional, at most once, first
//   at <time> fail <i>         delete both link tuples of links[i % L]
//   at <time> recover <i>      re-insert them
//   at <time> crash <i>        crash node (i % N): checkpoint, halt, scrub
//   at <time> restart <i>      restart it from the crash-time checkpoint
//
// <time> is an integer with a unit suffix: us, ms, or s. Event times must
// be non-decreasing. The runner advances the simulator to each event time
// *without* forcing quiescence first, so closely spaced events deliberately
// overlap in-flight convergence; after the last event it runs to
// quiescence. Events that do not apply in the current world state — fail
// of an already-failed link, recover of a live one, crash of a crashed
// node, restart of a running one, or churn touching a crashed endpoint —
// are counted and skipped deterministically, which is what makes a script
// meaningful on every topology it is reduced onto.
#ifndef NETTRAILS_NET_SCENARIO_H_
#define NETTRAILS_NET_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/simulator.h"
#include "src/net/topology.h"

namespace nettrails {
namespace runtime {
class Engine;
}  // namespace runtime

namespace net {

enum class ScenarioAction : uint8_t {
  kFailLink,
  kRecoverLink,
  kCrashNode,
  kRestartNode,
};

const char* ScenarioActionName(ScenarioAction a);

struct ScenarioEvent {
  Time time = 0;
  ScenarioAction action = ScenarioAction::kFailLink;
  /// Link index (fail/recover) or node index (crash/restart); reduced
  /// modulo the topology's link/node count when the scenario runs.
  uint64_t index = 0;
};

struct Scenario {
  std::string name;
  std::vector<ScenarioEvent> events;
};

/// Parses the scenario format above. Errors carry the 1-based line number.
Result<Scenario> ParseScenario(const std::string& text);

/// Reads and parses a scenario file; errors are prefixed with the path.
Result<Scenario> LoadScenarioFile(const std::string& path);

/// Canonical serialization (times rendered in the largest exact unit).
/// Round-trips through ParseScenario bit-for-bit.
std::string SerializeScenario(const Scenario& s);

struct ScenarioRunStats {
  size_t applied = 0;
  size_t skipped = 0;
};

/// Replays `scenario` against a running world. The engines must have been
/// built over `topo` (one per node, links installed). Advances virtual
/// time to each event, applies it via the protocols:: churn/crash helpers,
/// and finally runs the simulator to quiescence. Provenance stores and
/// query caches over the engines stay valid across a restart: they read
/// the restored tables and see the engine's provenance version advance.
Result<ScenarioRunStats> RunScenario(
    const Scenario& scenario, const Topology& topo,
    std::vector<std::unique_ptr<runtime::Engine>>* engines, Simulator* sim);

}  // namespace net
}  // namespace nettrails

#endif  // NETTRAILS_NET_SCENARIO_H_
