// core::SchedulerService — the online scheduler-service mode.
//
// Wraps a streaming-constructed simulator behind a line-oriented text
// protocol so a driver (stdin pipe, socket relay, test harness) can inject
// work while the simulation is in flight and interrogate it between steps:
//
//   submit <time> <procs> <runtime> <estimate> [memMb]   -> ok <id>
//   cancel <id>                                          -> ok cancelled <id>
//   query <id>                                           -> ok job <id> ...
//   stats                                                -> ok now <t> ...
//   drain                                                -> ok drained ...
//
// Fields are separated by runs of whitespace (space, \t, \v, \f, \r).
// Every numeric field is one whole decimal token: `10junk`, an empty sign
// and a value outside the field's type are malformed. Only the time fields
// (<time>, <runtime>, <estimate>) take a sign, '+' or '-'; <procs>, [memMb]
// and <id> take none. A token left after a verb's fields is malformed too,
// so a `#` comment must start its own line.
//
// Any failure answers `err <verb>: <reason>` on the same line boundary; a
// malformed line answers `err <verb>: expected: <grammar>` and changes no
// state. Blank lines and `#` comments are ignored and produce no reply. One
// reply line per command line, in command order — the protocol is
// sequential by construction, so replies never interleave.
//
// Bounded lookahead: the simulator only ever advances to the instant just
// before the newest externally known submit time (`runUntil(t - 1)`), then
// ingests the job. It never speculates past its input, so a replayed trace
// produces the schedule the batch run produces, bit for bit — the same
// discipline a conservatively synchronized PDES federate (SST-style) uses,
// with the submit stream as the lookahead channel.
//
// Threading: the service is strictly single-threaded — call it from one
// thread. processLine() is the whole service; serve() is its stream driver
// and reads, executes and answers one line at a time on the calling thread,
// so unread input waits in the stream while a line executes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "core/simulation.hpp"

namespace sps::util {
class FieldCursor;
}

namespace sps::core {

struct ServiceConfig {
  /// Label for the synthetic trace the stream builds up (lands in metrics).
  std::string traceName = "service";
  /// Machine size; must be positive (there is no trace to infer it from).
  std::uint32_t machineProcs = 0;
  /// Scheduling policy driven by the stream. Policies that cannot repair
  /// bound future state reject `cancel` (Simulator::cancelJob contract);
  /// every policy accepts `submit`.
  PolicySpec spec{};
  /// The usual run options (checkers, timeline, trace sink, sim config).
  /// `options.progress` is ignored — the protocol's `stats` verb is the
  /// service's progress channel.
  SimulationOptions options{};
};

class SchedulerService {
 public:
  /// Builds the policy and an empty (streaming) simulator. Throws
  /// InputError when machineProcs == 0.
  explicit SchedulerService(ServiceConfig config);

  /// Parse and execute one protocol line against the simulator, advancing
  /// it under bounded lookahead first when the command requires it.
  /// Returns the reply line (without trailing newline); empty for blank or
  /// comment lines, which have no reply. Never throws on malformed input —
  /// those become `err` replies; InvariantError (an armed oracle firing)
  /// propagates, as it does everywhere else.
  [[nodiscard]] std::string processLine(std::string_view line);

  /// Drive the service from a stream on the calling thread: read a line,
  /// execute it, and write its reply line to `out` (flushed per line, so a
  /// socket pipe sees replies promptly). At end of input the run is
  /// finished implicitly if no `drain` command did it. Returns the final
  /// stats.
  metrics::RunStats serve(std::istream& in, std::ostream& out);

  /// Drain the simulator and collect final metrics. Idempotent: the first
  /// call finishes the run, later calls return the same stats. After this,
  /// state-changing verbs answer `err`.
  [[nodiscard]] metrics::RunStats finish();

  [[nodiscard]] bool drained() const { return stats_.has_value(); }
  [[nodiscard]] std::uint64_t submissions() const { return submissions_; }
  [[nodiscard]] sim::Simulator& simulator() { return harness_.simulator(); }

 private:
  std::string doSubmit(util::FieldCursor& args);
  std::string doCancel(util::FieldCursor& args);
  std::string doQuery(util::FieldCursor& args);
  std::string doStats(util::FieldCursor& args);
  std::string doDrain(util::FieldCursor& args);

  SimulationHarness harness_;
  std::uint64_t submissions_ = 0;
  std::optional<metrics::RunStats> stats_;
};

}  // namespace sps::core
