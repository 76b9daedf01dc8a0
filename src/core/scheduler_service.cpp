#include "core/scheduler_service.hpp"

#include <condition_variable>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/fields.hpp"

namespace sps::core {

namespace {

/// Reply helpers: every command answers exactly one `ok ...` or
/// `err <verb>: ...` line.
std::string err(const char* verb, std::string_view why) {
  std::string reply = "err ";
  reply += verb;
  reply += ": ";
  reply += why;
  return reply;
}

/// Times that may legitimately be "not yet" (kNoTime) print as '-'.
void appendTime(std::string& out, Time t) {
  if (t == kNoTime) out += '-';
  else util::appendInt(out, t);
}

}  // namespace

SchedulerService::SchedulerService(ServiceConfig config)
    : harness_(std::move(config.traceName), config.machineProcs, config.spec,
               config.options) {}

std::string SchedulerService::processLine(std::string_view line) {
  util::FieldCursor args(line);
  const std::string_view verb = args.word();
  if (verb.empty() || verb[0] == '#') return "";  // blank / comment
  if (verb == "submit") return doSubmit(args);
  if (verb == "cancel") return doCancel(args);
  if (verb == "query") return doQuery(args);
  if (verb == "stats") return doStats(args);
  if (verb == "drain") return doDrain(args);
  return err("parse", "unknown verb '" + std::string(verb) + "'");
}

std::string SchedulerService::doSubmit(util::FieldCursor& args) {
  if (drained()) return err("submit", "run already drained");
  const auto submit = args.integer<Time>();
  const auto procs = args.integer<std::uint32_t>();
  const auto runtime = args.integer<Time>();
  const auto estimate = args.integer<Time>();
  std::optional<std::uint32_t> memoryMb = 0;  // optional field
  if (!args.atEnd()) memoryMb = args.integer<std::uint32_t>();
  if (!submit || !procs || !runtime || !estimate || !memoryMb ||
      !args.atEnd())
    return err("submit",
               "expected: submit <time> <procs> <runtime> <estimate> [memMb]");
  workload::Job job;
  job.submit = *submit;
  job.procs = *procs;
  job.runtime = *runtime;
  job.estimate = *estimate;
  job.memoryMb = *memoryMb;
  try {
    // Bounded lookahead: the submit line extends the known-input horizon to
    // job.submit, so the simulator may now advance to the instant before it
    // (events AT the submit instant must see the arrival already enqueued).
    // A submit in the simulated past is rejected by Simulator::submit
    // before any state changes, so runUntil first is safe: job.submit - 1
    // below now() makes runUntil a no-op.
    if (job.submit > harness_.simulator().now())
      harness_.simulator().runUntil(job.submit - 1);
    const JobId id = harness_.simulator().submit(job);
    ++submissions_;
    std::string reply = "ok ";
    util::appendInt(reply, id);
    return reply;
  } catch (const InputError& e) {
    return err("submit", e.what());
  }
}

std::string SchedulerService::doCancel(util::FieldCursor& args) {
  if (drained()) return err("cancel", "run already drained");
  const auto id = args.integer<JobId>();
  if (!id || !args.atEnd()) return err("cancel", "expected: cancel <id>");
  if (*id >= harness_.simulator().jobCount())
    return err("cancel", "no such job " + std::to_string(*id));
  if (!harness_.simulator().cancelJob(*id))
    return err("cancel",
               "job " + std::to_string(*id) + " not cancellable (state " +
                   sim::jobStateName(harness_.simulator().state(*id)) + ")");
  std::string reply = "ok cancelled ";
  util::appendInt(reply, *id);
  return reply;
}

std::string SchedulerService::doQuery(util::FieldCursor& args) {
  const auto id = args.integer<JobId>();
  if (!id || !args.atEnd()) return err("query", "expected: query <id>");
  const sim::Simulator& s = harness_.simulator();
  if (*id >= s.jobCount())
    return err("query", "no such job " + std::to_string(*id));
  std::string reply = "ok job ";
  reply.reserve(96);  // the whole reply in one allocation
  util::appendInt(reply, *id);
  reply += " state ";
  reply += sim::jobStateName(s.state(*id));
  reply += " submit ";
  util::appendInt(reply, s.job(*id).submit);
  reply += " start ";
  appendTime(reply, s.exec(*id).firstStart);
  reply += " finish ";
  appendTime(reply, s.exec(*id).finish);
  return reply;
}

std::string SchedulerService::doStats(util::FieldCursor& args) {
  if (!args.atEnd()) return err("stats", "expected: stats");
  const sim::Simulator& s = harness_.simulator();
  std::string reply = "ok now ";
  reply.reserve(96);  // the whole reply in one allocation
  util::appendInt(reply, s.now());
  reply += " events ";
  util::appendInt(reply, s.eventsProcessed());
  reply += " submitted ";
  util::appendInt(reply, submissions_);
  reply += " unfinished ";
  util::appendInt(reply, s.unfinishedJobs());
  reply += " free ";
  util::appendInt(reply, s.freeCount());
  return reply;
}

std::string SchedulerService::doDrain(util::FieldCursor& args) {
  if (drained()) return err("drain", "run already drained");
  if (!args.atEnd()) return err("drain", "expected: drain");
  // Once per run, so it keeps ostream's default formatting of `util` (a
  // shortest-form to_chars double would print different text).
  const metrics::RunStats stats = finish();
  std::ostringstream os;
  os << "ok drained jobs " << stats.jobs.size() << " events "
     << stats.eventsProcessed << " span " << stats.span << " util "
     << stats.utilization;
  return os.str();
}

metrics::RunStats SchedulerService::finish() {
  if (!stats_) stats_ = harness_.finish();
  return *stats_;
}

metrics::RunStats SchedulerService::serve(std::istream& in,
                                          std::ostream& out) {
  // Reader thread -> bounded queue -> this thread. The bound is
  // backpressure, not correctness: when the simulator falls behind, the
  // reader blocks instead of buffering the whole input; commands still
  // execute strictly in input order on this thread only.
  constexpr std::size_t kQueueBound = 1024;
  std::mutex mutex;
  std::condition_variable readable;
  std::condition_variable writable;
  std::deque<std::string> pending;
  bool eof = false;

  std::thread reader([&] {
    std::string line;
    while (std::getline(in, line)) {
      std::unique_lock lock(mutex);
      writable.wait(lock, [&] { return pending.size() < kQueueBound; });
      pending.push_back(std::move(line));
      readable.notify_one();
    }
    std::lock_guard lock(mutex);
    eof = true;
    readable.notify_one();
  });

  for (;;) {
    std::string line;
    {
      std::unique_lock lock(mutex);
      readable.wait(lock, [&] { return eof || !pending.empty(); });
      if (pending.empty()) break;  // eof and nothing left
      line = std::move(pending.front());
      pending.pop_front();
      writable.notify_one();
    }
    const std::string reply = processLine(line);
    if (!reply.empty()) out << reply << '\n' << std::flush;
  }
  reader.join();
  // End of input finishes the run exactly as an explicit `drain` does.
  return finish();
}

}  // namespace sps::core
