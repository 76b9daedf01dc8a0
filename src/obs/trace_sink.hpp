// TraceSink — the structured-event half of the observability layer.
//
// Instrumentation sites build a TraceEvent (a flat, allocation-free record:
// static-string category/name, a timestamp, a lane, and up to four integer
// args) and hand it to whatever TraceSink the run's obs::Recorder carries.
// Two sinks ship with the library:
//
//   * ChromeTraceSink — the Chrome trace-event JSON format ({"traceEvents":
//     [...]}), loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//     Simulation seconds are written as microseconds (1 s -> 1 us), so a
//     day-long schedule spans a readable ~86 ms of trace time.
//   * JsonlSink — one JSON object per line, for jq/awk pipelines.
//
// Both serialize through metrics::JsonWriter and take the util/log emit
// mutex around every write, so trace output, SPS_LOG lines, and concurrent
// Runner workers sharing one sink never interleave mid-line.
//
// A run emits events only when it has a sink: see obs/trace.hpp for the
// policy and kernel sites, obs::attachRunTrace (obs/timeline.hpp) for the
// simulator's own.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

namespace sps::obs {

/// One structured trace event. Category, name, and arg keys must be string
/// literals (or otherwise outlive the emit() call): the record stores
/// pointers, never copies.
struct TraceEvent {
  /// Chrome trace-event phases (the "ph" field).
  enum class Phase : char {
    Instant = 'i',
    Begin = 'B',
    End = 'E',
    Complete = 'X',
    Counter = 'C',
  };

  static constexpr std::size_t kMaxArgs = 4;
  struct Arg {
    const char* key = nullptr;
    std::int64_t value = 0;
  };

  Phase phase = Phase::Instant;
  const char* category = "";
  const char* name = "";
  std::int64_t ts = 0;   ///< microseconds (simulation: 1 sim-second == 1 us)
  std::int64_t dur = 0;  ///< Complete events only
  std::uint64_t lane = 0;  ///< rendered as the Chrome "tid" (one row per lane)
  std::array<Arg, kMaxArgs> args{};
  std::size_t argCount = 0;
  const char* strKey = nullptr;  ///< optional single string arg
  const char* strValue = nullptr;

  /// Fluent integer arg; silently drops args past kMaxArgs.
  TraceEvent& arg(const char* key, std::int64_t value) {
    if (argCount < kMaxArgs) args[argCount++] = {key, value};
    return *this;
  }
  /// Fluent string arg (one slot; the pointer must outlive emit()).
  TraceEvent& str(const char* key, const char* value) {
    strKey = key;
    strValue = value;
    return *this;
  }
};

[[nodiscard]] inline TraceEvent instant(const char* category, const char* name,
                                        std::int64_t ts,
                                        std::uint64_t lane = 0) {
  TraceEvent e;
  e.category = category;
  e.name = name;
  e.ts = ts;
  e.lane = lane;
  return e;
}

[[nodiscard]] inline TraceEvent begin(const char* category, const char* name,
                                      std::int64_t ts, std::uint64_t lane = 0) {
  TraceEvent e = instant(category, name, ts, lane);
  e.phase = TraceEvent::Phase::Begin;
  return e;
}

[[nodiscard]] inline TraceEvent end(const char* category, const char* name,
                                    std::int64_t ts, std::uint64_t lane = 0) {
  TraceEvent e = instant(category, name, ts, lane);
  e.phase = TraceEvent::Phase::End;
  return e;
}

[[nodiscard]] inline TraceEvent complete(const char* category,
                                         const char* name, std::int64_t ts,
                                         std::int64_t dur,
                                         std::uint64_t lane = 0) {
  TraceEvent e = instant(category, name, ts, lane);
  e.phase = TraceEvent::Phase::Complete;
  e.dur = dur;
  return e;
}

[[nodiscard]] inline TraceEvent counter(const char* category, const char* name,
                                        std::int64_t ts) {
  TraceEvent e = instant(category, name, ts);
  e.phase = TraceEvent::Phase::Counter;
  return e;
}

/// Destination for trace events. Implementations must tolerate emit() from
/// several Runner workers at once (the shipped sinks lock the shared log
/// mutex; see obs/trace_sink.cpp).
class TraceSink {
 public:
  virtual ~TraceSink();
  virtual void emit(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// Chrome trace-event JSON, one event per line inside {"traceEvents":[...]}.
/// The closing bracket is written by the destructor — destroy (or flush and
/// close) the sink before handing the file to Perfetto.
class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& os);
  /// Opens `path` for writing; throws InputError on failure.
  explicit ChromeTraceSink(const std::string& path);
  ~ChromeTraceSink() override;

  void emit(const TraceEvent& event) override;
  void flush() override;
  [[nodiscard]] std::uint64_t eventCount() const { return count_; }

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream& os_;
  std::uint64_t count_ = 0;
};

/// One JSON object per line, no surrounding array — for streaming pipelines.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& os);
  explicit JsonlSink(const std::string& path);

  void emit(const TraceEvent& event) override;
  void flush() override;
  [[nodiscard]] std::uint64_t eventCount() const { return count_; }

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream& os_;
  std::uint64_t count_ = 0;
};

/// Counts emit() calls and drops the events — the stub the tests use to
/// count what a run emits. The count is atomic so one stub can be shared
/// across Runner workers.
class CountingSink final : public TraceSink {
 public:
  void emit(const TraceEvent& /*event*/) override {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace sps::obs
