// Live batch progress — the third leg of the telemetry subsystem.
//
// A long `compare`/`sweep`/`replicate` batch on a core::Runner is opaque
// until it finishes; ProgressBoard makes it observable while it runs. Each
// worker publishes its run's sim-clock fraction and event count through
// lock-free atomics (one Slot per concurrent run), the board aggregates
// them into a ProgressSnapshot on demand, and ProgressReporter renders a
// single updating stderr line (`sps_sim --progress`).
//
// Determinism contract: the *final* snapshot is thread-count invariant —
// runsDone == runsTotal, `events` equals the exact sum of every run's
// eventsProcessed (per-run publishes are delta-corrected on finish), no
// active fractions remain. Only the intermediate snapshots (and their
// timing) vary run to run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <thread>
#include <vector>

#include "util/types.hpp"

namespace sps::core {

/// Subscriber for in-run progress. runSimulation() invokes this every
/// kProgressStride events (core/simulation.hpp), on whatever thread runs the
/// simulation (a Runner worker, or the caller on the inline path).
class RunProgressListener {
 public:
  virtual ~RunProgressListener();
  /// `simNow` is the current sim clock, `eventsSoFar` the events dispatched
  /// by this run so far (monotone within the run).
  virtual void onSimProgress(Time simNow, std::uint64_t eventsSoFar) = 0;
};

/// Point-in-time aggregate of a batch (see ProgressBoard::snapshot()).
struct ProgressSnapshot {
  std::size_t runsTotal = 0;
  std::size_t runsDone = 0;
  std::size_t runsActive = 0;
  /// Events dispatched so far, summed across done and in-flight runs.
  std::uint64_t events = 0;
  double elapsedSeconds = 0.0;
  double eventsPerSec = 0.0;
  /// (runsDone + sum of active sim-clock fractions) / runsTotal, in [0, 1].
  double fractionDone = 0.0;
  /// Simple proportional estimate; -1 until fractionDone > 0.
  double etaSeconds = -1.0;
  /// Sim-clock fraction of each in-flight run (unordered).
  std::vector<double> activeSimFractions;
};

/// One publisher slot per concurrent run (internal to ProgressBoard; the
/// Ticket holds a stable pointer so publishes stay lock-free).
struct Slot {
  std::atomic<bool> active{false};
  std::atomic<double> fraction{0.0};
};

/// Shared scoreboard for one or more batches. Thread-safe throughout: the
/// Runner workers publish through Tickets, any thread may snapshot().
class ProgressBoard {
 public:
  ProgressBoard() = default;
  ProgressBoard(const ProgressBoard&) = delete;
  ProgressBoard& operator=(const ProgressBoard&) = delete;

  /// Per-run publisher handle. Obtained from startRun(); hand its address
  /// to SimulationOptions::progress. Releases its slot on destruction if
  /// finishRun was never called (exception path).
  class Ticket final : public RunProgressListener {
   public:
    Ticket() = default;
    ~Ticket() override;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    void onSimProgress(Time simNow, std::uint64_t eventsSoFar) override;

   private:
    friend class ProgressBoard;
    ProgressBoard* board_ = nullptr;
    Slot* slot_ = nullptr;
    Time horizon_ = 0;          ///< last submit time; caps the fraction at 1
    std::uint64_t published_ = 0;  ///< events already folded into the board
  };

  /// Announce `runs` more runs. Cumulative: a Runner used for several
  /// batches (replicate's calibration + grid) keeps one growing total. The
  /// wall clock starts at the first call.
  void beginBatch(std::size_t runs);

  /// Claim a slot for a run whose sim clock will top out around `horizon`
  /// (<= 0 reports fraction 1 throughout — span unknown).
  [[nodiscard]] Ticket startRun(Time horizon);

  /// Retire a run: folds the exact final event count (replacing the strided
  /// estimates) and increments runsDone. The ticket becomes inert.
  void finishRun(Ticket& ticket, std::uint64_t finalEvents);

  [[nodiscard]] ProgressSnapshot snapshot() const;

 private:
  void release(Ticket& ticket);

  mutable std::mutex mutex_;  ///< guards slots_/freeSlots_ structure
  std::deque<Slot> slots_;    ///< deque: stable addresses as it grows
  std::vector<Slot*> freeSlots_;
  std::atomic<std::size_t> runsTotal_{0};
  std::atomic<std::size_t> runsDone_{0};
  std::atomic<std::uint64_t> events_{0};
  std::chrono::steady_clock::time_point start_{};
  bool started_ = false;  ///< under mutex_
};

/// Background renderer: repaints one `\r`-terminated stderr-style status
/// line every `interval` until stopped. stop() (or destruction) paints a
/// final snapshot and ends the line with '\n'. Rendering locks the shared
/// io mutex so progress frames never shred concurrent log output.
class ProgressReporter {
 public:
  explicit ProgressReporter(
      const ProgressBoard& board, std::ostream& os,
      std::chrono::milliseconds interval = std::chrono::milliseconds(200));
  ~ProgressReporter();

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  void stop();  ///< idempotent

 private:
  void render(const ProgressSnapshot& snapshot, bool final);

  const ProgressBoard& board_;
  std::ostream& os_;
  std::chrono::milliseconds interval_;
  std::atomic<bool> stopping_{false};
  std::mutex stopMutex_;
  std::condition_variable stopCv_;
  bool stopped_ = false;  ///< under stopMutex_: final frame painted
  std::thread thread_;
};

}  // namespace sps::core
