// IdleLineIndex — the idle (Queued or Suspended) jobs as priority lines,
// the SS/TSS preemption tick's gate query.
//
// While a job waits its suspension priority (xfactor, Eq. 2) is a straight
// line in time: with b = waitSince − accumWait (fixed until the job runs
// again) its accumulated wait is exactly now − b in integer time, so
//
//   x(now) = 1 + (now − b) / e,   e = the estimate,
//
// and x(now) >= T exactly when the line's crossing time b + (T − 1)·e is
// at or before now. The tick gate asks two questions of the whole idle set
// at one threshold T: which jobs are at or above T now (the pass's working
// set), and, among the rest, which one crosses T first (how long a quiet
// verdict may be cached). A sweep over every idle job answers both; this
// index answers them while touching roughly the reported jobs only.
//
// Lines sit in estimate bands (one per estimate below 4 s, then four per
// octave), each sorted by (b, id).
// Inside a band every estimate is at least the band's low edge lo, so
// b + (T − 1)·lo is a lower bound on the crossing of each line from there
// on — and it grows along the band. A band is scanned only while that
// bound, less a margin that errs toward scanning more, is at or before now
// (reporting) or before the earliest crossing found so far (horizon).
// Every scanned line runs the verbatim float test below, so the reported
// set and the winning crossing are exactly those of the full sweep (ties
// in the crossing go to the lower id).
//
// A state-change observer keeps the bands current, as VictimIndex does for
// the running set. When a job leaves the idle state the simulator has
// already closed its wait, so its b is then now − accumWait.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/types.hpp"

namespace sps::sim {
class Simulator;
}  // namespace sps::sim

namespace sps::sched::kernel {

/// One line's verdict at threshold T: `reported` when !(x < T), with x its
/// priority; otherwise `value` is its raw crossing time estimate.
struct LineTest {
  bool reported;
  double value;  ///< x when reported, else the raw crossing time
};

/// The gate's per-job test, verbatim. x >= T <=> wait >= (T − 1)·estimate
/// in real arithmetic — a multiply instead of the xfactor division. Floats
/// can disagree only within rounding distance of the boundary, so anything
/// inside a generous relative margin falls back to the exact division test.
/// The slack is also the algebraic crossing distance (tc = now + slack).
[[nodiscard]] inline LineTest testLine(Time now, double threshold, Time b,
                                       double est) {
  const auto nowD = static_cast<double>(now);
  const auto wait = static_cast<double>(now - b);
  const double slack = (threshold - 1.0) * est - wait;
  if (slack > 1e-9 * (wait + est)) return {false, nowD + slack};
  const double x = (wait + est) / est;
  if (!(x < threshold)) return {true, x};
  return {false, nowD + (threshold - x) * est};
}

/// Last tick-skippable horizon for idle job `id` (current priority `x`,
/// rising linearly in wait) against a frozen `target` threshold: ticks
/// strictly before the returned time still satisfy !(priority >= target).
/// The crossing is estimated algebraically, then re-verified with the
/// simulator's own integer+double arithmetic at the horizon so float
/// rounding can only shrink the window, never hide a live pass.
[[nodiscard]] Time crossingHorizon(const sim::Simulator& s, JobId id,
                                   double x, double target);

class IdleLineIndex {
 public:
  /// Estimate bands: one each below 4 s, then four per octave.
  static constexpr std::size_t kBands = 256;

  struct Line {
    Time b;      ///< waitSince − accumWait; accumulatedWait == now − b
    double est;  ///< the estimate, as the priority arithmetic reads it
    JobId id;
    std::uint32_t procs;
  };

  /// A reported line: the job's priority now, with the job fields the
  /// preemption pass reads for every candidate.
  struct Hit {
    double x;
    double est;
    JobId id;
    std::uint32_t procs;
  };

  /// The earliest crossing among the lines a query did not report.
  struct Crossing {
    double time = std::numeric_limits<double>::infinity();
    JobId id = kInvalidJob;  ///< kInvalidJob when every line was reported
  };

  /// Bind to a simulator: clears all lines and registers the observer that
  /// inserts each job as it becomes Queued or Suspended and removes it when
  /// it leaves that state. Call from onSimulationStart; an index serves one
  /// simulator at a time and must outlive it.
  void attach(sim::Simulator& simulator);

  /// Direct maintenance (what the observer does). `b` must stay fixed
  /// while the job is idle; `erase` takes the b and estimate the line was
  /// inserted with.
  void insert(JobId id, Time b, Time estimate, std::uint32_t procs);
  void erase(JobId id, Time b, Time estimate);

  [[nodiscard]] std::size_t size() const { return count_; }

  /// One gate query at threshold `threshold` (>= 1) and clock `now`
  /// (>= every line's b): appends a Hit to `reported` for every line
  /// passing testLine, in band order, and returns the earliest raw
  /// crossing among the others.
  Crossing query(Time now, double threshold,
                 std::vector<Hit>& reported) const;

 private:
  std::array<std::vector<Line>, kBands> bands_;
  /// Bit per band: set while the band holds a line.
  std::array<std::uint64_t, kBands / 64> nonEmpty_{};
  std::size_t count_ = 0;
  const sim::Simulator* attached_ = nullptr;
};

}  // namespace sps::sched::kernel
