// IdleLineIndex — the idle (Queued or Suspended) jobs as priority lines,
// the SS/TSS preemption tick's gate query and the dispatch walks' source.
//
// While a job waits its suspension priority (xfactor, Eq. 2) is a straight
// line in time: with b = waitSince − accumWait (fixed until the job runs
// again) its accumulated wait is exactly now − b in integer time, so
//
//   x(now) = 1 + (now − b) / e,   e = the estimate,
//
// and x(now) >= T exactly when the line's crossing time b + (T − 1)·e is
// at or before now. The tick gate asks two questions of the whole idle set,
// each line against its own threshold T (one per state and width class):
// which jobs are at or above their T now (the pass's working set), and,
// among the rest, which one crosses its T first (how long a quiet verdict
// may be cached). A sweep over every idle job answers both; this index
// answers them while touching roughly the jobs at or above the lowest
// threshold of their state only.
//
// Lines sit, per state, in estimate bands (one per estimate below 4 s,
// then four per octave), each sorted by (b, id).
// Inside a band every estimate is at least the band's low edge lo, so
// b + (T − 1)·lo, with T the lowest threshold of the band's state, is a
// lower bound on the crossing of each line from there on — and it grows
// along the band. A band is scanned only while that bound, less a margin
// that errs toward scanning more, is at or before now (reporting) or
// before the earliest crossing found so far (horizon). Every scanned line
// runs the verbatim float test below at its own threshold, so the reported
// set and the winning crossing are exactly those of the full sweep (ties
// in the crossing go to the lower id).
//
// The dispatch walks ask a third question: which jobs of one state are no
// wider than the capacity free at walk start. Beside the bands every line
// sits in a member list per state and width class (swap-and-pop, one slot
// per job), so a walk visits only the classes that can fit.
//
// A state-change observer keeps the bands current, as VictimIndex does for
// the running set. When a job leaves the idle state the simulator has
// already closed its wait, so its b is then now − accumWait.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "sched/core/victim_index.hpp"
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
  /// Width classes c = bit_width(procs − 1): {1}, {2}, {3–4}, {5–8}, ….
  static constexpr std::size_t kWidthClasses = 33;

  /// The idle states a line can be in; each has its own bands and lists.
  enum class State : std::uint8_t { Queued, Suspended };
  static constexpr std::size_t kStates = 2;

  /// Report thresholds of one query, by state and width class: a line is
  /// reported when its priority x passes !(x < its threshold). Each is
  /// >= 1, or +infinity: such a line is never reported and never crosses.
  using Thresholds = std::array<std::array<double, kWidthClasses>, kStates>;

  [[nodiscard]] static std::size_t widthClassOf(std::uint32_t procs) {
    return static_cast<std::size_t>(std::bit_width(procs - 1));
  }
  [[nodiscard]] static std::uint32_t narrowestOf(std::size_t widthClass) {
    return widthClass == 0 ? 1 : (std::uint32_t{1} << (widthClass - 1)) + 1;
  }
  [[nodiscard]] static std::uint32_t widestOf(std::size_t widthClass) {
    return widthClass == kWidthClasses - 1
               ? std::numeric_limits<std::uint32_t>::max()
               : std::uint32_t{1} << widthClass;
  }

  struct Line {
    Time b;      ///< waitSince − accumWait; accumulatedWait == now − b
    double est;  ///< the estimate, as the priority arithmetic reads it
    JobId id;
    std::uint32_t procs;
  };

  /// An idle job's priority now, with the job fields the SS/TSS walks
  /// read for every candidate: a line a query reports, or a job a walk
  /// gathers (kernel::idleHit).
  struct Hit {
    double x;
    double est;
    JobId id;
    std::uint32_t procs;
  };

  /// The earliest crossing among the lines a query did not report.
  struct Crossing {
    double time = std::numeric_limits<double>::infinity();
    JobId id = kInvalidJob;  ///< kInvalidJob when no unreported line crosses
    double threshold = 0.0;  ///< the winning line's own threshold
  };

  /// Bind to a simulator: sizes the per-job slots to the trace and
  /// registers the observer that inserts each job as it becomes Queued or
  /// Suspended and removes it when it leaves that state. Call once, from
  /// onSimulationStart: an index serves the one run its policy drives and
  /// must outlive it.
  void attach(sim::Simulator& simulator);

  /// Direct maintenance (what the observer does). `b` must stay fixed
  /// while the job is idle; `erase` takes the state, b and estimate the
  /// line was inserted with.
  void insert(JobId id, State state, Time b, Time estimate,
              std::uint32_t procs);
  void erase(JobId id, State state, Time b, Time estimate);

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Bit c set while width class c of `state` holds a line.
  [[nodiscard]] std::uint64_t occupiedClasses(State state) const {
    return occupied_[index(state)];
  }

  /// One gate query at clock `now` (>= every line's b): appends a Hit to
  /// `reported` for every line passing testLine at its own threshold, in
  /// band order, and returns the earliest raw crossing among the others.
  Crossing query(Time now, const Thresholds& thresholds,
                 std::vector<Hit>& reported) const;
  /// The same query with one threshold (>= 1) for every line.
  Crossing query(Time now, double threshold,
                 std::vector<Hit>& reported) const;

  /// Calls visit(id) for every `state` line at most `maxWidth` wide, in no
  /// particular order: whole classes below the one holding maxWidth, that
  /// boundary class filtered per job.
  template <typename Visit>
  void forEachFitting(State state, std::uint32_t maxWidth,
                      Visit&& visit) const {
    const auto& lists = members_[index(state)];
    for (std::uint64_t bits = occupied_[index(state)]; bits != 0;
         bits &= bits - 1) {
      const auto c = static_cast<std::size_t>(std::countr_zero(bits));
      if (narrowestOf(c) > maxWidth) return;
      const bool whole = widestOf(c) <= maxWidth;
      for (const Member& m : lists[c])
        if (whole || m.procs <= maxWidth) visit(m.id);
    }
  }

 private:
  struct Member {
    JobId id;
    std::uint32_t procs;
  };

  static std::size_t index(State state) {
    return static_cast<std::size_t>(state);
  }

  std::array<std::array<std::vector<Line>, kBands>, kStates> bands_;
  /// Bit per band: set while the band holds a line.
  std::array<std::array<std::uint64_t, kBands / 64>, kStates> nonEmpty_{};
  std::array<std::array<std::vector<Member>, kWidthClasses>, kStates>
      members_;
  std::array<std::uint64_t, kStates> occupied_{};
  /// Per job: its position in its member list.
  std::vector<std::uint32_t> slot_;
  std::size_t count_ = 0;
};

/// The fresh path's report threshold for each width class `index` holds,
/// in either state (+infinity for the rest). A fresh candidate acts only
/// when freeNow is below its width and freeNow plus its gain bound covers
/// the width, and the bound is a step function of its priority: for class
/// C, whose narrowest member that could act is max(narrowest, freeNow + 1)
/// wide, that is steps.threshold(that − freeNow, sf, C's reach). A class
/// no wider than freeNow never reports. Every class lies inside one reach
/// class, so its threshold holds for each member.
void freshThresholds(const VictimSteps& steps, const IdleLineIndex& index,
                     double sf, std::uint32_t freeNow, bool halfWidthRule,
                     std::array<double, IdleLineIndex::kWidthClasses>& out);

}  // namespace sps::sched::kernel
