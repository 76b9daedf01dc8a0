// OccupancyRecord — who holds each suspended job's owed processors, the
// SS resume walk's source and the reentry test's floor.
//
// Under local preemption (Section IV-C of the paper) a Suspended job
// resumes only on its exact processors, and it may preempt the jobs running
// there only if its priority is at least SF times each one's. Both answers
// depend on who holds the owed set, and that changes only when a job starts
// on one of its processors or leaves one. The record keeps, fed by a
// state-change observer as VictimIndex and IdleLineIndex are:
//
//   * for each processor chunk, the Suspended jobs owed any of its
//     processors, each with the mask of the ones it is owed. A chunk is
//     one processor on machines of up to 1,024 processors, so a list holds
//     only the few jobs owed that processor, and one 64-processor word on
//     wider ones, so a job thousands of processors wide costs tens of
//     nodes, not thousands;
//   * for each Suspended job, how many of its owed processors are held
//     right now, by Running or Suspending jobs, and the list of the jobs
//     with none held ("unheld"). Only those can resume: a job whose set
//     fits the free capacity has an all-free set;
//   * for each Suspended job, a cached reentry floor: SF x the highest
//     frozen priority (Eq. 2) among the running jobs on its set, or
//     +infinity when none runs there. Running priorities are frozen, so a
//     reentry candidate below its floor fails the SF test on some occupant
//     and one at or above it passes the test on every occupant. A start on
//     the set raises the floor in place; a departure keeps it unless the
//     departing job set it, and then marks it stale. A stale floor is
//     recomputed from VictimIndex::ownerOf on its next read.
//
// Storage follows the machine and the suspended set only: one list head
// per chunk, one node per owed chunk of a Suspended job (the lists are
// doubly linked through one pooled node array, each job's nodes also
// chained to each other), and one entry per Suspended job (swap-and-pop).
// Nothing is kept per trace job: a job's entry is found through the list
// of its lowest owed chunk. A transition touches only the chunks some
// Suspended job is owed, found a word at a time through the simulator's
// suspendedOwedSet(), and counts the processors it shares with each node
// by one popcount.
//
// The record describes the local-preemption model: a Suspended job leaves
// through Simulator::resumeJob or cancelJob, never resumeJobMigrating, so
// its owed set stays its procSet() until the observers have seen it go.
// SS attaches one only in KernelMode::Incremental without migratableJobs.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sched/core/victim_index.hpp"
#include "util/types.hpp"

namespace sps::sim {
class Simulator;
enum class JobState : std::uint8_t;
}  // namespace sps::sim

namespace sps::sched::kernel {

class OccupancyRecord {
 public:
  /// Bind to a simulator: sizes the list heads to the machine and
  /// registers the state-change observer. `suspensionFactor` scales the
  /// floors. Call once, from onSimulationStart: a record serves the one run
  /// its policy drives and must outlive it.
  void attach(sim::Simulator& simulator, double suspensionFactor);

  /// Suspended jobs recorded.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Suspended jobs none of whose owed processors is held.
  [[nodiscard]] std::size_t unheldCount() const { return unheld_.size(); }

  /// Calls visit(id, procs) for every Suspended job none of whose owed
  /// processors is held, in no particular order. `visit` must not change
  /// the simulator.
  template <typename Visit>
  void forEachUnheld(Visit&& visit) const {
    for (const std::uint32_t i : unheld_)
      visit(entries_[i].job, entries_[i].procs);
  }

  /// Owed processors of Suspended job `id` held by Running or Suspending
  /// jobs.
  [[nodiscard]] std::uint32_t heldCount(JobId id) const {
    return entries_[entryOf(id)].held;
  }

  /// Reentry floor of Suspended job `id`: SF x the highest frozen priority
  /// among the running jobs on its owed set, +infinity when none runs
  /// there. Recomputed from `running`'s owner map only when stale.
  [[nodiscard]] double floor(JobId id, const VictimIndex& running);

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  struct Entry {
    JobId job;
    std::uint32_t procs;      ///< width, for the walk's width filter
    std::uint32_t held;       ///< owed processors held right now
    std::uint32_t firstNode;  ///< head of the job's own node chain
    std::uint32_t unheldPos;  ///< position in unheld_ while held == 0
    bool floorStale;
    /// SF x the highest running priority on the set; −infinity while none
    /// runs there (floor() reports that as +infinity).
    double floor;
  };

  /// One (job, owed chunk) pair: a link in the chunk's list and in the
  /// job's own chain.
  struct Node {
    std::uint64_t mask;     ///< the job's owed processors in the chunk
    JobId job;
    std::uint32_t entry;    ///< index into entries_
    std::uint32_t chunk;
    std::uint32_t next;     ///< next node of the same chunk
    std::uint32_t prev;     ///< previous node of the same chunk
    std::uint32_t sibling;  ///< next node of the same job
  };

  /// Calls f(chunk, mask) for each chunk holding some of `bits`, the
  /// members of processor word `w`; mask bit b stands for the chunk's
  /// b-th processor.
  template <typename F>
  void forEachChunk(std::uint32_t w, std::uint64_t bits, F&& f) const {
    if (chunkShift_ == 6) {
      f(w, bits);
      return;
    }
    while (bits != 0) {
      const auto b = static_cast<std::uint32_t>(__builtin_ctzll(bits));
      f(w * 64 + b, std::uint64_t{1});
      bits &= bits - 1;
    }
  }

  void onTransition(const sim::Simulator& s, JobId id, sim::JobState from,
                    sim::JobState to);
  void insert(const sim::Simulator& s, JobId id);
  void erase(std::uint32_t entry);
  [[nodiscard]] std::uint32_t entryOf(JobId id) const;
  void addUnheld(std::uint32_t entry);
  void dropUnheld(std::uint32_t entry);

  double sf_ = 1.0;
  /// log2 of the processors per chunk: 0 or 6.
  std::uint32_t chunkShift_ = 0;
  std::vector<std::uint32_t> head_;  ///< per chunk; kNone when empty
  std::vector<Node> nodes_;
  std::uint32_t spareNode_ = kNone;  ///< free nodes, chained through next
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> unheld_;  ///< entries with held == 0
  const sim::Simulator* attached_ = nullptr;  ///< the run attach() bound
};

}  // namespace sps::sched::kernel
