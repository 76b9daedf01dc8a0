#include "sched/core/victim_index.hpp"

#include <algorithm>
#include <limits>

#include "obs/counters.hpp"
#include "sim/simulator.hpp"
#include "workload/category.hpp"

namespace sps::sched::kernel {

namespace {

/// Strict total order (frozen xfactor, id) — the reference pass's
/// runningAsc sort order.
bool entryLess(const VictimIndex::Entry& a, const VictimIndex::Entry& b) {
  if (a.xfactor != b.xfactor) return a.xfactor < b.xfactor;
  return a.job < b.job;
}

}  // namespace

void VictimIndex::attach(sim::Simulator& simulator) {
  owner_.resize(simulator.machine().totalProcs(), kInvalidJob);
  simulator.observers().onStateChange(
      [this](const sim::Simulator& s, JobId id, sim::JobState from,
             sim::JobState to) {
        if (to == sim::JobState::Running)
          insert(s, id);
        else if (from == sim::JobState::Running)
          remove(s, id);
      });
}

void VictimIndex::insert(const sim::Simulator& s, JobId id) {
  const workload::Job& j = s.job(id);
  // Scheduler-visible categorization (estimate, not actual runtime) — the
  // same classification the TSS limits are keyed by.
  const std::size_t cat = workload::category16(j.estimate, j.procs);
  Entry e;
  e.xfactor = s.xfactor(id);  // frozen for the whole running segment
  e.job = id;
  e.procs = j.procs;
  e.serial = serial_++;
  e.category = static_cast<std::uint8_t>(cat);
  e.widthClass =
      static_cast<std::uint8_t>(workload::widthClassOfCategory(cat));
  entries_.insert(
      std::lower_bound(entries_.begin(), entries_.end(), e, entryLess), e);
  s.procSet(id).forEach([this, id](std::uint32_t p) { owner_[p] = id; });
  s.counters().inc(obs::Counter::VictimInserts);
}

void VictimIndex::remove(const sim::Simulator& s, JobId id) {
  // The frozen priority is bit-identical to the insertion value (wait is
  // frozen while running and the formula is the same), so the entry is
  // found by binary search, not a scan.
  Entry probe;
  probe.xfactor = s.xfactor(id);
  probe.job = id;
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), probe, entryLess);
  SPS_CHECK_MSG(it != entries_.end() && it->job == id,
                "victim index missing running job " << id);
  entries_.erase(it);
  s.procSet(id).forEach([this](std::uint32_t p) {
    owner_[p] = kInvalidJob;
  });
  s.counters().inc(obs::Counter::VictimRemoves);
}

double VictimIndex::minPriority() const {
  return entries_.empty() ? std::numeric_limits<double>::infinity()
                          : entries_.front().xfactor;
}

void VictimSteps::build(
    const VictimIndex& index,
    const std::array<double, VictimIndex::kCategories>& limits) {
  // A TSS limit protects a suffix of its category, so filtering the
  // index's order keeps it sorted.
  steps_.clear();
  for (const VictimIndex::Entry& e : index.entries())
    if (e.xfactor < limits[e.category]) steps_.push_back(e);
  const std::size_t n = steps_.size();
  for (std::size_t r = 0; r < kReaches; ++r) {
    std::vector<std::uint32_t>& gain = gain_[r];
    std::vector<std::uint32_t>& next = next_[r];
    gain.resize(n + 1);
    next.resize(n + 1);
    gain[0] = 0;
    for (std::size_t i = 0; i < n; ++i)
      gain[i + 1] =
          gain[i] + (steps_[i].widthClass <= r ? steps_[i].procs : 0);
    next[n] = static_cast<std::uint32_t>(n);
    for (std::size_t i = n; i-- > 0;)
      next[i] = steps_[i].widthClass <= r ? static_cast<std::uint32_t>(i)
                                          : next[i + 1];
  }
}

VictimSteps::Cut VictimSteps::cut(double priority, double sf,
                                  int reach) const {
  // Eligible prefix: exactly the entries the reference's per-victim SF test
  // `priority < sf * xfactor` would NOT reject.
  const auto it = std::partition_point(
      steps_.begin(), steps_.end(),
      [priority, sf](const VictimIndex::Entry& e) {
        return !(priority < sf * e.xfactor);
      });
  const auto end = static_cast<std::size_t>(it - steps_.begin());
  const auto r = static_cast<std::size_t>(reach);
  const std::size_t next = next_[r][end];
  return {end, gain_[r][end],
          next < steps_.size() ? steps_[next].xfactor
                               : std::numeric_limits<double>::infinity()};
}

double VictimSteps::threshold(std::uint32_t need, double sf,
                              int reach) const {
  // gain_[r] is nondecreasing and cut's eligible prefix grows with the
  // priority, so the bound first reaches `need` once the prefix takes the
  // step that lifts gain_[r] to it: the first e with gain_[r][e] >= need.
  const std::vector<std::uint32_t>& gain =
      gain_[static_cast<std::size_t>(reach)];
  const auto e = static_cast<std::size_t>(
      std::lower_bound(gain.begin(), gain.end(), need) - gain.begin());
  if (e == 0) return -std::numeric_limits<double>::infinity();
  if (e == gain.size()) return std::numeric_limits<double>::infinity();
  return sf * steps_[e - 1].xfactor;
}

int VictimSteps::reachOf(std::uint32_t width, bool halfWidthRule) {
  if (!halfWidthRule) return 3;
  const std::uint64_t w2 = 2 * std::uint64_t{width};
  if (w2 >= workload::kWideMax + 1) return 3;
  if (w2 >= workload::kNarrowMax + 1) return 2;
  if (w2 >= workload::kSequentialMax + 1) return 1;
  return 0;
}

}  // namespace sps::sched::kernel
