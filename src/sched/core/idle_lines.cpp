#include "sched/core/idle_lines.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/simulator.hpp"

namespace sps::sched::kernel {

namespace {

/// Estimate band: four per octave. Estimates below 4 s get a band each;
/// above, the two bits after the leading one pick the quarter-octave.
std::size_t bandOfEstimate(Time e) {
  if (e < 4) return e < 0 ? 0 : static_cast<std::size_t>(e);
  const auto u = static_cast<std::uint64_t>(e);
  const auto k = static_cast<int>(std::bit_width(u)) - 1;
  return static_cast<std::size_t>(4 * k) + ((u >> (k - 2)) & 3U);
}

/// Lowest and (an upper bound on the) highest estimate of each band.
struct BandEdges {
  double lo;
  double hi;
};

const std::array<BandEdges, IdleLineIndex::kBands>& bandEdges() {
  static const std::array<BandEdges, IdleLineIndex::kBands> table = [] {
    std::array<BandEdges, IdleLineIndex::kBands> edges{};
    for (std::size_t band = 0; band < edges.size(); ++band) {
      if (band < 4) {
        const auto e = static_cast<double>(band);
        edges[band] = {e, e + 1.0};
        continue;
      }
      const double unit = std::ldexp(1.0, static_cast<int>(band / 4) - 2);
      const auto j = static_cast<double>(band % 4);
      edges[band] = {(4.0 + j) * unit, (5.0 + j) * unit};
    }
    return edges;
  }();
  return table;
}

bool lineLess(const IdleLineIndex::Line& a, const IdleLineIndex::Line& b) {
  if (a.b != b.b) return a.b < b.b;
  return a.id < b.id;
}

}  // namespace

Time crossingHorizon(const sim::Simulator& s, JobId id, double x,
                     double target) {
  const Time now = s.now();
  if (!(x < target)) return now;
  const auto est = static_cast<double>(s.job(id).estimate);
  const double tc = static_cast<double>(now) + (target - x) * est;
  Time cross = tc >= static_cast<double>(kTimeMax) ? kTimeMax
                                                   : static_cast<Time>(tc) - 1;
  if (cross > now && cross != kTimeMax) {
    const auto wait =
        static_cast<double>(s.accumulatedWait(id) + (cross - 1 - now));
    if (!((wait + est) / est < target)) cross = now;
  }
  return cross;
}

void IdleLineIndex::attach(sim::Simulator& simulator) {
  for (std::size_t state = 0; state < kStates; ++state) {
    for (std::vector<Line>& band : bands_[state]) band.clear();
    for (std::vector<Member>& list : members_[state]) list.clear();
    nonEmpty_[state].fill(0);
  }
  occupied_.fill(0);
  slot_.assign(simulator.jobCount(), 0);
  count_ = 0;
  const bool firstAttach = attached_ == nullptr;
  attached_ = &simulator;
  if (firstAttach) {
    // One registration per index lifetime; stale simulators are filtered
    // by `attached_`.
    simulator.observers().onStateChange(
        [this](const sim::Simulator& s, JobId id, sim::JobState from,
               sim::JobState to) {
          if (&s != attached_) return;
          auto idle = [](sim::JobState st) {
            return st == sim::JobState::Queued ? State::Queued
                                               : State::Suspended;
          };
          const bool leaves = from == sim::JobState::Queued ||
                              from == sim::JobState::Suspended;
          const bool enters =
              to == sim::JobState::Queued || to == sim::JobState::Suspended;
          if (!leaves && !enters) return;
          const sim::JobExec& x = s.exec(id);
          const workload::Job& j = s.job(id);
          // Leaving the idle state closes the wait (accumWait += now −
          // waitSince), which leaves now − accumWait equal to the line's b.
          if (leaves) erase(id, idle(from), s.now() - x.accumWait, j.estimate);
          if (enters)
            insert(id, idle(to), x.waitSince - x.accumWait, j.estimate,
                   j.procs);
        });
  }
}

void IdleLineIndex::insert(JobId id, State state, Time b, Time estimate,
                           std::uint32_t procs) {
  const std::size_t st = index(state);
  const std::size_t band = bandOfEstimate(estimate);
  const Line line{b, static_cast<double>(estimate), id, procs};
  std::vector<Line>& lines = bands_[st][band];
  lines.insert(std::lower_bound(lines.begin(), lines.end(), line, lineLess),
               line);
  nonEmpty_[st][band / 64] |= std::uint64_t{1} << (band % 64);
  // Streamed submits grow the job table after attach.
  if (slot_.size() <= id)
    slot_.resize(std::max<std::size_t>(id + 1, 2 * slot_.size()));
  const std::size_t c = widthClassOf(procs);
  std::vector<Member>& list = members_[st][c];
  slot_[id] = static_cast<std::uint32_t>(list.size());
  list.push_back({id, procs});
  occupied_[st] |= std::uint64_t{1} << c;
  ++count_;
}

void IdleLineIndex::erase(JobId id, State state, Time b, Time estimate) {
  const std::size_t st = index(state);
  const std::size_t band = bandOfEstimate(estimate);
  std::vector<Line>& lines = bands_[st][band];
  const Line probe{b, 0.0, id, 0};
  const auto it = std::lower_bound(lines.begin(), lines.end(), probe, lineLess);
  SPS_CHECK_MSG(it != lines.end() && it->id == id,
                "idle line index missing job " << id);
  const std::size_t c = widthClassOf(it->procs);
  lines.erase(it);
  if (lines.empty())
    nonEmpty_[st][band / 64] &= ~(std::uint64_t{1} << (band % 64));
  std::vector<Member>& list = members_[st][c];
  const std::uint32_t pos = slot_[id];
  list[pos] = list.back();
  slot_[list[pos].id] = pos;
  list.pop_back();
  if (list.empty()) occupied_[st] &= ~(std::uint64_t{1} << c);
  --count_;
}

IdleLineIndex::Crossing IdleLineIndex::query(
    Time now, double threshold, std::vector<Hit>& reported) const {
  Thresholds uniform;
  for (auto& row : uniform) row.fill(threshold);
  return query(now, uniform, reported);
}

IdleLineIndex::Crossing IdleLineIndex::query(
    Time now, const Thresholds& thresholds,
    std::vector<Hit>& reported) const {
  const auto nowD = static_cast<double>(now);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Crossing first;
  auto test = [&](const Line& line, const std::array<double, kWidthClasses>&
                                        at) {
    const double threshold = at[widthClassOf(line.procs)];
    if (!(threshold < kInf)) return;  // never reported, never crosses
    const LineTest t = testLine(now, threshold, line.b, line.est);
    if (t.reported) {
      reported.push_back({t.value, line.est, line.id, line.procs});
    } else if (t.value < first.time ||
               (t.value == first.time && line.id < first.id)) {
      first = {t.value, line.id, threshold};
    }
  };

  // Per band: the crossing lower bound's step (T − 1)·lo at its state's
  // lowest threshold T, its margin, and the scan position. The margin
  // covers the reporting test's 1e-9 relative slack and every rounding
  // error of the bound and of the raw crossings (at up to the state's
  // highest finite threshold) with an order of magnitude to spare, plus
  // one second.
  struct Scan {
    const std::vector<Line>* lines;
    const std::array<double, kWidthClasses>* at;
    double step;
    double margin;
    std::size_t pos;
  };
  std::array<Scan, kStates * kBands> scans;
  std::size_t nScans = 0;
  const std::array<BandEdges, kBands>& edges = bandEdges();
  for (std::size_t st = 0; st < kStates; ++st) {
    const std::array<double, kWidthClasses>& at = thresholds[st];
    double lowest = kInf;
    double highest = 1.0;
    for (std::uint64_t bits = occupied_[st]; bits != 0; bits &= bits - 1) {
      const double t = at[static_cast<std::size_t>(std::countr_zero(bits))];
      lowest = std::min(lowest, t);
      if (t < kInf) highest = std::max(highest, t);
    }
    if (!(lowest < kInf)) continue;  // no line of this state can report
    SPS_CHECK_MSG(lowest >= 1.0, "idle line query below threshold 1");
    const double tMinus1 = lowest - 1.0;
    for (std::size_t word = 0; word < nonEmpty_[st].size(); ++word) {
      for (std::uint64_t bits = nonEmpty_[st][word]; bits != 0;
           bits &= bits - 1) {
        const std::size_t band =
            word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const std::vector<Line>& lines = bands_[st][band];
        const auto [lo, hi] = edges[band];
        const double maxAbsB = std::max(
            std::abs(nowD), std::abs(static_cast<double>(lines.front().b)));
        Scan& scan = scans[nScans++];
        scan = {&lines, &at, tMinus1 * lo,
                1.0 + 1e-8 * (std::abs(nowD) + maxAbsB + highest * hi), 0};
        // Reporting: a line at or above its T has its crossing at or
        // before now (within the margin), so the band's scan stops at the
        // first line whose lower bound is past that.
        const double reach = nowD + scan.margin;
        while (scan.pos < lines.size() &&
               static_cast<double>(lines[scan.pos].b) + scan.step <= reach)
          test(lines[scan.pos++], at);
      }
    }
  }
  // Horizon: seed the earliest crossing with each band's first unscanned
  // line, then scan on only while a band's lower bound can still beat it.
  for (std::size_t i = 0; i < nScans; ++i) {
    Scan& scan = scans[i];
    if (scan.pos < scan.lines->size())
      test((*scan.lines)[scan.pos++], *scan.at);
  }
  for (std::size_t i = 0; i < nScans; ++i) {
    Scan& scan = scans[i];
    const std::vector<Line>& lines = *scan.lines;
    while (scan.pos < lines.size() &&
           static_cast<double>(lines[scan.pos].b) + scan.step - scan.margin <=
               first.time)
      test(lines[scan.pos++], *scan.at);
  }
  return first;
}

void freshThresholds(const VictimSteps& steps, const IdleLineIndex& index,
                     double sf, std::uint32_t freeNow, bool halfWidthRule,
                     std::array<double, IdleLineIndex::kWidthClasses>& out) {
  out.fill(std::numeric_limits<double>::infinity());
  for (std::uint64_t bits =
           index.occupiedClasses(IdleLineIndex::State::Queued) |
           index.occupiedClasses(IdleLineIndex::State::Suspended);
       bits != 0; bits &= bits - 1) {
    const auto c = static_cast<std::size_t>(std::countr_zero(bits));
    if (IdleLineIndex::widestOf(c) <= freeNow) continue;
    const std::uint32_t narrowest = IdleLineIndex::narrowestOf(c);
    out[c] = steps.threshold(std::max(narrowest, freeNow + 1) - freeNow, sf,
                             VictimSteps::reachOf(narrowest, halfWidthRule));
  }
}

}  // namespace sps::sched::kernel
