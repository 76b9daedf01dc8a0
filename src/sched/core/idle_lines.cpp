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
  for (std::vector<Line>& band : bands_) band.clear();
  nonEmpty_.fill(0);
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
          const bool leaves = from == sim::JobState::Queued ||
                              from == sim::JobState::Suspended;
          const bool enters =
              to == sim::JobState::Queued || to == sim::JobState::Suspended;
          if (!leaves && !enters) return;
          const sim::JobExec& x = s.exec(id);
          const workload::Job& j = s.job(id);
          // Leaving the idle state closes the wait (accumWait += now −
          // waitSince), which leaves now − accumWait equal to the line's b.
          if (leaves) erase(id, s.now() - x.accumWait, j.estimate);
          if (enters)
            insert(id, x.waitSince - x.accumWait, j.estimate, j.procs);
        });
  }
}

void IdleLineIndex::insert(JobId id, Time b, Time estimate,
                           std::uint32_t procs) {
  const std::size_t band = bandOfEstimate(estimate);
  const Line line{b, static_cast<double>(estimate), id, procs};
  std::vector<Line>& lines = bands_[band];
  lines.insert(std::lower_bound(lines.begin(), lines.end(), line, lineLess),
               line);
  nonEmpty_[band / 64] |= std::uint64_t{1} << (band % 64);
  ++count_;
}

void IdleLineIndex::erase(JobId id, Time b, Time estimate) {
  const std::size_t band = bandOfEstimate(estimate);
  std::vector<Line>& lines = bands_[band];
  const Line probe{b, 0.0, id, 0};
  const auto it = std::lower_bound(lines.begin(), lines.end(), probe, lineLess);
  SPS_CHECK_MSG(it != lines.end() && it->id == id,
                "idle line index missing job " << id);
  lines.erase(it);
  if (lines.empty()) nonEmpty_[band / 64] &= ~(std::uint64_t{1} << (band % 64));
  --count_;
}

IdleLineIndex::Crossing IdleLineIndex::query(
    Time now, double threshold,
    std::vector<Hit>& reported) const {
  SPS_CHECK_MSG(threshold >= 1.0, "idle line query below threshold 1");
  const auto nowD = static_cast<double>(now);
  const double tMinus1 = threshold - 1.0;
  Crossing first;
  auto test = [&](const Line& line) {
    const LineTest t = testLine(now, threshold, line.b, line.est);
    if (t.reported) {
      reported.push_back({t.value, line.est, line.id, line.procs});
    } else if (t.value < first.time ||
               (t.value == first.time && line.id < first.id)) {
      first = {t.value, line.id};
    }
  };

  // Per band: the crossing lower bound's step (T − 1)·lo, its margin, and
  // the scan position. The margin covers the reporting test's 1e-9
  // relative slack and every rounding error of the bound and of the raw
  // crossings with an order of magnitude to spare, plus one second.
  struct Scan {
    const std::vector<Line>* lines;
    double step;
    double margin;
    std::size_t pos;
  };
  std::array<Scan, kBands> scans;
  std::size_t nScans = 0;
  const std::array<BandEdges, kBands>& edges = bandEdges();
  for (std::size_t word = 0; word < nonEmpty_.size(); ++word) {
    for (std::uint64_t bits = nonEmpty_[word]; bits != 0; bits &= bits - 1) {
      const std::size_t band =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const std::vector<Line>& lines = bands_[band];
      const auto [lo, hi] = edges[band];
      const double maxAbsB = std::max(
          std::abs(nowD), std::abs(static_cast<double>(lines.front().b)));
      Scan& scan = scans[nScans++];
      scan = {&lines, tMinus1 * lo,
              1.0 + 1e-8 * (std::abs(nowD) + maxAbsB + threshold * hi), 0};
      // Reporting: a line at or above T has its crossing at or before now
      // (within the margin), so the band's scan stops at the first line
      // whose lower bound is past that.
      const double reach = nowD + scan.margin;
      while (scan.pos < lines.size() &&
             static_cast<double>(lines[scan.pos].b) + scan.step <= reach)
        test(lines[scan.pos++]);
    }
  }
  // Horizon: seed the earliest crossing with each band's first unscanned
  // line, then scan on only while a band's lower bound can still beat it.
  for (std::size_t i = 0; i < nScans; ++i) {
    Scan& scan = scans[i];
    if (scan.pos < scan.lines->size()) test((*scan.lines)[scan.pos++]);
  }
  for (std::size_t i = 0; i < nScans; ++i) {
    Scan& scan = scans[i];
    const std::vector<Line>& lines = *scan.lines;
    while (scan.pos < lines.size() &&
           static_cast<double>(lines[scan.pos].b) + scan.step - scan.margin <=
               first.time)
      test(lines[scan.pos++]);
  }
  return first;
}

}  // namespace sps::sched::kernel
