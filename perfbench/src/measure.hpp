// Measurement helpers of perfbench_run: the schedule digest that
// checks a timed run against an oracle-armed run, exact sample percentiles,
// the cost-growth ratio, and per-name span aggregation.
//
// Everything here is a pure function of its inputs, so tests/ can check it
// on hand-built samples.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/job_record.hpp"
#include "util/quantile_sketch.hpp"

namespace perfbench {

/// FNV-1a over every job's (id, firstStart, finish, suspendCount), in
/// RunStats::jobs order. Two runs of one workload on one build must agree;
/// any moved start, finish or suspension changes the digest.
[[nodiscard]] inline std::uint64_t scheduleDigest(
    const std::vector<sps::metrics::JobResult>& jobs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(jobs.size());
  for (const sps::metrics::JobResult& j : jobs) {
    mix(j.id);
    mix(static_cast<std::uint64_t>(j.firstStart));
    mix(static_cast<std::uint64_t>(j.finish));
    mix(j.suspendCount);
  }
  return h;
}

/// Exact nearest-rank percentile, p in (0, 100]: the smallest sample with
/// at least p% of the samples at or below it. Requires a non-empty input.
[[nodiscard]] inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  // The epsilon keeps p = 99.9 of 1000 samples at rank 999: 99.9 / 100 is
  // not exact in binary and would otherwise round the rank up.
  const double exact = p / 100.0 * static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

/// Host time and dispatched events of one quarter of the arrival window.
struct QuarterCost {
  double seconds = 0.0;
  std::uint64_t events = 0;

  /// Host ns per dispatched event; requires events and time.
  [[nodiscard]] double nsPerEvent() const {
    if (events == 0 || seconds <= 0.0)
      throw std::invalid_argument("no events timed in this quarter");
    return seconds * 1e9 / static_cast<double>(events);
  }
};

/// How far the host ns per event of the last quarter is from that of the
/// first, as a factor >= 1 in either direction: 1.0 means the per-event
/// cost stays flat along the trace. Both directions count because a cost
/// that depends on trace length can fall as well as rise: the calendar
/// queue rescans its overflow list of pre-pushed arrivals, which is
/// longest at the start. The price is a blind spot: when the cheaper
/// quarter gets slower the ratio falls, so that regression reads as a
/// flatter profile. run_s and the per-quarter figures still show it.
[[nodiscard]] inline double costGrowth(const std::array<QuarterCost, 4>& q) {
  const double first = q[0].nsPerEvent();
  const double last = q[3].nsPerEvent();
  return std::max(last / first, first / last);
}

/// useful / attempts; 0 when nothing was attempted.
[[nodiscard]] inline double yieldRatio(std::uint64_t useful,
                                       std::uint64_t attempts) {
  return attempts == 0 ? 0.0
                       : static_cast<double>(useful) /
                             static_cast<double>(attempts);
}

/// Count, total and sketched quantiles of the spans recorded under a name.
struct SpanStats {
  std::uint64_t count = 0;
  double totalNs = 0.0;
  sps::util::QuantileSketch sketch;

  void add(double ns) {
    ++count;
    totalNs += ns;
    sketch.add(ns);
  }
  /// q in [0, 1]; 0 for a name that recorded no span.
  [[nodiscard]] double quantileNs(double q) const {
    return sketch.empty() ? 0.0 : sketch.quantile(q);
  }
};

using SpanTable = std::map<std::string, SpanStats>;

}  // namespace perfbench
