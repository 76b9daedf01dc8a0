// Report rendering — turns aggregates into the paper's table shapes.
#pragma once

#include <string>
#include <vector>

#include "metrics/category_stats.hpp"
#include "metrics/collector.hpp"
#include "util/table.hpp"

namespace sps::metrics {

/// Which statistic of a CategoryAggregate a table shows.
enum class Metric {
  AvgSlowdown,
  WorstSlowdown,
  P95Slowdown,
  AvgTurnaround,
  WorstTurnaround,
  P95Turnaround,
};

[[nodiscard]] const char* metricName(Metric metric);
[[nodiscard]] double metricValue(const CategoryAggregate& agg, Metric metric);

/// A 4x4 grid in the layout of Tables IV/V: rows = run-time classes,
/// columns = width classes.
[[nodiscard]] Table categoryGrid16(const Category16Stats& stats,
                                   Metric metric, int precision = 2);

/// Job-count distribution grid (Tables II/III layout).
[[nodiscard]] Table distributionGrid16(
    const std::array<double, workload::kNumCategories16>& dist);

/// Side-by-side scheme comparison for one run-time class (one panel of
/// Figs. 7-34): rows = width classes, one column per scheme.
[[nodiscard]] Table schemeComparison(
    const std::vector<std::pair<std::string, Category16Stats>>& runs,
    workload::RunClass runClass, Metric metric, int precision = 2);

/// One-line human summary of a run; a run without jobs prints its count
/// alone.
[[nodiscard]] std::string summaryLine(const RunStats& stats);

}  // namespace sps::metrics
