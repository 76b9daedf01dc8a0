#include "metrics/report.hpp"

#include <sstream>

namespace sps::metrics {

const char* metricName(Metric metric) {
  switch (metric) {
    case Metric::AvgSlowdown: return "avg slowdown";
    case Metric::WorstSlowdown: return "worst-case slowdown";
    case Metric::P95Slowdown: return "p95 slowdown";
    case Metric::AvgTurnaround: return "avg turnaround (s)";
    case Metric::WorstTurnaround: return "worst-case turnaround (s)";
    case Metric::P95Turnaround: return "p95 turnaround (s)";
  }
  return "?";
}

double metricValue(const CategoryAggregate& agg, Metric metric) {
  switch (metric) {
    case Metric::AvgSlowdown: return agg.avgSlowdown();
    case Metric::WorstSlowdown: return agg.worstSlowdown();
    case Metric::P95Slowdown: return agg.slowdownPercentile(95);
    case Metric::AvgTurnaround: return agg.avgTurnaround();
    case Metric::WorstTurnaround: return agg.worstTurnaround();
    case Metric::P95Turnaround: return agg.turnaroundPercentile(95);
  }
  return 0.0;
}

namespace {
std::vector<std::string> gridHeader() {
  std::vector<std::string> h;
  h.emplace_back("runtime \\ width");
  for (std::size_t w = 0; w < workload::kNumWidthClasses; ++w)
    h.push_back(
        workload::widthClassName(static_cast<workload::WidthClass>(w)));
  return h;
}

const char* runRowLabel(std::size_t r) {
  switch (r) {
    case 0: return "0 - 10 min (VS)";
    case 1: return "10 min - 1 hr (S)";
    case 2: return "1 hr - 8 hr (L)";
    case 3: return "> 8 hr (VL)";
  }
  return "?";
}
}  // namespace

Table categoryGrid16(const Category16Stats& stats, Metric metric,
                     int precision) {
  Table t(gridHeader());
  for (std::size_t r = 0; r < workload::kNumRunClasses; ++r) {
    t.row().cell(runRowLabel(r));
    for (std::size_t w = 0; w < workload::kNumWidthClasses; ++w) {
      const auto& agg = stats[r * workload::kNumWidthClasses + w];
      if (agg.empty()) t.cell("-");
      else t.cell(metricValue(agg, metric), precision);
    }
  }
  return t;
}

Table distributionGrid16(
    const std::array<double, workload::kNumCategories16>& dist) {
  Table t(gridHeader());
  for (std::size_t r = 0; r < workload::kNumRunClasses; ++r) {
    t.row().cell(runRowLabel(r));
    for (std::size_t w = 0; w < workload::kNumWidthClasses; ++w)
      t.cell(formatFixed(dist[r * workload::kNumWidthClasses + w], 1) + "%");
  }
  return t;
}

Table schemeComparison(
    const std::vector<std::pair<std::string, Category16Stats>>& runs,
    workload::RunClass runClass, Metric metric, int precision) {
  std::vector<std::string> header;
  header.emplace_back("width");
  for (const auto& [name, stats] : runs) header.push_back(name);
  Table t(header);
  const auto r = static_cast<std::size_t>(runClass);
  for (std::size_t w = 0; w < workload::kNumWidthClasses; ++w) {
    t.row().cell(
        workload::widthClassName(static_cast<workload::WidthClass>(w)));
    for (const auto& [name, stats] : runs) {
      const auto& agg = stats[r * workload::kNumWidthClasses + w];
      if (agg.empty()) t.cell("-");
      else t.cell(metricValue(agg, metric), precision);
    }
  }
  return t;
}

std::string summaryLine(const RunStats& stats) {
  std::ostringstream os;
  os << stats.policyName << " on " << stats.traceName << ": "
     << stats.jobs.size() << " jobs";
  // The means are over jobs: a served session that drained without a
  // submission has none to report.
  if (stats.jobs.empty()) return os.str();
  os << ", avg slowdown " << formatFixed(stats.meanBoundedSlowdown(), 2)
     << ", avg turnaround "
     << formatFixed(stats.meanTurnaround(), 0) << " s, utilization "
     << formatFixed(100.0 * stats.utilization, 1) << "%"
     << " (steady " << formatFixed(100.0 * stats.steadyUtilization, 1)
     << "%), " << stats.suspensions << " suspensions";
  return os.str();
}

}  // namespace sps::metrics
