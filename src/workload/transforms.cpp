#include "workload/transforms.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/table.hpp"

namespace sps::workload {

void normalizeTrace(Trace& trace) {
  const auto bySubmit = [](const Job& a, const Job& b) {
    return a.submit < b.submit;
  };
  // A stable sort of sorted input is the identity; skip its pass and buffer.
  if (!std::is_sorted(trace.jobs.begin(), trace.jobs.end(), bySubmit))
    std::stable_sort(trace.jobs.begin(), trace.jobs.end(), bySubmit);
  const Time base = trace.jobs.empty() ? 0 : trace.jobs.front().submit;
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    trace.jobs[i].submit -= base;
    trace.jobs[i].id = static_cast<JobId>(i);
  }
}

Trace scaleLoad(const Trace& trace, double factor) {
  SPS_CHECK_MSG(factor > 0.0, "load factor must be positive");
  Trace scaled = trace;
  scaled.name = trace.name + " x" + formatFixed(factor, 2);
  for (Job& j : scaled.jobs)
    j.submit = static_cast<Time>(
        std::llround(static_cast<double>(j.submit) / factor));
  normalizeTrace(scaled);  // rounding can reorder equal-submit neighbours
  return scaled;
}

Trace truncateTrace(const Trace& trace, std::size_t n) {
  Trace t = trace;
  if (t.jobs.size() > n) t.jobs.resize(n);
  normalizeTrace(t);
  return t;
}

Trace filterTrace(const Trace& trace,
                  const std::function<bool(const Job&)>& keep) {
  Trace t;
  t.name = trace.name;
  t.machineProcs = trace.machineProcs;
  for (const Job& j : trace.jobs)
    if (keep(j)) t.jobs.push_back(j);
  normalizeTrace(t);
  return t;
}

}  // namespace sps::workload
