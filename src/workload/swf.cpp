#include "workload/swf.hpp"

#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <string_view>

#include "util/check.hpp"
#include "util/fields.hpp"
#include "workload/transforms.hpp"

namespace sps::workload {

namespace {
/// One SWF record's raw fields (only the ones we consume); -1 when absent.
struct SwfFields {
  double submit;
  double runtime;
  double procsAlloc;
  double memPerProcKb;
  double procsReq;
  double timeReq;
};

InputError lineError(std::size_t lineNo, const std::string& why) {
  return InputError("SWF line " + std::to_string(lineNo) + ": " + why);
}

/// Every token of a data line must be a finite number, so a stray token
/// cannot silently end the record early.
SwfFields parseLine(std::string_view line, std::size_t lineNo) {
  std::array<double, 9> fields;  // SWF fields 1..9
  fields.fill(-1.0);
  util::FieldCursor cursor(line);
  std::size_t count = 0;
  while (!cursor.atEnd()) {
    const std::optional<double> value = cursor.real();
    ++count;
    if (!value)
      throw lineError(lineNo, "field " + std::to_string(count) +
                                  " is not a finite number");
    if (count <= fields.size()) fields[count - 1] = *value;
  }
  if (count < 5)
    throw lineError(lineNo,
                    "expected >= 5 fields, got " + std::to_string(count));
  return {.submit = fields[1],
          .runtime = fields[3],
          .procsAlloc = fields[4],
          .memPerProcKb = fields[6],
          .procsReq = fields[7],
          .timeReq = fields[8]};
}
}  // namespace

Trace readSwf(std::istream& in, const std::string& traceName,
              std::uint32_t machineProcs, SwfReadStats* stats) {
  SwfReadStats local;
  Trace trace;
  trace.name = traceName;
  trace.machineProcs = machineProcs;

  std::string line;
  std::size_t lineNo = 0;
  // A positive field rounds into its Job field; one that would not fit is
  // refused rather than wrapped (non-positive fields mean "absent").
  const auto outOfRange = [&](const char* field) {
    return lineError(lineNo, std::string(field) + " out of range");
  };
  const auto toTime = [&](double value, const char* field) {
    if (std::round(value) >= 0x1p63) throw outOfRange(field);
    return static_cast<Time>(std::llround(value));
  };
  constexpr double kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  while (std::getline(in, line)) {
    ++lineNo;
    const auto start = line.find_first_not_of(" \t\n\v\f\r");
    if (start == std::string::npos || line[start] == ';') continue;
    const SwfFields f = parseLine(line, lineNo);
    ++local.linesRead;

    const Time runtime =
        f.runtime > 0 ? toTime(f.runtime, "field 4 (run time)") : 0;
    if (runtime <= 0) {
      ++local.droppedNonPositiveRuntime;
      continue;
    }
    double procsRaw = f.procsAlloc > 0 ? f.procsAlloc : f.procsReq;
    if (procsRaw <= 0) {
      ++local.droppedNonPositiveProcs;
      continue;
    }
    if (std::round(procsRaw) > kMaxU32)
      throw outOfRange(f.procsAlloc > 0 ? "field 5 (allocated processors)"
                                        : "field 8 (requested processors)");
    const auto procs = static_cast<std::uint32_t>(std::llround(procsRaw));
    if (procs > machineProcs) {
      ++local.droppedTooWide;
      continue;
    }

    Job j;
    j.submit = f.submit > 0 ? toTime(f.submit, "field 2 (submit time)") : 0;
    j.runtime = runtime;
    j.procs = procs;
    Time estimate = f.timeReq > 0
                        ? toTime(f.timeReq, "field 9 (requested time)")
                        : runtime;
    if (estimate < runtime) {
      estimate = runtime;
      ++local.estimatesClamped;
    }
    j.estimate = estimate;
    if (f.memPerProcKb > 0) {
      const double memoryMb = std::ceil(f.memPerProcKb / 1024.0);
      if (memoryMb > kMaxU32) throw outOfRange("field 7 (used memory)");
      j.memoryMb = static_cast<std::uint32_t>(memoryMb);
    }
    trace.jobs.push_back(j);
    ++local.jobsAccepted;
  }

  normalizeTrace(trace);
  if (stats != nullptr) *stats = local;
  return trace;
}

Trace readSwfFile(const std::string& path, const std::string& traceName,
                  std::uint32_t machineProcs, SwfReadStats* stats) {
  std::ifstream in(path);
  if (!in) throw InputError("cannot open SWF file: " + path);
  return readSwf(in, traceName, machineProcs, stats);
}

void writeSwf(std::ostream& out, const Trace& trace) {
  out << "; trace: " << trace.name << "\n";
  out << "; MaxProcs: " << trace.machineProcs << "\n";
  for (const Job& j : trace.jobs) {
    // job submit wait run procs cpu mem procsReq timeReq memReq status uid
    // gid exe queue partition preceding think
    out << (j.id + 1) << ' ' << j.submit << ' ' << -1 << ' ' << j.runtime
        << ' ' << j.procs << ' ' << -1 << ' '
        << (j.memoryMb > 0 ? static_cast<long long>(j.memoryMb) * 1024 : -1)
        << ' ' << j.procs << ' ' << j.estimate
        << " -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  }
}

}  // namespace sps::workload
