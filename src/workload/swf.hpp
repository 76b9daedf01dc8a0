// Standard Workload Format (SWF) I/O.
//
// The paper draws its workloads from Feitelson's Parallel Workloads Archive
// (CTC/SDSC/KTH SP2 logs), which are distributed in SWF: one line per job,
// 18 whitespace-separated fields, ';' comment lines. This reader lets real
// archive logs drop straight into the simulator; the synthetic generator is
// the stand-in when the logs themselves are not available (see DESIGN.md).
//
// Field mapping (SWF index -> Job):
//    1 job number        -> (re-numbered densely)
//    2 submit time       -> submit
//    4 run time          -> runtime
//    5 allocated procs   -> procs (falls back to field 8, requested procs)
//    7 used memory KB/proc-> memoryMb (rounded up; 0 when absent)
//    9 requested time    -> estimate (clamped up to runtime: jobs are killed
//                           at their wall-clock limit, so runtime never
//                           exceeds the request in a consistent model)
//
// Jobs with non-positive runtime or processor count (cancelled entries) are
// dropped, and a summary of drops is reported. A data line is rejected, with
// its line number, when a token is not a finite number or a consumed field
// does not fit the Job field it feeds (a count of processors past 2^32 - 1,
// a time past 2^63 - 1 seconds).
#pragma once

#include <iosfwd>
#include <string>

#include "workload/job.hpp"

namespace sps::workload {

struct SwfReadStats {
  std::size_t linesRead = 0;
  std::size_t jobsAccepted = 0;
  std::size_t droppedNonPositiveRuntime = 0;
  std::size_t droppedNonPositiveProcs = 0;
  std::size_t droppedTooWide = 0;  ///< wider than machineProcs
  std::size_t estimatesClamped = 0;
};

/// Parse SWF from a stream. `machineProcs` is required (SWF headers carry it
/// only as a comment convention). Throws InputError on malformed lines.
[[nodiscard]] Trace readSwf(std::istream& in, const std::string& traceName,
                            std::uint32_t machineProcs,
                            SwfReadStats* stats = nullptr);

/// Parse an SWF file from disk. Throws InputError if the file cannot be
/// opened.
[[nodiscard]] Trace readSwfFile(const std::string& path,
                                const std::string& traceName,
                                std::uint32_t machineProcs,
                                SwfReadStats* stats = nullptr);

/// Write a trace in SWF (fields the model does not carry are -1).
void writeSwf(std::ostream& out, const Trace& trace);

}  // namespace sps::workload
