// workload::generateTrace — calibrated stand-in for the archive logs.
//
// The paper's CTC/SDSC/KTH SP2 subsets are not recoverable, but the paper
// publishes exactly the workload statistics its phenomena depend on: the
// category mix over the 16 runtime x width classes (Tables II and III), the
// machine sizes, and (implicitly, via the saturation points of Section VI)
// the offered load. This generator samples jobs to match those statistics:
//
//   * category: weighted by the paper's published mix;
//   * runtime: bounded power law (runtimeAlpha; 1 = log-uniform, the
//              default) within the category's runtime band (Table I);
//   * width:   bounded power-law integers (widthAlpha) within the
//              category's width band, biased toward its narrow end;
//   * arrival: Poisson process whose rate is solved so the realized offered
//              load hits the target;
//   * memory:  uniform [100 MB, 1 GB] per processor (Section V-A).
//
// Everything is seeded; a given config reproduces the identical trace.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "workload/category.hpp"
#include "workload/job.hpp"

namespace sps::workload {

struct SyntheticConfig {
  std::string name = "synthetic";
  std::uint32_t machineProcs = 128;
  std::size_t jobCount = 10000;
  std::uint64_t seed = 42;

  /// Relative weight of each of the 16 categories (need not sum to 1).
  std::array<double, kNumCategories16> categoryMix{};

  /// Target offered load: total work / (machineProcs x submit span).
  double offeredLoad = 0.65;

  /// Runtime band edges, seconds. Categories draw from (lower boundary of
  /// their class, upper boundary]. minRuntime applies to the VS class only;
  /// maxRuntime caps VL.
  Time minRuntime = 15;
  Time maxRuntime = 24 * kHour;

  /// Per-processor memory image, MB (Section V-A's U[100 MB, 1 GB]).
  std::uint32_t memMinMb = 100;
  std::uint32_t memMaxMb = 1024;

  /// Width distribution within a band: bounded power law with density
  /// ~ w^-widthAlpha (1.0 = log-uniform). Real SP2 logs are strongly
  /// bottom-heavy inside each band; 2.2-3.2 reproduces the paper's NS slowdown
  /// landscape.
  double widthAlpha = 2.2;
  /// Runtime distribution within a band (same parameterization).
  double runtimeAlpha = 1.0;

  /// Diurnal arrival modulation: instantaneous arrival rate is
  /// lambda x (1 + A sin(2 pi t / day)), A in [0, 1). 0 = homogeneous
  /// Poisson (the default). Real logs are strongly diurnal; this knob lets
  /// sensitivity studies include the day/night cycle.
  double diurnalAmplitude = 0.0;

  /// Scale the width-band boundaries with the machine instead of using the
  /// paper's absolute Table I cutoffs (Narrow <= 8, Wide <= 32, calibrated
  /// for the ~128-proc SP2s). When set, Narrow tops out at machineProcs/16
  /// and Wide at machineProcs/4 — the same *fractions* of the machine the
  /// paper's cutoffs represent on SDSC — so a 100k-processor run sees the
  /// same relative width spectrum rather than 99% VeryWide jobs. Off by
  /// default: the paper-calibrated presets must stay bit-identical.
  /// (Category16 *classification* of the resulting jobs still uses the
  /// fixed Table I cutoffs everywhere else in the stack.)
  bool scaleWidthBands = false;
};

/// Generate a trace; estimates are initialized to the exact runtime
/// (apply an EstimateModel afterwards for the Section V studies).
[[nodiscard]] Trace generateTrace(const SyntheticConfig& config);

/// Presets calibrated to the paper (category mixes from Tables II/III;
/// offered loads tuned so the NS baseline reproduces the qualitative
/// slowdown landscape of Tables IV/V and saturation near the Section VI
/// points). KTH's mix is not published in the paper; the preset reuses the
/// SDSC mix on the 100-processor machine (documented in DESIGN.md).
[[nodiscard]] SyntheticConfig ctcConfig(std::size_t jobCount = 10000,
                                        std::uint64_t seed = 42);
[[nodiscard]] SyntheticConfig sdscConfig(std::size_t jobCount = 10000,
                                         std::uint64_t seed = 42);
[[nodiscard]] SyntheticConfig kthConfig(std::size_t jobCount = 10000,
                                        std::uint64_t seed = 42);

/// Re-target a preset at a different machine size (the `sps_sim --procs N`
/// override and the scale-out bench lanes): sets machineProcs and turns on
/// proportional width-band scaling so the width spectrum keeps its shape.
[[nodiscard]] SyntheticConfig scaledToMachine(SyntheticConfig cfg,
                                              std::uint32_t machineProcs);

}  // namespace sps::workload
