// CPU frequency (DVFS) model.
//
// Mirrors the paper's testbed setup: Cascade Lake cores driven by the
// `userspace` governor, initial frequency 1.6 GHz (artifact appendix), with
// FirstResponder boosting frequency via MSR writes. Frequencies are discrete
// steps between a floor and a turbo ceiling; execution speed scales linearly
// with frequency relative to the reference.
#pragma once

#include "common/assert.hpp"

namespace sg {

/// Frequency in MHz. Integer so DVFS levels compare exactly.
using FreqMhz = int;

struct DvfsModel {
  FreqMhz min_mhz = 1600;   // paper: initial frequency 1.6 GHz
  FreqMhz max_mhz = 3100;   // Xeon 6242 all-core turbo region
  FreqMhz step_mhz = 100;
  FreqMhz ref_mhz = 1600;   // speed 1.0 reference (work is expressed at ref)

  /// Fraction of a frequency increase that translates into execution-speed
  /// increase. Microservice request handling is partly memory- and
  /// network-bound, so speed scales sub-linearly with core frequency
  /// (at 0.55, the full 1.6->3.1 GHz swing buys ~1.52x, in line with
  /// published DVFS sensitivity of cloud workloads). Power, in contrast,
  /// scales with the full frequency (see EnergyModel) — which is exactly
  /// why frequency is the right knob for transient surges (instant, no
  /// core-ledger churn) but cores are the efficient one for sustained load.
  double scaling_efficiency = 0.55;

  /// Clamps and snaps a requested frequency onto the level grid.
  FreqMhz quantize(FreqMhz f) const {
    if (f < min_mhz) return min_mhz;
    if (f > max_mhz) return max_mhz;
    const FreqMhz offset = f - min_mhz;
    return min_mhz + (offset / step_mhz) * step_mhz;
  }

  /// Execution-speed multiplier at frequency f (1.0 at ref_mhz).
  double speed(FreqMhz f) const {
    SG_ASSERT(ref_mhz > 0);
    const double rel = static_cast<double>(f) / static_cast<double>(ref_mhz);
    return 1.0 + scaling_efficiency * (rel - 1.0);
  }
};

/// The DVFS model of every container (the paper's testbed runs one CPU
/// model).
inline constexpr DvfsModel kDvfs{};

}  // namespace sg
