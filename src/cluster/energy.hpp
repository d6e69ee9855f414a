// Per-core power/energy model.
//
// The paper measures application energy with `perf`, subtracting idle
// consumption. Controllers are compared on *relative* energy, so any model
// that is monotone in frequency and activity preserves the paper's ordering.
// We use the standard CMOS-style decomposition: active power has a static
// leakage part plus a dynamic part growing super-linearly with frequency
// (P_dyn ~ C V^2 f; alpha = 1.8 reflects that server parts ride a shallow
// V/f curve across the 1.6-3.1 GHz band).
#pragma once

#include <cmath>

#include "cluster/cpu.hpp"
#include "common/time.hpp"

namespace sg {

struct EnergyModel {
  double static_watts_per_core = 0.8;   // leakage while the core is busy
  double dynamic_watts_at_ref = 1.7;    // dynamic power at ref frequency
  double freq_exponent = 1.8;

  /// Power of a core that is ALLOCATED to a container but momentarily idle.
  /// Microservice runtimes poll their connection pools and RPC queues, so a
  /// hogged core never drops to package idle (which the paper's
  /// measurements subtract out); this term is what makes over-allocation
  /// cost energy, not just cores.
  double allocated_idle_watts = 1.2;

  /// Power of one busy core at frequency f (idle power is excluded, as the
  /// paper subtracts idle energy). Both sides of the frequency ratio are
  /// integer MHz, so the formula cannot silently mix Hz with MHz.
  double busy_core_watts(FreqMhz f) const {
    const double rel =
        static_cast<double>(f) / static_cast<double>(kDvfs.ref_mhz);
    return static_watts_per_core +
           dynamic_watts_at_ref * std::pow(rel, freq_exponent);
  }

  /// Energy in joules for `busy_cores` cores running `dt` at frequency f.
  double energy(double busy_cores, FreqMhz f, Duration dt) const {
    return busy_core_watts(f) * busy_cores * dt.seconds();
  }
};

/// The power model of every container.
inline constexpr EnergyModel kEnergy{};

}  // namespace sg
