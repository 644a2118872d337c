// Reference-speed normalisation of host times.
//
// On a shared virtual machine the same code runs up to ~1.6x slower for
// seconds to minutes at a time (other tenants contending for the core,
// invisible to the guest: no steal time, no load).  A run's host times
// then say more about its neighbours than about the simulator.  So the
// benchmark times a fixed reference kernel — a small discrete-event loop
// of its own, not simulator code — on the same CPU right beside every
// measurement, and scales each measurement to the speed at which one
// reference iteration takes kReferenceNs:
//
//   time at reference speed = measured time * kReferenceNs / reference ns
//
// The kernel mixes what the simulator's hot paths do (a 4-ary event heap,
// indirect calls, hash probes into a 1 MiB table, small allocations), so
// contention slows both alike.  Nothing in src/ changes it, so a faster
// simulator still shows as a lower time.
#pragma once

namespace perfbench {

/// Nominal ns per reference iteration (an uncontended 2.1 GHz Xeon vCPU
/// runs one in about this time).
inline constexpr double kReferenceNs = 150.0;

/// Run the reference kernel for ~0.4 ms; ns per iteration.
double reference_ns();

}  // namespace perfbench
