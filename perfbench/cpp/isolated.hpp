// Isolated calls into single layers, timed at a workload's shape.
//
// Each function builds the layer's public object alone, primes it to the
// workload's size, and times many calls in batches for about `seconds`
// of host time, returning the median ns per operation over the batches.
// Multiplying a layer's exact count per message by its ns per operation
// estimates the layer's share of the host time per message.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// sim: sim::Engine schedule + dispatch of self-rescheduling event chains
/// holding `heap_depth` events pending.  ns per event.
double time_engine_event(std::uint64_t heap_depth, double seconds);

/// match: match::PostedList::search past `depth` non-matching entries to
/// a hit.  ns per entry examined.
double time_list_entry(std::size_t depth, double seconds);

/// alpu: hw::AlpuArray::match (256 cells) holding `occupancy` entries,
/// the oldest match last.  ns per probe.
double time_alpu_probe(std::size_t occupancy, double seconds);

/// mem: mem::MemorySystem loads (NIC configuration) walking `lines`
/// consecutive 64-byte lines over and over.  ns per access.
double time_memory_access(std::size_t lines, double seconds);

}  // namespace perfbench
