// Closed-form communication costs of the primitives the dynamical core
// uses, in the alpha-beta model.  These are the per-call costs the event
// simulator charges for collective operations, and they follow the
// algorithms of Thakur, Rabenseifner & Gropp [19] that src/comm implements.
#pragma once

#include <cstddef>

#include "perf/machine.hpp"

namespace ca::perf {

/// One point-to-point message of `bytes` bytes.
double p2p_time(const MachineModel& m, std::size_t bytes);

/// Ring allreduce over p ranks of a `bytes`-byte vector:
/// 2(p-1) rounds, 2*(p-1)/p*bytes moved per rank.
double ring_allreduce_time(const MachineModel& m, int p, std::size_t bytes);

/// Recursive-doubling allreduce: ceil(log2 p) rounds of full-vector
/// exchange.
double recursive_doubling_allreduce_time(const MachineModel& m, int p,
                                         std::size_t bytes);

/// The cheaper of ring and recursive doubling, by modeled time.  This is
/// NOT comm::allreduce's kAuto, which picks by length alone (ring once
/// the vector has at least 4p elements).  At tianhe2(), pz = 8 and a
/// 34,560-byte z-allreduce the model charges recursive doubling
/// (0.925 ms) where the runtime runs the ring (2.622 ms in this model),
/// and the schedule builders' emit_c_collectives charges this time with
/// the ring's byte volume.
double allreduce_time(const MachineModel& m, int p, std::size_t bytes);

/// Bytes a rank sends during a ring allreduce (for volume accounting).
std::size_t ring_allreduce_bytes(int p, std::size_t bytes);

}  // namespace ca::perf
