// Host-speed probe: a fixed block of CPU work written in the benchmark's own
// files, so no change under src/ can change what it measures.
//
// A shared virtual machine runs in fast and slow phases that last minutes
// and move every timing by a quarter (see ../README.md). The ledger times
// the probe between its legs and scales its timing metrics by the probe's
// median, which reports them in seconds of a host whose probe takes
// kReferenceProbeS.
#pragma once

#include <cstdint>

namespace perfbench {

/// The probe time that defines a reference second.
inline constexpr double kReferenceProbeS = 0.0025;

struct ProbeResult {
  double seconds = 0.0;
  /// Bits of the search's result: the same on every call of one build.
  std::uint64_t checksum = 0;
};

/// Runs the probe once on the calling thread: an exhaustive search over
/// 6 levels × 5 steps of a buffer model, the shape of a model-predictive
/// ABR decision, over a 256 KiB table of fixed pseudo-random inputs.
[[nodiscard]] ProbeResult run_speed_probe();

}  // namespace perfbench
