// Session replay: re-runs one title's fleet sessions through
// sim::SessionStepper outside run_fleet, so stepper physics and the
// delivery path can be timed apart from the fleet machinery.
//
// The title's sessions run in arrival order over a fresh edge-cache shard
// (and CDN path when the workload has one) built from public types, exactly
// as run_fleet chains a coupled title, with every seam wrapped in a timing
// decorator and every step() in a sim.step span. Each replayed session must
// reproduce its fleet record's chunk count, delivery-tier counts and QoE
// summary exactly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "fleet/fleet.h"
#include "workloads.h"

namespace perfbench {

struct ReplayOutcome {
  std::size_t title = 0;        ///< The replayed (busiest) title.
  std::size_t sessions = 0;     ///< Sessions replayed.
  std::size_t mismatched = 0;   ///< Sessions that differ from their record.
  std::uint64_t steps = 0;      ///< step() calls == events replayed.
  std::string first_mismatch;   ///< Empty when every session matched.
};

/// Replays the busiest title of `fleet` (a materializing run of
/// `w`'s spec over `in`). The tracer must be reset by the caller.
[[nodiscard]] ReplayOutcome replay_busiest_title(
    const Workload& w, const Inputs& in, const vbr::fleet::FleetResult& fleet);

/// Title with the most sessions (lowest index on a tie) and its count.
[[nodiscard]] std::pair<std::size_t, std::size_t> busiest_title(
    const vbr::fleet::FleetResult& fleet, std::size_t num_titles);

}  // namespace perfbench
