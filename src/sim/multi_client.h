// Multi-client shared-bottleneck simulation.
//
// Several players stream concurrently through one bottleneck whose capacity
// is the replayed trace; while k downloads are in flight each receives a
// 1/k share (the TCP fair-share approximation used throughout the ABR
// fairness literature, e.g. FESTIVE). Lets the library answer questions the
// single-session harness cannot: do CAVA clients share fairly with each
// other and with other schemes?
//
// Each client is a SessionStepper (sim/stepper.h) that this driver moves
// through its sub-steps on one shared clock, so startup, buffer cap,
// decision validation, watchdog budgets (the sim-time budget counts from
// the client's start_offset_s) and telemetry are run_session's. The
// transfer differs: bytes arrive as a fluid fair share, the loop advances
// in trace-sample steps, and waits under 1e-7 s are float residue it
// ignores. So a single client picks the same tracks as run_session with
// download times within 1e-3 s, rebuffering within 1e-2 s and total bits
// within 1 bit (MultiClient.SingleClientMatchesRunSession), not byte for
// byte.
#pragma once

#include <memory>
#include <vector>

#include "abr/scheme.h"
#include "net/bandwidth_estimator.h"
#include "net/trace.h"
#include "sim/session.h"

namespace vbr::sim {

/// One participant in a shared-bottleneck run. The caller owns the video;
/// scheme and estimator are owned by the spec.
struct ClientSpec {
  const video::Video* video = nullptr;
  std::unique_ptr<abr::AbrScheme> scheme;
  std::unique_ptr<net::BandwidthEstimator> estimator;
  double start_offset_s = 0.0;  ///< Join time relative to the run start.
  /// Per-client size knowledge (null = exact manifest sizes). Owned by the
  /// spec: correcting providers carry per-client learned state, and sharing
  /// one across clients would cross-contaminate their beliefs — which is
  /// why run_multi_client rejects SessionConfig::size_provider.
  std::unique_ptr<video::ChunkSizeProvider> size_provider;
  /// Per-client watch duration (seconds of content; see
  /// SessionConfig::watch_duration_s). 0 falls back to the shared config
  /// value; both 0 = watch to the end. Fleet-style populations mix viewers
  /// who leave at different times, which changes the bottleneck share for
  /// everyone still watching.
  double watch_duration_s = 0.0;
};

struct MultiClientResult {
  std::vector<SessionResult> sessions;  ///< One per client, same order.

  /// Jain fairness index of a per-client statistic in [1/n, 1]. Thin
  /// wrapper over stats::jain_index (src/metrics/stats.h), kept for source
  /// compatibility.
  [[nodiscard]] static double jain_index(const std::vector<double>& xs);

  /// Per-client mean delivered quality under `metric`.
  [[nodiscard]] std::vector<double> mean_qualities(
      video::QualityMetric metric) const;

  /// Per-client total downloaded bits.
  [[nodiscard]] std::vector<double> total_bits() const;
};

/// Runs every client to completion over the shared trace.
/// Throws std::invalid_argument on empty/malformed specs.
[[nodiscard]] MultiClientResult run_multi_client(
    const net::Trace& trace, std::vector<ClientSpec> clients,
    const SessionConfig& config = {});

}  // namespace vbr::sim
