// Multi-client shared-bottleneck simulation.
//
// Several players stream concurrently through one bottleneck whose capacity
// is the replayed trace; while k downloads are in flight each receives a
// 1/k share (the TCP fair-share approximation used throughout the ABR
// fairness literature, e.g. FESTIVE). Lets the library answer questions the
// single-session harness cannot: do CAVA clients share fairly with each
// other and with other schemes?
//
// Each client is a SessionStepper (sim/stepper.h) on the shared-link rate
// source: the stepper runs run_session's whole fetch ladder (decision,
// scheme wait, room gate, RTT lead, fault outcomes, resume or waste,
// downgrade, backoff, skip, stall attribution), and this driver keeps only
// the fluid scheduler: per-client share, next wake time, trace-sample
// boundaries, and each client's elapse. The watchdog's sim-time budget
// counts from the client's start_offset_s; each client draws faults from
// its own stream (its index). A single client therefore matches
// run_session in every track, attempt, per-kind failure count, downgrade,
// skip, backoff wait and wasted bit. Its times are fluid float sums, and a
// wake within 1e-7 s counts as reached, so download times match within
// 1e-3 s, per-chunk and total stalls within 1e-2 s and total bits within
// 1 bit (MultiClient.SingleClientMatchesRunSession), not byte for byte.
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
