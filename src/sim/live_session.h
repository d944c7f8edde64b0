// Live-streaming session simulator (the paper's stated future work,
// Section 8: "extending CAVA and its concepts to ABR streaming of live VBR
// encoded videos").
//
// Differences from the VoD session:
//   - chunk i only exists once the encoder has produced it, at wall-clock
//     time (i+1) * chunk_duration + encoder_delay; the player idles at the
//     live edge until the next chunk is announced;
//   - schemes see a fenced manifest (StreamContext::visible_chunks), so
//     look-ahead windows (CAVA's W/W', MPC's and PANDA's horizons) truncate
//     at the live edge — there is no future to preview;
//   - the buffer is naturally bounded by the end-to-end latency budget: a
//     player `join_latency_s` behind the live edge can never hold more than
//     that much content.
//
// The session itself is a SessionStepper (sim/stepper.h) bound to the
// release schedule; this wrapper adds its own validation and the latency
// accounting on top of the usual session metrics.
#pragma once

#include "sim/session.h"

namespace vbr::sim {

struct LiveSessionConfig {
  /// How far behind the live edge the player joins (its latency budget).
  double join_latency_s = 30.0;
  /// Encoder/packager delay: chunk i is announced at
  /// (i+1) * chunk_duration + encoder_delay_s.
  double encoder_delay_s = 2.0;
  double startup_latency_s = 10.0;
  double max_buffer_s = 100.0;  ///< Player cap (latency budget binds first).

  /// Network fault injection + resilience, same semantics as the VoD
  /// session (all probabilities 0 = off, strict no-op). A skipped chunk is
  /// jumped over: the playhead stays on the live timeline.
  net::FaultConfig fault;
  RetryPolicy retry;

  /// Scheme-visible chunk-size knowledge (see SessionConfig::size_provider;
  /// same null-means-exact semantics). Degraded metadata is *more* likely
  /// live: segment size tables are only published as segments are encoded.
  video::ChunkSizeProvider* size_provider = nullptr;

  /// Telemetry, same semantics as SessionConfig (both null = off and
  /// zero-cost; not owned; not thread-safe).
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::uint64_t session_id = 0;
};

struct LiveSessionResult {
  SessionResult session;       ///< Chunk records, rebuffering, bits.
  double mean_latency_s = 0.0; ///< Mean playhead lag behind the live edge.
  double max_latency_s = 0.0;
  double edge_wait_s = 0.0;    ///< Total time idling for chunk production.
};

/// Runs one live session. The scheme and estimator are reset() first.
/// Throws std::invalid_argument on inconsistent configuration.
[[nodiscard]] LiveSessionResult run_live_session(
    const video::Video& video, const net::Trace& trace,
    abr::AbrScheme& scheme, net::BandwidthEstimator& estimator,
    const LiveSessionConfig& config = {});

}  // namespace vbr::sim
