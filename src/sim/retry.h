// Retry policy and failed-attempt accounting for fault-injected sessions.
//
// Graceful-degradation semantics of SessionStepper's fetch ladder, the one
// ladder that VoD, live, fleet and multi-client sessions all run:
//   - every failed attempt consumes wall-clock time exactly as a player
//     would experience it (connect delay, partial transfer, or timeout);
//     the buffer drains in real time throughout, and stalls are charged to
//     rebuffering and to the open chunk;
//   - bytes of a dropped transfer are wasted (counted in data usage, like
//     abandonment) unless byte-range resume is enabled, in which case they
//     carry over into the next attempt;
//   - after `downgrade_after` failed attempts of a non-bottom track the
//     player refetches the lowest track instead (discarding any partial
//     higher-track bytes);
//   - a chunk that exhausts `max_attempts` is skipped: recorded explicitly,
//     never played, and the session moves on rather than aborting.
#pragma once

#include <cstddef>

#include "net/fault_model.h"

namespace vbr::sim {

/// Client-side resilience knobs. Only consulted when the fault model is
/// enabled — the zero-fault path never reads them.
struct RetryPolicy {
  std::size_t max_attempts = 3;  ///< Total attempts per chunk (>= 1).
  /// Exponential backoff between attempts: wait
  /// min(base * factor^k, max) * jitter for the k-th retry (k = 0 first).
  double backoff_base_s = 0.5;
  double backoff_factor = 2.0;
  double backoff_max_s = 8.0;
  double backoff_jitter = 0.1;  ///< +/- fraction, deterministic, in [0, 1).
  /// Player-side no-progress timeout. When a timeout fault fires, the
  /// player waits this long before giving up; 0 falls back to the fault
  /// model's server-stall duration.
  double request_timeout_s = 0.0;
  /// Downgrade-to-lowest-track after repeated failure of a higher track.
  bool downgrade_on_failure = true;
  std::size_t downgrade_after = 2;  ///< Failed attempts before downgrading.
  /// Byte-range resume: partial bytes of a dropped transfer carry over.
  bool resume_partial = false;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;
};

/// Wall-clock time burned by a failed attempt that moves no bytes (a
/// connect failure or a timeout; `outcome.kind` must be one of them), with
/// `request_rtt_s` of first-byte lead. A mid-transfer drop moves bytes, so
/// the ladder's rate source times it like any transfer.
[[nodiscard]] double failed_attempt_delay_s(const net::FaultOutcome& outcome,
                                            const net::FaultConfig& fault,
                                            const RetryPolicy& policy,
                                            double request_rtt_s);

/// Deterministic backoff delay before retry number `retry_index` (0-based)
/// of chunk `chunk_index`.
[[nodiscard]] double backoff_delay_s(const RetryPolicy& policy,
                                     const net::FaultModel& model,
                                     std::size_t chunk_index,
                                     std::size_t retry_index);

}  // namespace vbr::sim
