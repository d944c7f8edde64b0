// Per-chunk session stepper: the one session core behind every driver.
//
// A session resolves its chunks one at a time, each through the same
// sub-steps:
//   - request(now): the watchdog budgets, then one scheme decision (the
//     StreamContext, the timed decide, and the track and negative-wait
//     checks). It opens the chunk record.
//   - transfer: fetch the chunk. step() runs the private-trace fetch ladder
//     (RTT, delivery-path plan, abandonment, retry / resume / downgrade);
//     a driver that shares a link runs its own transfer and books it
//     through begin_fetch / count_failure / waste / downgrade.
//   - deliver(now) or skip(now): buffer add, estimator / scheme / hook /
//     provider feedback, the startup rule measured from the session's start
//     time, total_bits, and the telemetry event.
//   - elapse(dt, in_transfer): playout drain and stall accounting.
//
// Three drivers use it:
//   - run_session and the fleet (both engines) call step(), which composes
//     the sub-steps on the stepper's own clock and leaves the session paused
//     right before the next decision;
//   - run_live_session calls step() too, with a release schedule bound
//     through SessionTimeline: before each request the session waits for
//     the chunk to be released, then for buffer room, and the scheme's
//     look-ahead is fenced at the released count;
//   - run_multi_client keeps one clock for all its clients and calls the
//     sub-steps itself, transferring bytes as a fair share of one link.
// Sub-steps take the driver's `now_s` and never advance a clock of their
// own, so a shared-clock driver's float sums stay its own.
#pragma once

#include <cstddef>
#include <optional>

#include "abr/scheme.h"
#include "net/bandwidth_estimator.h"
#include "net/fault_model.h"
#include "net/trace.h"
#include "sim/buffer.h"
#include "sim/session.h"
#include "sim/telemetry.h"
#include "video/video.h"

namespace vbr::sim {

/// How a driver places a session on its clock. The default is a VoD session
/// starting at t = 0 (run_session, the fleet).
struct SessionTimeline {
  /// Names the driver in every error the stepper throws.
  const char* driver = "run_session";
  /// Driver time of the session's first request (its join time). The
  /// startup delay and the watchdog's sim-time budget count from here.
  double start_s = 0.0;
  /// Live release schedule: chunk i can be requested from
  /// (i + 1) * chunk_duration + encoder_delay_s on. Empty = VoD.
  std::optional<double> encoder_delay_s;
};

class SessionStepper {
 public:
  /// Validates `config` (same "<driver>: ..." messages as the wrapper)
  /// and binds the session. The scheme / estimator / size provider are
  /// reset() here, exactly as run_session did, so pooled instances stay
  /// reusable under the documented reuse contract. All referenced objects
  /// (video, trace, scheme, estimator, and everything `config` points at)
  /// must outlive the stepper; the config itself is copied.
  SessionStepper(const video::Video& video, const net::Trace& trace,
                 abr::AbrScheme& scheme, net::BandwidthEstimator& estimator,
                 const SessionConfig& config,
                 const SessionTimeline& timeline = {});

  /// Resolves the next chunk on the stepper's own clock (or the watchdog
  /// abort). Returns true while the session still has work left after this
  /// call; false once the session is complete and finish() may be called.
  /// Calling step() on a completed session is a no-op returning false.
  bool step();

  // ---- Sub-steps, for a driver that owns the clock. Call request() only
  // while !done(); every request() is closed by exactly one deliver() or
  // skip().

  /// Watchdog check, then one scheme decision at `now_s`. Returns nullopt
  /// (and marks the session done) when a watchdog budget is spent. Throws
  /// std::logic_error on an invalid track or a negative wait.
  std::optional<abr::Decision> request(double now_s);

  /// The open chunk record, for the driver's transfer bookkeeping (waits,
  /// backoff, resumed bits, download_s, attempts).
  [[nodiscard]] ChunkRecord& pending_chunk() { return rec_; }

  /// Seconds until the buffer has room for one more chunk (0 if it has).
  [[nodiscard]] double room_wait_s() const {
    return buffer_.time_until_room_for(chunk_s_);
  }

  /// Starts fetching the decided track at `now_s`; returns its size.
  double begin_fetch(double now_s);

  /// Counts one failed attempt of the open chunk by kind.
  void count_failure(net::FaultKind kind);

  /// Books bits transferred and thrown away (abandoned or dropped fetches).
  void waste(double bits);

  /// Falls back to the lowest track after repeated failure, discarding any
  /// partial higher-track bytes. Returns the new chunk size.
  double downgrade();

  /// The open chunk landed at `now_s`: the driver has set download_s and
  /// attempts; `final_bits` are the bits of the delivering attempt.
  void deliver(double now_s, double final_bits);

  /// The open chunk exhausted its attempts at `now_s` and is never played.
  void skip(double now_s);

  /// Drains the buffer by `dt` of playout. The stall counts toward total
  /// rebuffering and, while bytes are in flight, toward the open chunk.
  /// Returns the stall.
  double elapse(double dt, bool in_transfer);

  /// True once the session has no more chunks to fetch.
  [[nodiscard]] bool done() const { return done_; }

  /// Session clock: the stepper's own under step(), else the driver time
  /// of the latest sub-step.
  [[nodiscard]] double now_s() const { return t_; }

  /// Time spent waiting for chunks to be released (live sessions).
  [[nodiscard]] double release_wait_s() const { return release_wait_s_; }

  /// Finalizes (end-of-session clock + trace flush) and moves the result
  /// out. Call exactly once, after the session is done.
  [[nodiscard]] SessionResult finish();

 private:
  /// Live: waits for chunk i_'s release, then for buffer room.
  void await_release();
  /// The private-trace fetch ladder; ends in deliver() or skip().
  void transfer();
  /// Startup rule, totals, record and telemetry of the resolved chunk.
  void resolve(double now_s);

  const video::Video* video_;
  const net::Trace* trace_;
  abr::AbrScheme* scheme_;
  net::BandwidthEstimator* estimator_;
  SessionConfig config_;  ///< Copied: fleet callers build it per session.
  SessionTimeline timeline_;
  net::FaultModel fault_model_;
  detail::SessionTelemetry telemetry_;
  PlayoutBuffer buffer_;
  SessionResult result_;
  std::size_t total_chunks_;
  double chunk_s_;
  double t_;
  double release_wait_s_ = 0.0;
  abr::StreamContext ctx_;  ///< Context of the open chunk's decision.
  ChunkRecord rec_;         ///< The open chunk.
  int prev_track_ = -1;
  std::size_t i_ = 0;
  bool done_ = false;
};

}  // namespace vbr::sim
