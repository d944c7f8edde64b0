// Per-chunk session stepper: the one session core behind every driver.
//
// A session resolves its chunks one at a time, each through the same
// sub-steps:
//   - request: the watchdog budgets, then one scheme decision (the
//     StreamContext, the timed decide, and the track and negative-wait
//     checks). It opens the chunk record.
//   - the fetch ladder: the scheme's wait, the VoD buffer-room gate, then
//     attempts of the chunk until one delivers or the attempt budget is
//     spent. Each attempt draws its fault outcome; a failure is charged
//     (connect delay, timeout, or a mid-transfer drop whose bytes are
//     resumed or wasted), may downgrade the fetch to the lowest track, and
//     is followed by a backoff (sim/retry.h). RTT and the delivery-path
//     plan set each attempt's first-byte lead.
//   - deliver or skip: buffer add, estimator / scheme / hook / provider
//     feedback, the startup rule measured from the session's start time,
//     total_bits, and the telemetry event.
//   - elapse: playout drain and stall accounting. Time spent inside an
//     attempt (its lead, a failure's delay, its bytes) counts toward the
//     open chunk's stall_s; waits and backoff count only toward total
//     rebuffering.
//
// The ladder asks its driver one question: how long does an attempt that
// moves bytes take? There are two rate sources:
//   - the session's private trace, which step() answers in closed form
//     (run_session, the fleet with both engines, and run_live_session,
//     whose release schedule SessionTimeline binds: before each request
//     the session waits for the chunk's release, then for buffer room, and
//     the scheme's look-ahead is fenced at the released count). Segment
//     abandonment and the delivery-path hook need this source;
//   - the fair share of one link (run_multi_client): the driver owns the
//     clock, calls advance() whenever the session's last Yield is met, and
//     elapse() as its clock moves.
// The sub-steps are private: a driver sees only step(), or advance() and
// elapse(), plus done(), now_s(), release_wait_s() and finish().
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Fault stream of the session's net::FaultModel: clients sharing one
  /// config draw independent faults from distinct streams.
  std::uint64_t fault_stream = 0;
};

class SessionStepper {
 public:
  /// What the fetch ladder needs before it can go on: `wait_s` of time
  /// (a wait, a backoff, a failure's delay, or an attempt's first-byte
  /// lead), then `bits` moved at the rate source's rate (0 = none).
  struct Yield {
    double wait_s = 0.0;
    double bits = 0.0;
  };

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

  /// Private-trace source: resolves the next chunk on the stepper's own
  /// clock (or the watchdog abort). Returns true while the session still
  /// has work left after this call; false once the session is complete and
  /// finish() may be called. Calling step() on a completed session is a
  /// no-op returning false.
  bool step();

  /// Shared-link source: `now_s` is the driver time at which the previous
  /// Yield was met (the first call: the session's start time). Runs the
  /// session up to its next Yield, across chunk boundaries; returns a
  /// zero Yield once done(). Neither segment abandonment nor a download
  /// hook is supported on this source.
  Yield advance(double now_s);

  /// Shared-link source: drains the buffer by `dt` of playout. The stall
  /// counts toward the open chunk while an attempt is in flight.
  void elapse(double dt);

  /// True once the session has no more chunks to fetch.
  [[nodiscard]] bool done() const { return done_; }

  /// Session clock: the stepper's own under step(), else the driver time
  /// of the latest advance().
  [[nodiscard]] double now_s() const { return t_; }

  /// Time spent waiting for chunks to be released (live sessions).
  [[nodiscard]] double release_wait_s() const { return release_wait_s_; }

  /// Finalizes (end-of-session clock + trace flush) and moves the result
  /// out. Call exactly once, after the session is done.
  [[nodiscard]] SessionResult finish();

 private:
  /// Where the open chunk stands; the time elapsing now belongs to it.
  enum class Phase : std::uint8_t {
    kIdle,        ///< Between chunks: the next request is due.
    kDecided,     ///< Decision taken; the scheme's wait is next.
    kSchemeWait,  ///< The scheme's wait is elapsing.
    kRoomWait,    ///< The VoD buffer-room wait is elapsing.
    kAttempt,     ///< An attempt is in flight.
    kBackoff,     ///< A backoff before the next attempt is elapsing.
  };

  /// Live: waits for chunk i_'s release, then for buffer room.
  void await_release();
  /// Watchdog check, then one scheme decision at t_. Returns false (and
  /// marks the session done) when a watchdog budget is spent. Throws
  /// std::logic_error on an invalid track or a negative wait.
  bool request();
  /// Runs the open chunk at t_ up to its next Yield; nullopt once the
  /// chunk is resolved.
  std::optional<Yield> ladder();
  /// Starts the next attempt of the open chunk at t_.
  Yield attempt();
  /// The attempt in flight ended at t_: delivers, or books the failure.
  std::optional<Yield> end_attempt();
  /// Private trace's answer for a byte-moving attempt; applies segment
  /// abandonment first.
  double private_attempt_s(const Yield& y);
  /// Asks the download hook for the open chunk's delivery-path plan.
  void draw_plan();
  /// Books bits transferred and thrown away (abandoned or dropped fetches).
  void waste(double bits);
  /// Closes the open chunk as delivered, or as skipped: never played.
  void deliver();
  void skip();
  /// Startup rule, totals, record and telemetry of the resolved chunk.
  void resolve();
  /// Playout drain; the stall counts toward the open chunk if in_transfer.
  void drain(double dt, bool in_transfer);

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

  // Fetch ladder of the open chunk.
  Phase phase_ = Phase::kIdle;
  FetchPlan plan_;               ///< Delivery path of the current object.
  double lead_s_ = 0.0;          ///< First-byte lead of every attempt.
  std::size_t failures_ = 0;     ///< Failed attempts so far.
  double need_bits_ = 0.0;       ///< Bits still required to land the chunk.
  // The attempt in flight: its fault outcome, the bits it moves, and its
  // issue time.
  net::FaultKind attempt_kind_ = net::FaultKind::kNone;
  double attempt_bits_ = 0.0;
  double attempt_start_s_ = 0.0;
};

}  // namespace vbr::sim
