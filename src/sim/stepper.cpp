#include "sim/stepper.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace vbr::sim {

namespace {

/// Validation runs before any member that depends on the config is built,
/// preserving run_session's error-before-side-effects ordering and its
/// exact "<driver>: ..." messages.
const SessionConfig& checked(const SessionConfig& config, const char* driver) {
  validate_session_config(config, driver);
  return config;
}

}  // namespace

SessionStepper::SessionStepper(const video::Video& video,
                               const net::Trace& trace, abr::AbrScheme& scheme,
                               net::BandwidthEstimator& estimator,
                               const SessionConfig& config,
                               const SessionTimeline& timeline)
    : video_(&video),
      trace_(&trace),
      scheme_(&scheme),
      estimator_(&estimator),
      config_(checked(config, timeline.driver)),
      timeline_(timeline),
      fault_model_(config_.fault, timeline.fault_stream),
      buffer_(config_.max_buffer_s),
      // Watch-duration truncation: a viewer who leaves early only ever
      // fetches the chunks covering what they watch.
      total_chunks_(effective_chunk_count(video, config_.watch_duration_s)),
      chunk_s_(video.chunk_duration_s()),
      t_(timeline.start_s) {
  // Reuse contract: run_experiment and run_fleet hand the same scheme /
  // estimator / provider instances to many sessions back-to-back. These
  // resets are the only barrier between sessions — any cross-chunk state a
  // scheme keeps (error windows, controllers, search scratch) must either
  // be cleared by reset() or be overwritten before it is read. The
  // back-to-back regression tests pin that a reused instance reproduces a
  // fresh instance byte-for-byte.
  scheme_->reset();
  estimator_->reset();
  if (config_.size_provider != nullptr) {
    config_.size_provider->reset();
  }
  telemetry_.bind(config_.trace, config_.metrics, config_.session_id,
                  *scheme_, config_.size_provider,
                  /*edge_path_session=*/config_.download_hook != nullptr,
                  config_.fleet_session, config_.fleet_arrival_s,
                  config_.fleet_title, config_.fleet_arm);
  result_.chunks.reserve(total_chunks_);
  done_ = total_chunks_ == 0;
}

bool SessionStepper::step() {
  if (done_) {
    return false;
  }
  // Live sessions gate before the decision: the chunk must exist, and the
  // buffer must have room for it.
  if (timeline_.encoder_delay_s) {
    await_release();
  }
  if (!request()) {
    return false;
  }
  // Private-trace source: a byte-moving attempt takes the trace's
  // closed-form time; every other Yield is a plain wait.
  while (const std::optional<Yield> y = ladder()) {
    const double dt = y->bits > 0.0 ? private_attempt_s(*y) : y->wait_s;
    drain(dt, phase_ == Phase::kAttempt);
    t_ += dt;
  }
  return !done_;
}

SessionStepper::Yield SessionStepper::advance(double now_s) {
  // Shared-link source: the attempt in flight took the driver's clock.
  if (phase_ == Phase::kAttempt) {
    rec_.download_s = now_s - attempt_start_s_;
  }
  t_ = now_s;
  while (!done_) {
    if (phase_ == Phase::kIdle && !request()) {
      break;
    }
    if (const std::optional<Yield> y = ladder()) {
      return *y;
    }
  }
  return {};
}

void SessionStepper::elapse(double dt) {
  drain(dt, phase_ == Phase::kAttempt);
}

void SessionStepper::await_release() {
  const double released_at =
      static_cast<double>(i_ + 1) * chunk_s_ + *timeline_.encoder_delay_s;
  if (t_ < released_at) {
    const double wait = released_at - t_;
    drain(wait, /*in_transfer=*/false);
    release_wait_s_ += wait;
    t_ = released_at;
  }
  // Then room: this binds once a player joined far behind the live edge
  // has filled its buffer.
  const double room_wait = buffer_.time_until_room_for(chunk_s_);
  if (room_wait > 0.0) {
    drain(room_wait, /*in_transfer=*/false);
    t_ += room_wait;
  }
}

bool SessionStepper::request() {
  const double now_s = t_;
  // Watchdog: both budgets are pure functions of simulation state, so an
  // over-budget session aborts at the same chunk on every replay.
  if ((config_.watchdog_max_decisions > 0 &&
       static_cast<std::uint64_t>(i_) >= config_.watchdog_max_decisions) ||
      (config_.watchdog_max_sim_s > 0.0 &&
       now_s - timeline_.start_s >= config_.watchdog_max_sim_s)) {
    result_.watchdog_aborted = true;
    done_ = true;
    return false;
  }
  const video::Video& video = *video_;
  abr::StreamContext& ctx = ctx_;
  ctx = abr::StreamContext{};
  ctx.video = &video;
  ctx.next_chunk = i_;
  ctx.buffer_s = buffer_.level_s();
  ctx.est_bandwidth_bps = estimator_->estimate_bps(now_s);
  ctx.prev_track = prev_track_;
  ctx.now_s = now_s;
  ctx.max_buffer_s = config_.max_buffer_s;
  ctx.startup_latency_s = config_.startup_latency_s;
  ctx.in_startup = !buffer_.playing();
  ctx.sizes = config_.size_provider;
  if (timeline_.encoder_delay_s) {
    // Chunks released so far fence every scheme's look-ahead.
    const auto released = static_cast<std::size_t>(std::max(
        1.0, std::floor((now_s - *timeline_.encoder_delay_s) / chunk_s_)));
    ctx.visible_chunks = std::min(released, video.num_chunks());
  }

  const abr::Decision decision =
      detail::timed_decide(telemetry_, *scheme_, ctx);
  if (decision.track >= video.num_tracks()) {
    throw std::logic_error(std::string(timeline_.driver) +
                           ": scheme chose an invalid track");
  }
  if (decision.wait_s < 0.0) {
    throw std::logic_error(std::string(timeline_.driver) +
                           ": scheme requested negative wait");
  }
  rec_ = ChunkRecord{};
  rec_.index = i_;
  rec_.track = decision.track;
  if (decision.wait_s > 0.0) {
    rec_.wait_s = decision.wait_s;
  }
  phase_ = Phase::kDecided;
  return true;
}

std::optional<SessionStepper::Yield> SessionStepper::ladder() {
  switch (phase_) {
    case Phase::kDecided:
      // Scheme-requested idle (e.g. BOLA above its buffer target).
      phase_ = Phase::kSchemeWait;
      if (rec_.wait_s > 0.0) {
        return Yield{rec_.wait_s, 0.0};
      }
      [[fallthrough]];
    case Phase::kSchemeWait:
      // VoD gate, measured once the scheme's wait has drained: never start
      // a download the buffer has no room for. Live sessions gate before
      // the decision instead.
      phase_ = Phase::kRoomWait;
      if (!timeline_.encoder_delay_s) {
        const double room_wait = buffer_.time_until_room_for(chunk_s_);
        if (room_wait > 0.0) {
          rec_.wait_s += room_wait;
          return Yield{room_wait, 0.0};
        }
      }
      [[fallthrough]];
    case Phase::kRoomWait:
      rec_.download_start_s = t_;
      rec_.size_bits = video_->chunk_size_bits(rec_.track, rec_.index);
      draw_plan();
      need_bits_ = rec_.size_bits;
      failures_ = 0;
      return attempt();
    case Phase::kAttempt:
      return end_attempt();
    case Phase::kBackoff:
      return attempt();
    case Phase::kIdle:
      break;
  }
  return std::nullopt;
}

// Resilient fetch: retry with backoff until the chunk lands, the track is
// downgraded, or the attempt budget is exhausted (skip). With faults off
// every outcome is kNone, so the first attempt delivers: the fault-free
// arithmetic of the pre-fault simulator, byte for byte.
SessionStepper::Yield SessionStepper::attempt() {
  phase_ = Phase::kAttempt;
  attempt_start_s_ = t_;
  const net::FaultOutcome outcome =
      fault_model_.outcome(rec_.index, failures_);
  attempt_kind_ = outcome.kind;
  switch (outcome.kind) {
    case net::FaultKind::kNone:
      attempt_bits_ = need_bits_;
      break;
    case net::FaultKind::kMidDrop:
      attempt_bits_ = outcome.drop_fraction * need_bits_;
      break;
    case net::FaultKind::kConnectFail:
    case net::FaultKind::kTimeout:
      attempt_bits_ = 0.0;
      return Yield{failed_attempt_delay_s(outcome, config_.fault,
                                          config_.retry, lead_s_),
                   0.0};
  }
  return Yield{lead_s_, attempt_bits_};
}

std::optional<SessionStepper::Yield> SessionStepper::end_attempt() {
  if (attempt_kind_ == net::FaultKind::kNone) {
    rec_.attempts = failures_ + 1;
    deliver();
    return std::nullopt;
  }
  // Failed attempt: its time drained the buffer in real time; its bytes
  // are wasted unless byte-range resume salvages them.
  switch (attempt_kind_) {
    case net::FaultKind::kConnectFail:
      ++rec_.connect_failures;
      break;
    case net::FaultKind::kMidDrop:
      ++rec_.mid_drops;
      break;
    case net::FaultKind::kTimeout:
      ++rec_.timeouts;
      break;
    case net::FaultKind::kNone:
      break;
  }
  if (attempt_bits_ > 0.0) {
    if (config_.retry.resume_partial) {
      rec_.resumed_bits += attempt_bits_;
      need_bits_ = std::max(need_bits_ - attempt_bits_, 1.0);
    } else {
      waste(attempt_bits_);
    }
  }

  ++failures_;
  if (failures_ >= config_.retry.max_attempts) {
    // Bytes already burned stay in wasted_bits; the chunk itself never
    // arrives and contributes no playable content or data usage.
    rec_.attempts = failures_;
    skip();
    return std::nullopt;
  }
  if (config_.retry.downgrade_on_failure && rec_.track > 0 &&
      failures_ >= config_.retry.downgrade_after) {
    rec_.track = 0;
    rec_.downgraded = true;
    rec_.size_bits = video_->chunk_size_bits(0, rec_.index);
    if (rec_.resumed_bits > 0.0) {
      // Partial higher-track bytes are useless to the new URL.
      waste(rec_.resumed_bits);
      rec_.resumed_bits = 0.0;
    }
    need_bits_ = rec_.size_bits;
    draw_plan();
  }
  const double backoff =
      backoff_delay_s(config_.retry, fault_model_, rec_.index, failures_ - 1);
  if (backoff > 0.0) {
    phase_ = Phase::kBackoff;
    rec_.backoff_wait_s += backoff;
    return Yield{backoff, 0.0};
  }
  return attempt();
}

double SessionStepper::private_attempt_s(const Yield& y) {
  const net::Trace& trace = *trace_;
  double dl =
      y.wait_s + trace.download_duration_s(t_ + y.wait_s,
                                           y.bits / plan_.rate_scale);
  // Segment abandonment (dash.js AbandonRequestsRule): part-way through a
  // too-slow fetch of a non-bottom track, abort it, burning its time and
  // bytes, and refetch the lowest track. It applies to clean full-chunk
  // attempts only; resumed or downgraded fetches are already the recovery
  // path.
  if (config_.enable_abandonment &&
      attempt_kind_ == net::FaultKind::kNone && rec_.track > 0 &&
      !rec_.downgraded && need_bits_ == rec_.size_bits) {
    const double check_at = config_.abandon_check_fraction * dl;
    if (dl - check_at > buffer_.level_s() + chunk_s_) {
      waste(trace.average_bandwidth_bps(t_, std::max(check_at, 1e-9)) *
            check_at * plan_.rate_scale);
      drain(check_at, /*in_transfer=*/false);
      t_ += check_at;
      rec_.abandoned_higher = true;
      rec_.track = 0;
      rec_.size_bits = video_->chunk_size_bits(0, rec_.index);
      need_bits_ = rec_.size_bits;
      attempt_bits_ = need_bits_;
      draw_plan();
      dl = lead_s_ + trace.download_duration_s(t_ + lead_s_,
                                               need_bits_ / plan_.rate_scale);
    }
  }
  rec_.download_s = dl;
  return dl;
}

void SessionStepper::draw_plan() {
  // The identity default (no hook) adds 0 latency and divides bits by 1.0,
  // both exact, so the hook-free arithmetic is byte-for-byte what it was
  // before the hook existed. Re-drawn whenever abandonment or downgrade
  // switches the fetch to a different track — a different object as far
  // as the edge cache is concerned.
  if (config_.download_hook != nullptr) {
    plan_ = config_.download_hook->on_chunk_request(
        *video_, rec_.track, rec_.index, rec_.size_bits, t_);
    if (!(plan_.rate_scale > 0.0) || plan_.rate_scale > 1.0 ||
        plan_.added_latency_s < 0.0 || plan_.tier > 2) {
      throw std::logic_error(std::string(timeline_.driver) +
                             ": download hook returned an invalid fetch plan");
    }
    rec_.edge_hit = plan_.edge_hit;
    rec_.edge_latency_s = plan_.added_latency_s;
    rec_.delivery_tier = plan_.tier;
    rec_.coalesced = plan_.coalesced;
    rec_.shed = plan_.shed;
  }
  // First-byte lead time of every attempt that reaches the wire.
  lead_s_ = config_.request_rtt_s + plan_.added_latency_s;
}

void SessionStepper::waste(double bits) {
  rec_.wasted_bits += bits;
  result_.total_bits += bits;
}

void SessionStepper::drain(double dt, bool in_transfer) {
  const double stalled = buffer_.elapse(dt);
  if (in_transfer) {
    rec_.stall_s += stalled;
  }
  result_.total_rebuffer_s += stalled;
}

void SessionStepper::deliver() {
  const double now_s = t_;
  const video::Video& video = *video_;
  ChunkRecord& rec = rec_;
  const std::size_t i = rec.index;
  buffer_.add_chunk(chunk_s_);
  rec.buffer_after_s = buffer_.level_s();
  rec.quality = video.track(rec.track).chunk(i).quality;

  estimator_->on_chunk_downloaded(attempt_bits_, rec.download_s, now_s);
  scheme_->on_chunk_downloaded(ctx_, rec.track, rec.download_s);
  if (config_.download_hook != nullptr) {
    config_.download_hook->on_chunk_delivered(video, rec.track, i,
                                              rec.size_bits, now_s);
  }
  if (config_.size_provider != nullptr) {
    // The wire delivered the true size; correcting providers learn from it
    // even when their estimate was wrong.
    config_.size_provider->on_actual_size(
        video, rec.track, i, video.chunk_size_bits(rec.track, i));
  }
  resolve();
}

void SessionStepper::skip() {
  rec_.skipped = true;
  rec_.download_s = 0.0;
  rec_.size_bits = 0.0;
  rec_.buffer_after_s = buffer_.level_s();
  resolve();
}

void SessionStepper::resolve() {
  // Playback begins once the startup latency worth of video is buffered
  // (or the video has been fully downloaded first).
  if (!buffer_.playing() && (buffer_.level_s() >= config_.startup_latency_s ||
                             rec_.index + 1 == total_chunks_)) {
    buffer_.start_playback();
    result_.startup_delay_s = t_ - timeline_.start_s;
  }

  result_.total_bits += rec_.size_bits;
  result_.chunks.push_back(rec_);
  telemetry_.on_chunk(rec_, ctx_, *scheme_, result_.total_rebuffer_s, t_);
  if (!rec_.skipped) {
    prev_track_ = static_cast<int>(rec_.track);
  }

  phase_ = Phase::kIdle;
  ++i_;
  if (i_ >= total_chunks_) {
    done_ = true;
  }
}

SessionResult SessionStepper::finish() {
  result_.end_time_s = t_;
  if (config_.trace != nullptr) {
    config_.trace->flush();
  }
  done_ = true;
  return std::move(result_);
}

}  // namespace vbr::sim
