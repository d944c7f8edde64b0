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
      fault_model_(config_.fault),
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
  const std::optional<abr::Decision> decision = request(t_);
  if (!decision) {
    return false;
  }
  // Scheme-requested idle (e.g. BOLA above its buffer target).
  if (decision->wait_s > 0.0) {
    elapse(decision->wait_s, /*in_transfer=*/false);
    t_ += decision->wait_s;
    rec_.wait_s = decision->wait_s;
  }
  // VoD gate: never start a download the buffer has no room for.
  if (!timeline_.encoder_delay_s) {
    const double room_wait = room_wait_s();
    if (room_wait > 0.0) {
      elapse(room_wait, /*in_transfer=*/false);
      t_ += room_wait;
      rec_.wait_s += room_wait;
    }
  }
  begin_fetch(t_);
  transfer();
  return !done_;
}

void SessionStepper::await_release() {
  const double released_at =
      static_cast<double>(i_ + 1) * chunk_s_ + *timeline_.encoder_delay_s;
  if (t_ < released_at) {
    const double wait = released_at - t_;
    elapse(wait, /*in_transfer=*/false);
    release_wait_s_ += wait;
    t_ = released_at;
  }
  // Then room: this binds once a player joined far behind the live edge
  // has filled its buffer.
  const double room_wait = room_wait_s();
  if (room_wait > 0.0) {
    elapse(room_wait, /*in_transfer=*/false);
    t_ += room_wait;
  }
}

std::optional<abr::Decision> SessionStepper::request(double now_s) {
  t_ = now_s;
  // Watchdog: both budgets are pure functions of simulation state, so an
  // over-budget session aborts at the same chunk on every replay.
  if ((config_.watchdog_max_decisions > 0 &&
       static_cast<std::uint64_t>(i_) >= config_.watchdog_max_decisions) ||
      (config_.watchdog_max_sim_s > 0.0 &&
       now_s - timeline_.start_s >= config_.watchdog_max_sim_s)) {
    result_.watchdog_aborted = true;
    done_ = true;
    return std::nullopt;
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
  return decision;
}

double SessionStepper::begin_fetch(double now_s) {
  rec_.download_start_s = now_s;
  rec_.size_bits = video_->chunk_size_bits(rec_.track, rec_.index);
  return rec_.size_bits;
}

void SessionStepper::count_failure(net::FaultKind kind) {
  switch (kind) {
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
}

void SessionStepper::waste(double bits) {
  rec_.wasted_bits += bits;
  result_.total_bits += bits;
}

double SessionStepper::downgrade() {
  rec_.track = 0;
  rec_.downgraded = true;
  rec_.size_bits = video_->chunk_size_bits(0, rec_.index);
  if (rec_.resumed_bits > 0.0) {
    // Partial higher-track bytes are useless to the new URL.
    waste(rec_.resumed_bits);
    rec_.resumed_bits = 0.0;
  }
  return rec_.size_bits;
}

double SessionStepper::elapse(double dt, bool in_transfer) {
  const double stalled = buffer_.elapse(dt);
  if (in_transfer) {
    rec_.stall_s += stalled;
  }
  result_.total_rebuffer_s += stalled;
  return stalled;
}

void SessionStepper::transfer() {
  const std::size_t i = i_;
  double& t = t_;
  const double chunk_s = chunk_s_;
  const video::Video& video = *video_;
  const net::Trace& trace = *trace_;
  const SessionConfig& config = config_;
  const net::FaultModel& fault_model = fault_model_;
  ChunkRecord& rec = rec_;

  // Delivery-path plan. The identity default (no hook) adds 0 latency and
  // divides bits by 1.0, both exact, so the hook-free arithmetic is
  // byte-for-byte what it was before the hook existed. Re-drawn whenever
  // abandonment or downgrade switches the fetch to a different track —
  // a different object as far as the edge cache is concerned.
  FetchPlan plan;
  const auto draw_plan = [&]() {
    if (config.download_hook != nullptr) {
      plan = config.download_hook->on_chunk_request(video, rec.track, i,
                                                    rec.size_bits, t);
      if (!(plan.rate_scale > 0.0) || plan.rate_scale > 1.0 ||
          plan.added_latency_s < 0.0 || plan.tier > 2) {
        throw std::logic_error(
            std::string(timeline_.driver) +
            ": download hook returned an invalid fetch plan");
      }
      rec.edge_hit = plan.edge_hit;
      rec.edge_latency_s = plan.added_latency_s;
      rec.delivery_tier = plan.tier;
      rec.coalesced = plan.coalesced;
      rec.shed = plan.shed;
    }
  };
  draw_plan();
  // First-byte lead time of every attempt that reaches the wire.
  double lead = config.request_rtt_s + plan.added_latency_s;

  // Resilient fetch: retry with backoff until the chunk lands, the track is
  // downgraded, or the attempt budget is exhausted (skip). With faults off
  // every outcome is kNone, so the first attempt delivers: the fault-free
  // arithmetic of the pre-fault simulator, byte for byte.
  double remaining_bits = rec.size_bits;
  std::size_t failures = 0;
  while (true) {
    const net::FaultOutcome outcome = fault_model.outcome(i, failures);
    if (outcome.kind == net::FaultKind::kNone) {
      double dl = lead + trace.download_duration_s(
                             t + lead, remaining_bits / plan.rate_scale);
      // Segment abandonment (dash.js AbandonRequestsRule): part-way through
      // a too-slow fetch of a non-bottom track, abort it, burning its time
      // and bytes, and refetch the lowest track. It applies to clean
      // full-chunk attempts only; resumed or downgraded fetches are already
      // the recovery path.
      if (config.enable_abandonment && rec.track > 0 && !rec.downgraded &&
          remaining_bits == rec.size_bits) {
        const double check_at = config.abandon_check_fraction * dl;
        if (dl - check_at > buffer_.level_s() + chunk_s) {
          waste(trace.average_bandwidth_bps(t, std::max(check_at, 1e-9)) *
                check_at * plan.rate_scale);
          elapse(check_at, /*in_transfer=*/false);
          t += check_at;
          rec.abandoned_higher = true;
          rec.track = 0;
          rec.size_bits = video.chunk_size_bits(0, i);
          remaining_bits = rec.size_bits;
          draw_plan();
          lead = config.request_rtt_s + plan.added_latency_s;
          dl = lead + trace.download_duration_s(
                          t + lead, remaining_bits / plan.rate_scale);
        }
      }
      rec.download_s = dl;
      elapse(dl, /*in_transfer=*/true);
      t += dl;
      rec.attempts = failures + 1;
      deliver(t, remaining_bits);
      return;
    }

    // Failed attempt: its time drains the buffer in real time; its bytes
    // are wasted unless byte-range resume salvages them.
    count_failure(outcome.kind);
    const FailedAttempt fa =
        charge_failed_attempt(trace, outcome, config.fault, config.retry, t,
                              lead, remaining_bits, plan.rate_scale);
    elapse(fa.elapsed_s, /*in_transfer=*/true);
    t += fa.elapsed_s;
    if (fa.delivered_bits > 0.0) {
      if (config.retry.resume_partial) {
        rec.resumed_bits += fa.delivered_bits;
        remaining_bits = std::max(remaining_bits - fa.delivered_bits, 1.0);
      } else {
        waste(fa.delivered_bits);
      }
    }

    ++failures;
    if (failures >= config.retry.max_attempts) {
      break;
    }
    if (config.retry.downgrade_on_failure && rec.track > 0 &&
        failures >= config.retry.downgrade_after) {
      remaining_bits = downgrade();
      draw_plan();
      lead = config.request_rtt_s + plan.added_latency_s;
    }
    const double backoff =
        backoff_delay_s(config.retry, fault_model, i, failures - 1);
    if (backoff > 0.0) {
      rec.backoff_wait_s += backoff;
      elapse(backoff, /*in_transfer=*/false);
      t += backoff;
    }
  }
  // Bytes already burned stay in wasted_bits; the chunk itself never
  // arrives and contributes no playable content or data usage.
  rec.attempts = failures;
  skip(t);
}

void SessionStepper::deliver(double now_s, double final_bits) {
  t_ = now_s;
  const video::Video& video = *video_;
  ChunkRecord& rec = rec_;
  const std::size_t i = rec.index;
  buffer_.add_chunk(chunk_s_);
  rec.buffer_after_s = buffer_.level_s();
  rec.quality = video.track(rec.track).chunk(i).quality;

  estimator_->on_chunk_downloaded(final_bits, rec.download_s, now_s);
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
  resolve(now_s);
}

void SessionStepper::skip(double now_s) {
  t_ = now_s;
  rec_.skipped = true;
  rec_.download_s = 0.0;
  rec_.size_bits = 0.0;
  rec_.buffer_after_s = buffer_.level_s();
  resolve(now_s);
}

void SessionStepper::resolve(double now_s) {
  // Playback begins once the startup latency worth of video is buffered
  // (or the video has been fully downloaded first).
  if (!buffer_.playing() && (buffer_.level_s() >= config_.startup_latency_s ||
                             rec_.index + 1 == total_chunks_)) {
    buffer_.start_playback();
    result_.startup_delay_s = now_s - timeline_.start_s;
  }

  result_.total_bits += rec_.size_bits;
  result_.chunks.push_back(rec_);
  telemetry_.on_chunk(rec_, ctx_, *scheme_, result_.total_rebuffer_s, now_s);
  if (!rec_.skipped) {
    prev_track_ = static_cast<int>(rec_.track);
  }

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
