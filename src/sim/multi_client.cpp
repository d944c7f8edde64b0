#include "sim/multi_client.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "metrics/stats.h"
#include "sim/stepper.h"

namespace vbr::sim {

double MultiClientResult::jain_index(const std::vector<double>& xs) {
  return stats::jain_index(xs);
}

std::vector<double> MultiClientResult::mean_qualities(
    video::QualityMetric metric) const {
  std::vector<double> out;
  out.reserve(sessions.size());
  for (const SessionResult& s : sessions) {
    double q = 0.0;
    std::size_t played = 0;
    for (const ChunkRecord& c : s.chunks) {
      if (c.skipped) {
        continue;
      }
      q += c.quality.get(metric);
      ++played;
    }
    out.push_back(played == 0 ? 0.0 : q / static_cast<double>(played));
  }
  return out;
}

std::vector<double> MultiClientResult::total_bits() const {
  std::vector<double> out;
  out.reserve(sessions.size());
  for (const SessionResult& s : sessions) {
    out.push_back(s.total_bits);
  }
  return out;
}

namespace {

constexpr double kEps = 1e-7;

enum class Phase {
  kIdle,         ///< Waiting (join offset, scheme wait, buffer room,
                 ///< connect-fail delay, timeout, or retry backoff).
  kLatency,      ///< Request issued; RTT elapsing, no bytes yet.
  kDownloading,  ///< Receiving bytes (fair share of the bottleneck).
  kDone,
};

/// One client: its session core plus the fluid fair-share transfer state
/// the shared link needs. The session's buffer, record and telemetry live
/// in the stepper; this loop owns the clock.
struct ClientState {
  ClientState(const ClientSpec& spec, const net::Trace& trace,
              const SessionConfig& config, const SessionTimeline& timeline,
              std::uint64_t stream)
      : session(*spec.video, trace, *spec.scheme, *spec.estimator, config,
                timeline),
        fault(config.fault, stream),
        phase(session.done() ? Phase::kDone : Phase::kIdle),
        phase_until(timeline.start_s) {}

  SessionStepper session;
  net::FaultModel fault;         ///< Per-client deterministic fault stream.
  Phase phase;
  double phase_until;            ///< kIdle/kLatency: wake-up time.
  double remaining_bits = 0.0;   ///< kDownloading: bits this attempt delivers.
  bool decided = false;          ///< The open chunk has its decision.

  // Retry state for the open chunk.
  bool fetch_started = false;    ///< First attempt of this chunk was issued.
  std::size_t failures = 0;      ///< Failed attempts so far.
  double need_bits = 0.0;        ///< Bits still required to land the chunk.
  double attempt_start_s = 0.0;  ///< Issue time of the current attempt.
  double attempt_bits = 0.0;     ///< Bits the current attempt transfers.
  bool attempt_failing = false;  ///< Current transfer ends in a mid-drop.
  bool pending_failure = false;  ///< A no-byte failure's delay is elapsing.
};

}  // namespace

MultiClientResult run_multi_client(const net::Trace& trace,
                                   std::vector<ClientSpec> clients,
                                   const SessionConfig& config) {
  if (clients.empty()) {
    throw std::invalid_argument("run_multi_client: no clients");
  }
  validate_session_config(config, "run_multi_client");
  if (config.enable_abandonment) {
    // Documented constraint (unit-tested): mid-download abandonment needs a
    // progress model for the aborted request, and under a shared bottleneck
    // aborting one client's transfer retroactively changes every other
    // client's fair share over the same interval — the event loop would
    // have to rewind. Early-leaving viewers are modeled instead through
    // watch-duration truncation (ClientSpec::watch_duration_s), which
    // composes cleanly with the shared-bottleneck semantics.
    throw std::invalid_argument(
        "run_multi_client: segment abandonment is not modeled for shared "
        "bottlenecks; model early-leaving viewers with "
        "ClientSpec::watch_duration_s instead");
  }
  if (config.size_provider != nullptr) {
    throw std::invalid_argument(
        "run_multi_client: use ClientSpec::size_provider — a shared "
        "provider would cross-contaminate per-client learned state");
  }
  if (config.download_hook != nullptr) {
    throw std::invalid_argument(
        "run_multi_client: download hooks are not supported — a shared "
        "stateful hook would make cache state depend on event-loop "
        "interleaving; use run_fleet's per-title shards instead");
  }

  std::vector<ClientState> state;
  state.reserve(clients.size());
  for (std::size_t ci = 0; ci < clients.size(); ++ci) {
    const ClientSpec& spec = clients[ci];
    if (spec.video == nullptr || !spec.scheme || !spec.estimator ||
        spec.start_offset_s < 0.0) {
      throw std::invalid_argument("run_multi_client: malformed client spec");
    }
    if (spec.watch_duration_s < 0.0) {
      throw std::invalid_argument(
          "run_multi_client: negative client watch duration");
    }
    SessionConfig client = config;
    if (spec.watch_duration_s > 0.0) {
      client.watch_duration_s = spec.watch_duration_s;
    }
    client.size_provider = spec.size_provider.get();
    client.session_id = config.session_id + ci;
    SessionTimeline timeline;
    timeline.driver = "run_multi_client";
    timeline.start_s = spec.start_offset_s;
    state.emplace_back(spec, trace, client, timeline, ci);
  }

  double t = 0.0;

  // Frees the client for its next chunk, or retires it.
  auto close_chunk = [&](ClientState& c) {
    c.decided = false;
    c.fetch_started = false;
    c.failures = 0;
    c.phase = c.session.done() ? Phase::kDone : Phase::kIdle;
    c.phase_until = t;  // immediately eligible
  };

  // Finishes the open chunk as skipped: recorded, never delivered.
  auto skip_chunk = [&](ClientState& c) {
    c.session.pending_chunk().attempts = c.failures;
    c.session.skip(t);
    close_chunk(c);
  };

  // Books one failed attempt (bytes already accounted by the caller) and
  // schedules the next step: skip, downgrade, and/or backoff.
  auto handle_failure = [&](ClientState& c) {
    ChunkRecord& rec = c.session.pending_chunk();
    ++c.failures;
    if (c.failures >= config.retry.max_attempts) {
      skip_chunk(c);
      return;
    }
    if (config.retry.downgrade_on_failure && rec.track > 0 &&
        c.failures >= config.retry.downgrade_after) {
      c.need_bits = c.session.downgrade();
    }
    const double backoff =
        backoff_delay_s(config.retry, c.fault, rec.index, c.failures - 1);
    rec.backoff_wait_s += backoff;
    c.phase = Phase::kIdle;
    c.phase_until = t + backoff;
  };

  // A mid-drop transfer finished delivering its partial bytes and died.
  auto fail_transfer = [&](ClientState& c) {
    c.attempt_failing = false;
    if (config.retry.resume_partial) {
      c.session.pending_chunk().resumed_bits += c.attempt_bits;
      c.need_bits = std::max(c.need_bits - c.attempt_bits, 1.0);
    } else {
      c.session.waste(c.attempt_bits);
    }
    handle_failure(c);
  };

  // Issues the next action for a client whose idle period has elapsed:
  // decide -> (scheme wait) -> (buffer-room wait) -> request in flight,
  // consulting the fault model per attempt.
  auto activate = [&](ClientState& c) {
    SessionStepper& session = c.session;
    if (c.pending_failure) {
      // A connect-failure or timeout just finished burning its wall-clock
      // time; book it and let handle_failure schedule what follows.
      c.pending_failure = false;
      handle_failure(c);
      return;
    }
    if (!c.decided) {
      // Fresh chunk: take the scheme's decision first.
      const std::optional<abr::Decision> d = session.request(t);
      if (!d) {
        c.phase = Phase::kDone;  // watchdog: leaves the fair share
        return;
      }
      c.decided = true;
      const double wait = d->wait_s + session.room_wait_s();
      // Sub-epsilon waits are float residue; treating them as real waits
      // would spin the activation loop without advancing time.
      if (wait > kEps) {
        session.pending_chunk().wait_s = wait;
        c.phase = Phase::kIdle;
        c.phase_until = t + wait;
        return;
      }
    } else {
      // Waking from a wait: re-check the room gate (drain may be needed).
      const double room_wait = session.room_wait_s();
      if (room_wait > kEps) {
        session.pending_chunk().wait_s += room_wait;
        c.phase = Phase::kIdle;
        c.phase_until = t + room_wait;
        return;
      }
    }
    // Issue one attempt of the open chunk.
    if (!c.fetch_started) {
      c.fetch_started = true;
      c.need_bits = session.begin_fetch(t);
      c.failures = 0;
    }
    c.attempt_start_s = t;
    c.attempt_failing = false;
    const net::FaultOutcome outcome =
        c.fault.outcome(session.pending_chunk().index, c.failures);
    if (outcome.kind == net::FaultKind::kConnectFail ||
        outcome.kind == net::FaultKind::kTimeout) {
      // No bytes will flow; the failure's wall-clock cost elapses first.
      session.count_failure(outcome.kind);
      c.pending_failure = true;
      c.phase = Phase::kIdle;
      c.phase_until =
          t + charge_failed_attempt(trace, outcome, config.fault, config.retry,
                                    t, config.request_rtt_s, c.need_bits)
                  .elapsed_s;
      return;
    }
    if (outcome.kind == net::FaultKind::kMidDrop) {
      session.count_failure(outcome.kind);
      c.attempt_failing = true;
      c.attempt_bits = outcome.drop_fraction * c.need_bits;
    } else {
      c.attempt_bits = c.need_bits;
    }
    c.remaining_bits = c.attempt_bits;
    if (config.request_rtt_s > 0.0) {
      c.phase = Phase::kLatency;
      c.phase_until = t + config.request_rtt_s;
    } else {
      c.phase = Phase::kDownloading;
    }
  };

  auto complete_chunk = [&](ClientState& c) {
    ChunkRecord& rec = c.session.pending_chunk();
    rec.download_s = t - c.attempt_start_s;
    rec.attempts = c.failures + 1;
    c.session.deliver(t, c.attempt_bits);
    close_chunk(c);
  };

  while (true) {
    // Activate every client whose idle/latency period has elapsed.
    bool progress = true;
    while (progress) {
      progress = false;
      for (ClientState& c : state) {
        if (c.phase == Phase::kIdle && c.phase_until <= t + kEps) {
          activate(c);
          progress = true;
        } else if (c.phase == Phase::kLatency &&
                   c.phase_until <= t + kEps) {
          c.phase = Phase::kDownloading;
          progress = true;
        }
      }
    }

    // Count active downloads for the fair share.
    std::size_t downloading = 0;
    bool all_done = true;
    for (const ClientState& c : state) {
      downloading += c.phase == Phase::kDownloading ? 1 : 0;
      all_done &= c.phase == Phase::kDone;
    }
    if (all_done) {
      break;
    }

    const double bw = trace.bandwidth_at(t);
    const double share =
        downloading > 0 ? bw / static_cast<double>(downloading) : 0.0;

    // Next event: a wake-up, a download completion, or a trace boundary.
    const double wrapped = std::fmod(t, trace.duration_s());
    const double boundary =
        t + ((std::floor(wrapped / trace.sample_period_s()) + 1.0) *
                 trace.sample_period_s() -
             wrapped);
    double next_t = boundary;
    for (const ClientState& c : state) {
      if (c.phase == Phase::kIdle || c.phase == Phase::kLatency) {
        next_t = std::min(next_t, std::max(c.phase_until, t + kEps));
      } else if (c.phase == Phase::kDownloading && share > 0.0) {
        next_t = std::min(next_t, t + c.remaining_bits / share);
      }
    }
    const double dt = std::max(next_t - t, kEps);

    // Advance: transfer bytes, drain buffers, account stalls.
    for (ClientState& c : state) {
      if (c.phase == Phase::kDone) {
        continue;
      }
      const bool in_transfer = c.phase == Phase::kDownloading;
      if (in_transfer) {
        c.remaining_bits -= share * dt;
      }
      c.session.elapse(dt, in_transfer);
    }
    t += dt;

    // Handle completions (a failing transfer completes into its drop).
    for (ClientState& c : state) {
      if (c.phase == Phase::kDownloading && c.remaining_bits <= 1e-3) {
        if (c.attempt_failing) {
          fail_transfer(c);
        } else {
          complete_chunk(c);
        }
      }
    }
  }

  MultiClientResult result;
  result.sessions.reserve(state.size());
  for (ClientState& c : state) {
    result.sessions.push_back(c.session.finish());
  }
  return result;
}

}  // namespace vbr::sim
