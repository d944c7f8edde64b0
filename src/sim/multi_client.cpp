#include "sim/multi_client.h"

#include <algorithm>
#include <cmath>
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

/// Float residue of the fluid clock: a wake time this close counts as
/// reached, and the clock always moves by at least this much.
constexpr double kEps = 1e-7;

/// One client on the shared link: its session and what the session's fetch
/// ladder last asked for.
struct Client {
  SessionStepper session;
  double wake_s;      ///< Driver time at which the ask's wait ends.
  double bits = 0.0;  ///< Bits still to move from wake_s on (0: none).
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

  std::vector<Client> state;
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
    timeline.fault_stream = ci;
    state.push_back(Client{SessionStepper(*spec.video, trace, *spec.scheme,
                                          *spec.estimator, client, timeline),
                           spec.start_offset_s});
  }

  // Fluid fair share: between events every client moving bytes receives
  // bandwidth / (number moving). Events are wake times, transfer ends and
  // trace-sample boundaries.
  double t = 0.0;
  const auto moving = [&t](const Client& c) {
    return c.bits > 0.0 && c.wake_s <= t + kEps;
  };
  while (true) {
    // Hand every client whose ask is met back to its session.
    std::size_t downloading = 0;
    bool all_done = true;
    for (Client& c : state) {
      while (!c.session.done() && c.bits <= 0.0 && c.wake_s <= t + kEps) {
        const SessionStepper::Yield y = c.session.advance(t);
        c.wake_s = t + y.wait_s;
        c.bits = y.bits;
      }
      downloading += moving(c) ? 1 : 0;
      all_done &= c.session.done();
    }
    if (all_done) {
      break;
    }

    const double bw = trace.bandwidth_at(t);
    const double share =
        downloading > 0 ? bw / static_cast<double>(downloading) : 0.0;

    // Next event: a wake-up, a transfer's end, or a trace boundary.
    const double wrapped = std::fmod(t, trace.duration_s());
    const double boundary =
        t + ((std::floor(wrapped / trace.sample_period_s()) + 1.0) *
                 trace.sample_period_s() -
             wrapped);
    double next_t = boundary;
    for (const Client& c : state) {
      if (c.session.done()) {
        continue;
      }
      if (!moving(c)) {
        next_t = std::min(next_t, std::max(c.wake_s, t + kEps));
      } else if (share > 0.0) {
        next_t = std::min(next_t, t + c.bits / share);
      }
    }
    const double dt = std::max(next_t - t, kEps);

    // Advance: transfer bytes, drain buffers, account stalls. A transfer
    // within a millibit of its end has ended.
    for (Client& c : state) {
      if (c.session.done()) {
        continue;
      }
      if (moving(c)) {
        c.bits -= share * dt;
        if (c.bits <= 1e-3) {
          c.bits = 0.0;
        }
      }
      c.session.elapse(dt);
    }
    t += dt;
  }

  MultiClientResult result;
  result.sessions.reserve(state.size());
  for (Client& c : state) {
    result.sessions.push_back(c.session.finish());
  }
  return result;
}

}  // namespace vbr::sim
