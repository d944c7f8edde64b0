// Session-loop telemetry plumbing of SessionStepper (sim/stepper.h), the
// session core behind run_session, run_live_session and run_multi_client.
//
// SessionTelemetry is bound once per session (caching the scheme name, the
// size-knowledge mode, and the metric handles) and then fed one call per
// resolved chunk. When neither a sink nor a registry is attached the whole
// layer collapses to a single `active()` branch per chunk — the null-sink
// zero-cost guarantee the overhead regression test enforces.
#pragma once

#include <cstdint>
#include <string>

#include "abr/scheme.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/session.h"

namespace vbr::sim::detail {

struct SessionTelemetry {
  obs::TraceSink* sink = nullptr;
  obs::MetricsRegistry* reg = nullptr;
  std::uint64_t session_id = 0;
  std::uint64_t seq = 0;
  double prev_rebuffer_s = 0.0;
  std::string scheme_name;
  std::string size_mode;

  // Metric handles, resolved once at bind time.
  obs::Counter* chunks_total = nullptr;
  obs::Counter* chunks_downloaded = nullptr;
  obs::Counter* chunks_skipped = nullptr;
  obs::Counter* chunks_downgraded = nullptr;
  obs::Counter* chunks_abandoned = nullptr;
  obs::Counter* download_attempts = nullptr;
  obs::Counter* connect_failures = nullptr;
  obs::Counter* mid_drops = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* retry_exhaustions = nullptr;
  obs::Counter* rebuffer_events = nullptr;
  obs::Counter* rebuffer_seconds = nullptr;
  obs::Counter* bits_downloaded = nullptr;
  obs::Counter* bits_wasted = nullptr;
  obs::Histogram* download_seconds = nullptr;
  obs::Histogram* decision_latency = nullptr;

  // Fleet / delivery-path context. Only edge-path sessions register the
  // edge counters (keeps pre-fleet registry fingerprints stable), and only
  // fleet or edge-path sessions stamp the optional edge block on events
  // (keeps pre-fleet JSONL streams byte-identical).
  bool edge_path = false;
  bool fleet = false;
  double fleet_arrival_s = 0.0;
  std::uint64_t fleet_title = 0;
  std::int64_t fleet_arm = -1;  ///< Experiment arm; < 0 = not an A/B run.
  obs::Counter* edge_hits = nullptr;
  obs::Counter* edge_misses = nullptr;
  obs::Counter* edge_hit_bits = nullptr;
  obs::Counter* edge_origin_bits = nullptr;

  [[nodiscard]] bool active() const {
    return sink != nullptr || reg != nullptr;
  }

  void bind(obs::TraceSink* trace_sink, obs::MetricsRegistry* registry,
            std::uint64_t id, const abr::AbrScheme& scheme,
            const video::ChunkSizeProvider* sizes,
            bool edge_path_session = false, bool fleet_session = false,
            double arrival_s = 0.0, std::uint64_t title = 0,
            std::int64_t arm = -1) {
    sink = trace_sink;
    reg = registry;
    session_id = id;
    seq = 0;
    prev_rebuffer_s = 0.0;
    edge_path = edge_path_session;
    fleet = fleet_session;
    fleet_arrival_s = arrival_s;
    fleet_title = title;
    fleet_arm = arm;
    if (!active()) {
      return;
    }
    scheme_name = scheme.name();
    size_mode = sizes != nullptr ? sizes->name() : "exact";
    if (reg != nullptr) {
      chunks_total = &reg->counter("chunks_total");
      chunks_downloaded = &reg->counter("chunks_downloaded");
      chunks_skipped = &reg->counter("chunks_skipped");
      chunks_downgraded = &reg->counter("chunks_downgraded");
      chunks_abandoned = &reg->counter("chunks_abandoned");
      download_attempts = &reg->counter("download_attempts");
      connect_failures = &reg->counter("connect_failures");
      mid_drops = &reg->counter("mid_drops");
      timeouts = &reg->counter("timeouts");
      retry_exhaustions = &reg->counter("retry_exhaustions");
      rebuffer_events = &reg->counter("rebuffer_events");
      rebuffer_seconds = &reg->counter("rebuffer_seconds");
      bits_downloaded = &reg->counter("bits_downloaded");
      bits_wasted = &reg->counter("bits_wasted");
      download_seconds = &reg->histogram("download_seconds",
                                         obs::download_seconds_bounds());
      decision_latency =
          &reg->histogram("decision_latency_seconds",
                          obs::decision_latency_bounds(),
                          /*wall_clock=*/true);
      if (edge_path) {
        edge_hits = &reg->counter("edge_hits");
        edge_misses = &reg->counter("edge_misses");
        edge_hit_bits = &reg->counter("edge_hit_bits");
        edge_origin_bits = &reg->counter("edge_origin_bits");
      }
    }
  }

  /// One call per resolved chunk (delivered or skipped), after the record
  /// is final. `total_rebuffer_s` is the session's running total and
  /// `now_s` the sim clock at resolution time.
  void on_chunk(const ChunkRecord& rec, const abr::StreamContext& ctx,
                const abr::AbrScheme& scheme, double total_rebuffer_s,
                double now_s) {
    if (!active()) {
      return;
    }
    const double rebuffer_delta = total_rebuffer_s - prev_rebuffer_s;
    prev_rebuffer_s = total_rebuffer_s;
    if (reg != nullptr) {
      chunks_total->increment();
      if (rec.skipped) {
        chunks_skipped->increment();
        retry_exhaustions->increment();
      } else {
        chunks_downloaded->increment();
        download_seconds->record(rec.download_s);
      }
      if (rec.downgraded) {
        chunks_downgraded->increment();
      }
      if (rec.abandoned_higher) {
        chunks_abandoned->increment();
      }
      download_attempts->add(static_cast<double>(rec.attempts));
      connect_failures->add(static_cast<double>(rec.connect_failures));
      mid_drops->add(static_cast<double>(rec.mid_drops));
      timeouts->add(static_cast<double>(rec.timeouts));
      if (rec.stall_s > 0.0) {
        rebuffer_events->increment();
      }
      rebuffer_seconds->add(rebuffer_delta);
      bits_downloaded->add(rec.size_bits);
      bits_wasted->add(rec.wasted_bits);
      if (edge_path && !rec.skipped) {
        if (rec.edge_hit) {
          edge_hits->increment();
          edge_hit_bits->add(rec.size_bits);
        } else {
          edge_misses->increment();
          edge_origin_bits->add(rec.size_bits);
        }
      }
    }
    if (sink != nullptr) {
      obs::DecisionEvent ev;
      ev.session_id = session_id;
      ev.seq = seq;
      ev.chunk_index = rec.index;
      ev.decision_now_s = ctx.now_s;
      ev.sim_now_s = now_s;
      ev.scheme = scheme_name;
      ev.size_mode = size_mode;
      ev.track = rec.track;
      ev.in_startup = ctx.in_startup;
      ev.buffer_before_s = ctx.buffer_s;
      ev.buffer_after_s = rec.buffer_after_s;
      ev.est_bandwidth_bps = ctx.est_bandwidth_bps;
      ev.size_bits = rec.size_bits;
      ev.wait_s = rec.wait_s;
      ev.download_s = rec.download_s;
      ev.stall_s = rec.stall_s;
      ev.cum_rebuffer_s = total_rebuffer_s;
      ev.attempts = rec.attempts;
      ev.connect_failures = rec.connect_failures;
      ev.mid_drops = rec.mid_drops;
      ev.timeouts = rec.timeouts;
      ev.backoff_wait_s = rec.backoff_wait_s;
      ev.resumed_bits = rec.resumed_bits;
      ev.wasted_bits = rec.wasted_bits;
      ev.downgraded = rec.downgraded;
      ev.skipped = rec.skipped;
      ev.abandoned_higher = rec.abandoned_higher;
      if (fleet || edge_path) {
        obs::DecisionEvent::EdgeInfo info;
        info.arrival_s = fleet_arrival_s;
        info.title = fleet_title;
        info.edge_hit = rec.edge_hit;
        info.edge_latency_s = rec.edge_latency_s;
        info.tier = rec.delivery_tier;
        info.coalesced = rec.coalesced;
        info.shed = rec.shed;
        ev.edge = info;
      }
      if (fleet_arm >= 0) {
        ev.arm = static_cast<std::uint32_t>(fleet_arm);
      }
      scheme.annotate_event(ev);
      sink->on_decision(ev);
    }
    ++seq;
  }
};

/// scheme.decide(ctx), timed into the decision-latency histogram when a
/// registry is attached; plain dispatch otherwise (no clock read).
[[nodiscard]] inline abr::Decision timed_decide(
    const SessionTelemetry& telemetry, abr::AbrScheme& scheme,
    const abr::StreamContext& ctx) {
  if (telemetry.decision_latency != nullptr) {
    obs::ScopedTimer timer(telemetry.decision_latency);
    return scheme.decide(ctx);
  }
  return scheme.decide(ctx);
}

}  // namespace vbr::sim::detail
