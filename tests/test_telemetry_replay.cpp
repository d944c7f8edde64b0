// Replay-verified invariant tests: every DecisionEvent stream a session
// emits must satisfy the physical invariants of the simulator (buffer never
// negative, bits conserved, rebuffer accounting consistent with the QoE
// layer, monotone sim clock), across the fault-free path, fault injection
// with retry/resume, abandonment, the live session, and multi-client runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "abr/bola.h"
#include "core/cava.h"
#include "metrics/qoe.h"
#include "net/bandwidth_estimator.h"
#include "net/trace_gen.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/live_session.h"
#include "sim/multi_client.h"
#include "sim/session.h"
#include "test_util.h"
#include "video/dataset.h"

namespace {

using namespace vbr;
using testutil::default_flat_video;
using testutil::flat_trace;

constexpr double kTol = 1e-9;

/// Checks the invariants every per-session event stream must satisfy.
/// `max_buffer_s` bounds buffer_after; a live session's latency budget can
/// bind tighter, so callers pass the looser cap they configured.
void check_stream_invariants(const std::deque<obs::DecisionEvent>& events,
                             double max_buffer_s) {
  double prev_sim_now = 0.0;
  double prev_cum_rebuffer = 0.0;
  std::vector<bool> seen;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const obs::DecisionEvent& ev = events[k];
    SCOPED_TRACE("event seq " + std::to_string(ev.seq));

    // Sequence numbers are dense and ordered.
    EXPECT_EQ(ev.seq, k);

    // Sim clock: decisions happen at or before resolution, and resolution
    // times never run backwards.
    EXPECT_LE(ev.decision_now_s, ev.sim_now_s + kTol);
    EXPECT_GE(ev.sim_now_s, prev_sim_now - kTol);
    prev_sim_now = ev.sim_now_s;

    // Buffer: never negative, never past the configured cap.
    EXPECT_GE(ev.buffer_before_s, -kTol);
    EXPECT_GE(ev.buffer_after_s, -kTol);
    EXPECT_LE(ev.buffer_before_s, max_buffer_s + kTol);
    EXPECT_LE(ev.buffer_after_s, max_buffer_s + kTol);

    // Rebuffer: cumulative total is non-decreasing and grows at least by
    // this chunk's own stall.
    EXPECT_GE(ev.cum_rebuffer_s, prev_cum_rebuffer - kTol);
    EXPECT_GE(ev.cum_rebuffer_s - prev_cum_rebuffer, ev.stall_s - kTol);
    prev_cum_rebuffer = ev.cum_rebuffer_s;

    // Durations, sizes, and fault counters are non-negative; a skipped
    // chunk transferred nothing.
    EXPECT_GE(ev.wait_s, -kTol);
    EXPECT_GE(ev.download_s, -kTol);
    EXPECT_GE(ev.stall_s, -kTol);
    EXPECT_GE(ev.size_bits, -kTol);
    EXPECT_GE(ev.wasted_bits, -kTol);
    EXPECT_GE(ev.resumed_bits, -kTol);
    EXPECT_GE(ev.backoff_wait_s, -kTol);
    EXPECT_GE(ev.attempts, 1u);
    if (ev.skipped) {
      EXPECT_DOUBLE_EQ(ev.size_bits, 0.0);
      EXPECT_DOUBLE_EQ(ev.download_s, 0.0);
    }

    // Chunk indices: each position resolved exactly once, in order.
    if (ev.chunk_index >= seen.size()) {
      seen.resize(ev.chunk_index + 1, false);
    }
    EXPECT_FALSE(seen[ev.chunk_index]) << "chunk resolved twice";
    seen[ev.chunk_index] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }))
      << "a chunk index was never resolved";
}

/// Cross-checks the event stream against the SessionResult it narrates and
/// the QoE layer's view of the same session.
void check_stream_against_result(const std::deque<obs::DecisionEvent>& events,
                                 const sim::SessionResult& result,
                                 std::size_t num_chunks) {
  ASSERT_EQ(events.size(), result.chunks.size());
  ASSERT_EQ(events.size(), num_chunks);

  // Downloaded-bits conservation: everything the wire carried is either a
  // delivered chunk or explicitly accounted waste.
  double event_bits = 0.0;
  for (const obs::DecisionEvent& ev : events) {
    event_bits += ev.size_bits + ev.wasted_bits;
  }
  EXPECT_NEAR(event_bits, result.total_bits,
              1e-6 * std::max(1.0, result.total_bits));

  // Rebuffer: the stream's final cumulative total is the session total, and
  // the QoE summary reports exactly that number.
  EXPECT_NEAR(events.back().cum_rebuffer_s, result.total_rebuffer_s, kTol);
  const std::vector<std::size_t> classes(num_chunks, 0);
  const auto played =
      result.to_played_chunks(video::QualityMetric::kVmafPhone, classes);
  if (!played.empty()) {
    const metrics::QoeSummary qoe = metrics::compute_qoe(
        played, result.total_rebuffer_s, result.startup_delay_s);
    EXPECT_DOUBLE_EQ(qoe.rebuffer_s, events.back().cum_rebuffer_s);
  }

  // Per-event fields mirror the chunk records.
  for (std::size_t k = 0; k < events.size(); ++k) {
    // Every idle between the decision and the first byte is recorded: the
    // download starts exactly `wait_s` after the decision.
    EXPECT_NEAR(result.chunks[k].download_start_s,
                events[k].decision_now_s + events[k].wait_s, kTol)
        << "chunk " << k;
    EXPECT_EQ(events[k].chunk_index, result.chunks[k].index);
    EXPECT_EQ(events[k].track, result.chunks[k].track);
    EXPECT_DOUBLE_EQ(events[k].download_s, result.chunks[k].download_s);
    EXPECT_DOUBLE_EQ(events[k].buffer_after_s,
                     result.chunks[k].buffer_after_s);
    EXPECT_EQ(events[k].skipped, result.chunks[k].skipped);
  }
}

/// Metrics registry totals must equal the aggregates recomputed from the
/// event stream — the registry is a projection of the trace, not a second
/// source of truth.
void check_metrics_against_stream(
    obs::MetricsRegistry& reg, const std::deque<obs::DecisionEvent>& events) {
  double attempts = 0.0;
  double connect = 0.0;
  double drops = 0.0;
  double timeouts = 0.0;
  double skipped = 0.0;
  double downloaded = 0.0;
  double bits = 0.0;
  double wasted = 0.0;
  for (const obs::DecisionEvent& ev : events) {
    attempts += static_cast<double>(ev.attempts);
    connect += static_cast<double>(ev.connect_failures);
    drops += static_cast<double>(ev.mid_drops);
    timeouts += static_cast<double>(ev.timeouts);
    skipped += ev.skipped ? 1.0 : 0.0;
    downloaded += ev.skipped ? 0.0 : 1.0;
    bits += ev.size_bits;
    wasted += ev.wasted_bits;
  }
  EXPECT_DOUBLE_EQ(reg.counter("chunks_total").value(),
                   static_cast<double>(events.size()));
  EXPECT_DOUBLE_EQ(reg.counter("chunks_downloaded").value(), downloaded);
  EXPECT_DOUBLE_EQ(reg.counter("chunks_skipped").value(), skipped);
  EXPECT_DOUBLE_EQ(reg.counter("retry_exhaustions").value(), skipped);
  EXPECT_DOUBLE_EQ(reg.counter("download_attempts").value(), attempts);
  EXPECT_DOUBLE_EQ(reg.counter("connect_failures").value(), connect);
  EXPECT_DOUBLE_EQ(reg.counter("mid_drops").value(), drops);
  EXPECT_DOUBLE_EQ(reg.counter("timeouts").value(), timeouts);
  EXPECT_DOUBLE_EQ(reg.counter("bits_downloaded").value(), bits);
  EXPECT_DOUBLE_EQ(reg.counter("bits_wasted").value(), wasted);
  EXPECT_NEAR(reg.counter("rebuffer_seconds").value(),
              events.empty() ? 0.0 : events.back().cum_rebuffer_s, kTol);
  EXPECT_EQ(
      reg.histogram("download_seconds", obs::download_seconds_bounds())
          .count(),
      static_cast<std::uint64_t>(downloaded));
}

TEST(TelemetryReplay, FaultFreeCavaOnRealisticTrace) {
  const video::Video v =
      video::make_video("ED", video::Genre::kAnimation, video::Codec::kH264,
                        2.0, 2.0, 42, 240.0);
  const net::Trace t = net::generate_lte_trace(3);
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::SessionConfig cfg;
  cfg.trace = &sink;
  cfg.metrics = &reg;
  const sim::SessionResult r = sim::run_session(v, t, *cava, est, cfg);
  check_stream_invariants(sink.events(), cfg.max_buffer_s);
  check_stream_against_result(sink.events(), r, v.num_chunks());
  check_metrics_against_stream(reg, sink.events());
}

TEST(TelemetryReplay, FaultsWithRetryAndResume) {
  const video::Video v = default_flat_video(80);
  const net::Trace t = flat_trace(2e6);
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::SessionConfig cfg;
  cfg.fault.connect_failure_prob = 0.15;
  cfg.fault.mid_drop_prob = 0.10;
  cfg.fault.timeout_prob = 0.05;
  cfg.fault.seed = 99;
  cfg.retry.resume_partial = true;
  cfg.trace = &sink;
  cfg.metrics = &reg;
  const sim::SessionResult r = sim::run_session(v, t, *cava, est, cfg);
  // The fault stream must actually have fired, or this test checks nothing.
  EXPECT_GT(reg.counter("connect_failures").value() +
                reg.counter("mid_drops").value() +
                reg.counter("timeouts").value(),
            0.0);
  check_stream_invariants(sink.events(), cfg.max_buffer_s);
  check_stream_against_result(sink.events(), r, v.num_chunks());
  check_metrics_against_stream(reg, sink.events());
}

TEST(TelemetryReplay, RetryExhaustionMarksSkips) {
  const video::Video v = default_flat_video(60);
  const net::Trace t = flat_trace(2e6);
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::SessionConfig cfg;
  cfg.fault.connect_failure_prob = 0.45;  // hostile: exhaustions guaranteed
  cfg.fault.seed = 7;
  cfg.retry.max_attempts = 2;
  cfg.retry.downgrade_on_failure = false;
  cfg.trace = &sink;
  cfg.metrics = &reg;
  const sim::SessionResult r = sim::run_session(v, t, *cava, est, cfg);
  EXPECT_GT(reg.counter("chunks_skipped").value(), 0.0);
  check_stream_invariants(sink.events(), cfg.max_buffer_s);
  check_stream_against_result(sink.events(), r, v.num_chunks());
  check_metrics_against_stream(reg, sink.events());
}

TEST(TelemetryReplay, AbandonmentAccountsWaste) {
  // Slow trace + high fixed track forces AbandonRequestsRule aborts.
  const video::Video v = default_flat_video(40);
  const net::Trace t = flat_trace(8e5);
  abr::FixedTrackScheme scheme(5);
  net::HarmonicMeanEstimator est(5);
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::SessionConfig cfg;
  cfg.enable_abandonment = true;
  cfg.trace = &sink;
  cfg.metrics = &reg;
  const sim::SessionResult r = sim::run_session(v, t, scheme, est, cfg);
  EXPECT_GT(reg.counter("chunks_abandoned").value(), 0.0);
  EXPECT_GT(reg.counter("bits_wasted").value(), 0.0);
  check_stream_invariants(sink.events(), cfg.max_buffer_s);
  check_stream_against_result(sink.events(), r, v.num_chunks());
  check_metrics_against_stream(reg, sink.events());
}

TEST(TelemetryReplay, LiveSessionStreamHoldsInvariants) {
  const video::Video v =
      video::make_video("TS", video::Genre::kSports, video::Codec::kH264,
                        2.0, 2.0, 11, 240.0);
  const net::Trace t = net::generate_lte_trace(5);
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::LiveSessionConfig cfg;
  cfg.trace = &sink;
  cfg.metrics = &reg;
  const sim::LiveSessionResult r =
      sim::run_live_session(v, t, *cava, est, cfg);
  check_stream_invariants(sink.events(), cfg.max_buffer_s);
  check_stream_against_result(sink.events(), r.session, v.num_chunks());
  check_metrics_against_stream(reg, sink.events());
}

TEST(TelemetryReplay, LiveSchemeIdleIsRecorded) {
  // BOLA-E pauses above its buffer target. Joined far behind the live edge,
  // the player holds enough buffer for those pauses to happen, and each
  // one must show up as the chunk's wait.
  const video::Video v =
      video::make_video("live-bola", video::Genre::kAnimation,
                        video::Codec::kH264, 2.0, 2.0, 42, 200.0);
  const net::Trace t = net::generate_lte_trace(5);
  abr::Bola bola;
  net::HarmonicMeanEstimator est(5);
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::LiveSessionConfig cfg;
  cfg.join_latency_s = 100.0;
  cfg.trace = &sink;
  cfg.metrics = &reg;
  const sim::LiveSessionResult r = sim::run_live_session(v, t, bola, est, cfg);
  const auto idles = std::count_if(
      sink.events().begin(), sink.events().end(),
      [](const obs::DecisionEvent& ev) { return ev.wait_s > 0.0; });
  EXPECT_GT(idles, 0);
  check_stream_invariants(sink.events(), cfg.max_buffer_s);
  check_stream_against_result(sink.events(), r.session, v.num_chunks());
  check_metrics_against_stream(reg, sink.events());
}

TEST(TelemetryReplay, MultiClientStreamsAreTaggedAndConsistent) {
  // RTT and faults on: every client runs the full fetch ladder over the
  // shared link, and each client's stream must replay like run_session's.
  const video::Video v = default_flat_video(40);
  const net::Trace t = flat_trace(6e6);
  std::vector<sim::ClientSpec> clients;
  for (int c = 0; c < 3; ++c) {
    sim::ClientSpec spec;
    spec.video = &v;
    spec.scheme = core::make_cava_p123();
    spec.estimator = std::make_unique<net::HarmonicMeanEstimator>(5);
    clients.push_back(std::move(spec));
  }
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::SessionConfig cfg;
  cfg.request_rtt_s = 0.05;
  cfg.fault.connect_failure_prob = 0.1;
  cfg.fault.mid_drop_prob = 0.1;
  cfg.fault.timeout_prob = 0.05;
  cfg.fault.seed = 5;
  cfg.retry.resume_partial = true;
  cfg.trace = &sink;
  cfg.metrics = &reg;
  cfg.session_id = 100;
  const sim::MultiClientResult r =
      sim::run_multi_client(t, std::move(clients), cfg);
  ASSERT_EQ(r.sessions.size(), 3u);

  // 3 clients x 40 chunks, each event tagged with its client's session id.
  EXPECT_EQ(sink.events().size(), 120u);
  std::size_t failures = 0;
  for (std::uint64_t c = 0; c < 3; ++c) {
    std::deque<obs::DecisionEvent> per_client;
    for (const obs::DecisionEvent& ev : sink.events()) {
      if (ev.session_id == 100 + c) {
        per_client.push_back(ev);
      }
    }
    SCOPED_TRACE("client " + std::to_string(c));
    ASSERT_EQ(per_client.size(), 40u);
    // Per-client seq is dense in emission order, and the stream replays
    // against its own client's result.
    check_stream_invariants(per_client, cfg.max_buffer_s);
    check_stream_against_result(per_client, r.sessions[c], v.num_chunks());
    const metrics::FaultSummary fs = r.sessions[c].fault_summary();
    failures += fs.connect_failures + fs.mid_drops + fs.timeouts;
  }
  EXPECT_GT(failures, 0u);

  // The shared registry holds the union across clients.
  double bits = 0.0;
  for (const sim::SessionResult& s : r.sessions) {
    bits += s.total_bits;
  }
  EXPECT_NEAR(reg.counter("bits_downloaded").value() +
                  reg.counter("bits_wasted").value(),
              bits, 1e-6 * std::max(1.0, bits));
  EXPECT_DOUBLE_EQ(reg.counter("chunks_total").value(), 120.0);
}

TEST(TelemetryReplay, CavaInternalsObeyControllerContracts) {
  const video::Video v =
      video::make_video("BBB", video::Genre::kAction, video::Codec::kH264,
                        2.0, 2.0, 17, 240.0);
  const net::Trace t = net::generate_fcc_trace(13);
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  obs::MemoryTraceSink sink;
  sim::SessionConfig cfg;
  cfg.trace = &sink;
  (void)sim::run_session(v, t, *cava, est, cfg);
  for (const obs::DecisionEvent& ev : sink.events()) {
    ASSERT_TRUE(ev.controller.has_value());
    const obs::ControllerInternals& c = *ev.controller;
    // The outer controller's target is a buffer level: positive and within
    // the session cap.
    EXPECT_GT(c.target_buffer_s, 0.0);
    EXPECT_LE(c.target_buffer_s, cfg.max_buffer_s + kTol);
    // error = target - current buffer, as recorded at decision time.
    EXPECT_NEAR(c.error_s, c.target_buffer_s - ev.buffer_before_s, 1e-6);
    // Classifier buckets are Q1..Q4.
    EXPECT_LT(c.complexity_class, 4u);
    EXPECT_TRUE(std::isfinite(c.u));
    EXPECT_TRUE(std::isfinite(c.integral));
  }
}

}  // namespace
