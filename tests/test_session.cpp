// Tests for the trace-driven session simulator.
#include "sim/session.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/bandwidth_estimator.h"
#include "test_util.h"

namespace {

using namespace vbr;
using testutil::default_flat_video;
using testutil::flat_trace;
using testutil::make_flat_video;

sim::SessionConfig quick_config() {
  sim::SessionConfig cfg;
  cfg.startup_latency_s = 4.0;  // two 2-second chunks
  cfg.max_buffer_s = 30.0;
  return cfg;
}

TEST(Session, DownloadsEveryChunkInOrder) {
  const video::Video v = default_flat_video(20);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(2);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  ASSERT_EQ(r.chunks.size(), 20u);
  for (std::size_t i = 0; i < r.chunks.size(); ++i) {
    EXPECT_EQ(r.chunks[i].index, i);
    EXPECT_EQ(r.chunks[i].track, 2u);
  }
}

TEST(Session, DownloadTimesMatchTrace) {
  // Track 2 = 0.8 Mbps, chunks of 1.6 Mb; at 5 Mbps each takes 0.32 s.
  const video::Video v = default_flat_video(5);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(2);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  for (const sim::ChunkRecord& c : r.chunks) {
    EXPECT_NEAR(c.download_s, 1.6e6 / 5e6, 1e-9);
  }
  EXPECT_NEAR(r.total_bits, 5 * 1.6e6, 1.0);
}

TEST(Session, StartupDelayAtConfiguredLatency) {
  // Downloads at 5 Mbps; with a 4 s startup latency, playback starts after
  // the 2nd chunk lands: 2 * 0.32 s = 0.64 s of wall clock.
  const video::Video v = default_flat_video(10);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(2);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  EXPECT_NEAR(r.startup_delay_s, 2.0 * 0.32, 1e-9);
}

TEST(Session, NoRebufferWhenBandwidthAmple) {
  const video::Video v = default_flat_video(30);
  const net::Trace t = flat_trace(10e6);
  abr::FixedTrackScheme scheme(4);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  EXPECT_DOUBLE_EQ(r.total_rebuffer_s, 0.0);
}

TEST(Session, RebufferWhenTrackExceedsBandwidth) {
  // Track 5 = 6.4 Mbps over a 1 Mbps link: playback cannot keep up.
  const video::Video v = default_flat_video(10);
  const net::Trace t = flat_trace(1e6);
  abr::FixedTrackScheme scheme(5);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  EXPECT_GT(r.total_rebuffer_s, 10.0);
}

TEST(Session, RebufferMatchesDeficitArithmetic) {
  // Chunk downloads take 12.8 s each (6.4 Mbps track over 1 Mbps link) and
  // deliver 2 s of content. After startup (2 chunks buffered = 4 s), each of
  // the remaining 8 chunks stalls 12.8 - buffer. Steady state: buffer is 2 s
  // when a download starts (the chunk that just landed), so each stalls
  // 10.8 s.
  const video::Video v = default_flat_video(10);
  const net::Trace t = flat_trace(1e6);
  abr::FixedTrackScheme scheme(5);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  // First post-startup download sees 4 s of buffer (stall 8.8), the other
  // seven see 2 s (stall 10.8 each).
  EXPECT_NEAR(r.total_rebuffer_s, 8.8 + 7 * 10.8, 1e-6);
}

TEST(Session, BufferCapGatesDownloads) {
  const video::Video v = default_flat_video(40);
  const net::Trace t = flat_trace(50e6);  // near-instant downloads
  abr::FixedTrackScheme scheme(0);
  net::HarmonicMeanEstimator est(5);
  sim::SessionConfig cfg = quick_config();
  cfg.max_buffer_s = 10.0;
  const sim::SessionResult r = sim::run_session(v, t, scheme, est, cfg);
  for (const sim::ChunkRecord& c : r.chunks) {
    EXPECT_LE(c.buffer_after_s, 10.0 + 1e-9);
  }
  // The session must take at least as long as the content minus the cap.
  EXPECT_GT(r.end_time_s, 40 * 2.0 - 10.0 - 1.0);
}

TEST(Session, EstimatorSeesChunkThroughput) {
  const video::Video v = default_flat_video(8);
  const net::Trace t = flat_trace(4e6);
  abr::FixedTrackScheme scheme(3);
  net::HarmonicMeanEstimator est(5);
  (void)sim::run_session(v, t, scheme, est, quick_config());
  EXPECT_NEAR(est.estimate_bps(0.0), 4e6, 1e3);
}

TEST(Session, QualityRecordedFromChosenTrack) {
  const video::Video v = default_flat_video(5);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(4);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  for (const sim::ChunkRecord& c : r.chunks) {
    EXPECT_DOUBLE_EQ(c.quality.vmaf_phone, 20.0 + 14.0 * 4.0);
  }
}

TEST(Session, ToPlayedChunksMapsClassesAndMetric) {
  const video::Video v = default_flat_video(4);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(1);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  const std::vector<std::size_t> classes = {0, 3, 1, 3};
  const auto played =
      r.to_played_chunks(video::QualityMetric::kVmafPhone, classes);
  ASSERT_EQ(played.size(), 4u);
  EXPECT_EQ(played[1].complexity_class, 3u);
  EXPECT_DOUBLE_EQ(played[0].quality, 34.0);
}

TEST(Session, InvalidStartupConfigThrows) {
  const video::Video v = default_flat_video(4);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(0);
  net::HarmonicMeanEstimator est(5);
  sim::SessionConfig cfg;
  cfg.startup_latency_s = 0.0;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::invalid_argument);
  cfg.startup_latency_s = 200.0;
  cfg.max_buffer_s = 100.0;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::invalid_argument);
}

TEST(Session, ConfigValidationRejectsBadKnobs) {
  const video::Video v = default_flat_video(4);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(0);
  net::HarmonicMeanEstimator est(5);

  sim::SessionConfig cfg = quick_config();
  cfg.request_rtt_s = -0.01;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::invalid_argument);

  cfg = quick_config();
  cfg.max_buffer_s = 0.0;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::invalid_argument);
  cfg.max_buffer_s = -5.0;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::invalid_argument);

  cfg = quick_config();
  cfg.enable_abandonment = true;
  cfg.abandon_check_fraction = 0.0;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::invalid_argument);
  cfg.abandon_check_fraction = 1.5;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::invalid_argument);
  cfg.abandon_check_fraction = 1.0;  // inclusive upper bound is legal
  EXPECT_NO_THROW((void)sim::run_session(v, t, scheme, est, cfg));

  // validate_session_config is also callable directly and tags the caller.
  cfg = quick_config();
  cfg.request_rtt_s = -1.0;
  try {
    sim::validate_session_config(cfg, "unit_test");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unit_test"), std::string::npos);
  }
}

namespace schemes {

/// Scheme that asks for an out-of-range track (session must reject).
class BadTrackScheme final : public abr::AbrScheme {
 public:
  [[nodiscard]] abr::Decision decide(const abr::StreamContext& ctx) override {
    return abr::Decision{.track = ctx.video->num_tracks()};
  }
  [[nodiscard]] std::string name() const override { return "bad"; }
};

/// Scheme that always asks to wait 1 s before each download.
class WaitingScheme final : public abr::AbrScheme {
 public:
  [[nodiscard]] abr::Decision decide(const abr::StreamContext&) override {
    return abr::Decision{.track = 0, .wait_s = 1.0};
  }
  [[nodiscard]] std::string name() const override { return "waiting"; }
};

}  // namespace schemes

TEST(Session, RejectsInvalidTrackFromScheme) {
  const video::Video v = default_flat_video(4);
  const net::Trace t = flat_trace(5e6);
  schemes::BadTrackScheme scheme;
  net::HarmonicMeanEstimator est(5);
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, quick_config()),
               std::logic_error);
}

TEST(Session, RejectsNegativeWaitFromScheme) {
  const video::Video v = default_flat_video(30);
  const net::Trace t = flat_trace(5e6);
  testutil::NegativeWaitScheme scheme;
  net::HarmonicMeanEstimator est(5);
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, quick_config()),
               std::logic_error);
}

TEST(Session, SchemeWaitDelaysDownloads) {
  const video::Video v = default_flat_video(10);
  const net::Trace t = flat_trace(50e6);
  schemes::WaitingScheme scheme;
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  EXPECT_GT(r.end_time_s, 9.9);  // ten 1 s waits dominate
  for (const sim::ChunkRecord& c : r.chunks) {
    EXPECT_GE(c.wait_s, 1.0);
  }
}

TEST(Session, SpikedChunksTakeLonger) {
  const video::Video v =
      testutil::make_flat_video({1e6}, 10, 2.0, {{4, 3.0}});
  const net::Trace t = flat_trace(2e6);
  abr::FixedTrackScheme scheme(0);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r =
      sim::run_session(v, t, scheme, est, quick_config());
  EXPECT_NEAR(r.chunks[4].download_s, 3.0 * r.chunks[3].download_s, 1e-9);
}

TEST(Session, EffectiveChunkCountArithmetic) {
  const video::Video v = default_flat_video(20);  // 2 s chunks, 40 s
  EXPECT_EQ(sim::effective_chunk_count(v, 0.0), 20u);   // 0 = full watch
  EXPECT_EQ(sim::effective_chunk_count(v, 40.0), 20u);
  EXPECT_EQ(sim::effective_chunk_count(v, 100.0), 20u);  // clamped
  EXPECT_EQ(sim::effective_chunk_count(v, 10.0), 5u);
  EXPECT_EQ(sim::effective_chunk_count(v, 10.1), 6u);    // partial chunk counts
  EXPECT_EQ(sim::effective_chunk_count(v, 0.5), 1u);     // floor of one chunk
}

TEST(Session, WatchDurationTruncatesTheSession) {
  const video::Video v = default_flat_video(20);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(2);
  net::HarmonicMeanEstimator est(5);
  sim::SessionConfig cfg = quick_config();
  cfg.watch_duration_s = 10.0;
  const sim::SessionResult r = sim::run_session(v, t, scheme, est, cfg);
  ASSERT_EQ(r.chunks.size(), 5u);
  EXPECT_NEAR(r.total_bits, 5 * 1.6e6, 1.0);
  cfg.watch_duration_s = -1.0;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::invalid_argument);
}

namespace hooks {

/// Constant-plan hook for download-path arithmetic tests.
class FixedPlanHook final : public sim::DownloadPathHook {
 public:
  explicit FixedPlanHook(sim::FetchPlan plan) : plan_(plan) {}
  sim::FetchPlan on_chunk_request(const video::Video&, std::size_t,
                                  std::size_t, double, double) override {
    ++requests;
    return plan_;
  }
  void on_chunk_delivered(const video::Video&, std::size_t, std::size_t,
                          double, double) override {
    ++deliveries;
  }
  int requests = 0;
  int deliveries = 0;

 private:
  sim::FetchPlan plan_;
};

}  // namespace hooks

TEST(Session, IdentityDownloadHookIsExactlyANoOp) {
  // The null FetchPlan (latency 0, rate scale 1) must reproduce the
  // hook-free session bit for bit — the determinism contract the fleet
  // driver leans on.
  const video::Video v = default_flat_video(10);
  const net::Trace t = flat_trace(3e6);
  abr::FixedTrackScheme s1(2);
  net::HarmonicMeanEstimator e1(5);
  const sim::SessionResult base = sim::run_session(v, t, s1, e1, quick_config());

  hooks::FixedPlanHook hook(sim::FetchPlan{});
  sim::SessionConfig cfg = quick_config();
  cfg.download_hook = &hook;
  abr::FixedTrackScheme s2(2);
  net::HarmonicMeanEstimator e2(5);
  const sim::SessionResult hooked = sim::run_session(v, t, s2, e2, cfg);

  ASSERT_EQ(hooked.chunks.size(), base.chunks.size());
  for (std::size_t i = 0; i < base.chunks.size(); ++i) {
    EXPECT_EQ(hooked.chunks[i].track, base.chunks[i].track);
    EXPECT_EQ(hooked.chunks[i].download_s, base.chunks[i].download_s);
    EXPECT_EQ(hooked.chunks[i].download_start_s, base.chunks[i].download_start_s);
    EXPECT_FALSE(hooked.chunks[i].edge_hit);
  }
  EXPECT_EQ(hooked.total_rebuffer_s, base.total_rebuffer_s);
  EXPECT_EQ(hook.requests, 10);
  EXPECT_EQ(hook.deliveries, 10);
}

TEST(Session, DownloadHookLatencyAndRateScaleSlowDelivery) {
  // Track 2 = 1.6 Mb chunks at 5 Mbps: 0.32 s clean. With 0.1 s added
  // latency and a 0.5x origin haircut: 0.1 + 0.64 s on top of the RTT.
  const video::Video v = default_flat_video(5);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(2);
  net::HarmonicMeanEstimator est(5);
  hooks::FixedPlanHook hook(sim::FetchPlan{0.1, 0.5, false});
  sim::SessionConfig cfg = quick_config();
  cfg.download_hook = &hook;
  const sim::SessionResult r = sim::run_session(v, t, scheme, est, cfg);
  for (const sim::ChunkRecord& c : r.chunks) {
    EXPECT_NEAR(c.download_s, 0.1 + 1.6e6 / 5e6 / 0.5, 1e-9);
    EXPECT_FALSE(c.edge_hit);
    EXPECT_DOUBLE_EQ(c.edge_latency_s, 0.1);
  }
  // Delivered bytes are accounted at face value, not divided by the haircut.
  EXPECT_NEAR(r.total_bits, 5 * 1.6e6, 1.0);
}

TEST(Session, DownloadHookInvalidPlanThrows) {
  const video::Video v = default_flat_video(5);
  const net::Trace t = flat_trace(5e6);
  abr::FixedTrackScheme scheme(2);
  net::HarmonicMeanEstimator est(5);
  sim::SessionConfig cfg = quick_config();
  hooks::FixedPlanHook zero_rate(sim::FetchPlan{0.0, 0.0, false});
  cfg.download_hook = &zero_rate;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::logic_error);
  hooks::FixedPlanHook boost(sim::FetchPlan{0.0, 1.5, false});
  cfg.download_hook = &boost;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::logic_error);
  hooks::FixedPlanHook negative(sim::FetchPlan{-0.1, 1.0, false});
  cfg.download_hook = &negative;
  EXPECT_THROW((void)sim::run_session(v, t, scheme, est, cfg),
               std::logic_error);
}

}  // namespace
