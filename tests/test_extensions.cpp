// Tests for the extension modules: the PIA (CBR-design) baseline, the
// content-based SI/TI classifier, CBR encoding, and the live-streaming
// session with fenced look-ahead.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/cava.h"
#include "core/complexity_classifier.h"
#include "core/pia.h"
#include "core/si_ti_classifier.h"
#include "net/bandwidth_estimator.h"
#include "net/trace_gen.h"
#include "sim/live_session.h"
#include "test_util.h"
#include "video/dataset.h"
#include "video/encoder.h"

namespace {

using namespace vbr;
using testutil::flat_trace;
using testutil::make_context;

video::Video corpus_video(double duration_s = 300.0) {
  return video::make_video("ED", video::Genre::kAnimation,
                           video::Codec::kH264, 2.0, 2.0, 42, duration_s);
}

// ---------------------------------------------------------------- PIA --

TEST(Pia, PicksTrackMatchingBudget) {
  const video::Video v = testutil::default_flat_video(20);
  core::Pia pia;
  // On target (buffer == 60): u = 1, budget = estimate.
  const abr::Decision d = pia.decide(make_context(v, 0, 60.0, 1e6));
  EXPECT_EQ(d.track, 2u);  // ladder 0.2/0.4/0.8/1.6/... -> 0.8 fits 1.0
}

TEST(Pia, BufferDeficitLowersTrack) {
  const video::Video v = testutil::default_flat_video(20);
  core::Pia pia;
  const abr::Decision low = pia.decide(make_context(v, 0, 10.0, 1.6e6));
  core::Pia pia2;
  const abr::Decision high = pia2.decide(make_context(v, 0, 60.0, 1.6e6));
  EXPECT_LT(low.track, high.track);
}

TEST(Pia, IgnoresPerChunkSizes) {
  // PIA is CBR-blind: a spiked chunk gets the same track as a flat one.
  const video::Video v = testutil::make_flat_video(
      {2e5, 4e5, 8e5, 1.6e6, 3.2e6, 6.4e6}, 20, 2.0, {{10, 3.0}});
  core::Pia a;
  core::Pia b;
  EXPECT_EQ(a.decide(make_context(v, 5, 60.0, 2e6)).track,
            b.decide(make_context(v, 10, 60.0, 2e6)).track);
}

TEST(Pia, CavaBeatsPiaOnQ4Quality) {
  // The point of the VBR-aware machinery: same control core, better Q4.
  const video::Video v = corpus_video(600.0);
  const auto traces = net::make_lte_trace_set(10, 7);
  auto q4_of = [&](abr::AbrScheme& s) {
    const core::ComplexityClassifier cls(v);
    double sum = 0.0;
    std::size_t n = 0;
    for (const net::Trace& t : traces) {
      net::HarmonicMeanEstimator est(5);
      const auto r = sim::run_session(v, t, s, est);
      for (const auto& c : r.chunks) {
        if (cls.is_complex(c.index)) {
          sum += c.quality.vmaf_phone;
          ++n;
        }
      }
    }
    return sum / static_cast<double>(n);
  };
  core::Pia pia;
  auto cava = core::make_cava_p123();
  EXPECT_GT(q4_of(*cava), q4_of(pia) + 1.0);
}

// ------------------------------------------------------ SiTiClassifier --

TEST(SiTi, AgreesBroadlyWithSizeClassifier) {
  // Section 3.1.1's claim, quantified: size quartiles recover complexity
  // quartiles with high accuracy.
  const video::Video v = corpus_video();
  const core::SiTiClassifier content(v);
  const core::ComplexityClassifier size(v);
  EXPECT_GT(content.agreement(size.classes()), 0.6);
  // Exact Q4 membership agrees even more often than full class labels.
  std::size_t q4_agree = 0;
  for (std::size_t i = 0; i < v.num_chunks(); ++i) {
    q4_agree += content.is_complex(i) == size.is_complex(i) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(q4_agree) / v.num_chunks(), 0.85);
}

TEST(SiTi, InvalidArgumentsThrow) {
  const video::Video v = corpus_video();
  EXPECT_THROW(core::SiTiClassifier(v, 1), std::invalid_argument);
  const core::SiTiClassifier c(v);
  EXPECT_THROW((void)c.agreement({1, 2, 3}), std::invalid_argument);
}

TEST(SiTi, ClassesCoverRange) {
  const video::Video v = corpus_video();
  const core::SiTiClassifier c(v, 5);
  std::vector<std::size_t> seen(5, 0);
  for (std::size_t i = 0; i < v.num_chunks(); ++i) {
    ASSERT_LT(c.class_of(i), 5u);
    seen[c.class_of(i)]++;
  }
  for (const std::size_t n : seen) {
    EXPECT_GT(n, 0u);
  }
}

// ------------------------------------------------------------- CBR mode --

TEST(Cbr, ConstantChunkSizes) {
  const video::Video cbr = video::make_cbr_video(
      "ED-cbr", video::Genre::kAnimation, video::Codec::kH264, 2.0, 42,
      300.0);
  for (const video::Track& t : cbr.tracks()) {
    EXPECT_LT(t.peak_to_average(), 1.1) << t.level();
  }
}

TEST(Cbr, SameAverageBitrateAsVbr) {
  const video::Video cbr = video::make_cbr_video(
      "ED-cbr", video::Genre::kAnimation, video::Codec::kH264, 2.0, 42,
      300.0);
  const video::Video vbr = corpus_video();
  for (std::size_t l = 0; l < cbr.num_tracks(); ++l) {
    EXPECT_NEAR(cbr.track(l).average_bitrate_bps(),
                vbr.track(l).average_bitrate_bps(),
                0.02 * vbr.track(l).average_bitrate_bps());
  }
}

TEST(Cbr, VbrHasBetterWorstCaseQualityAtSameBits) {
  // The intro's motivation: at the same average bitrate, VBR lifts the
  // quality floor (complex scenes) relative to CBR.
  const video::Video cbr = video::make_cbr_video(
      "ED-cbr", video::Genre::kAnimation, video::Codec::kH264, 2.0, 42,
      300.0);
  const video::Video vbr = corpus_video();
  const std::size_t mid = vbr.middle_track();
  double cbr_min = 100.0;
  double vbr_min = 100.0;
  for (std::size_t i = 0; i < vbr.num_chunks(); ++i) {
    cbr_min = std::min(cbr_min, cbr.track(mid).chunk(i).quality.vmaf_phone);
    vbr_min = std::min(vbr_min, vbr.track(mid).chunk(i).quality.vmaf_phone);
  }
  EXPECT_GT(vbr_min, cbr_min + 3.0);
}

// ------------------------------------------------------- Live sessions --

TEST(Live, ConfigValidation) {
  const video::Video v = corpus_video();
  const net::Trace t = flat_trace(3e6);
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  sim::LiveSessionConfig cfg;
  cfg.join_latency_s = 1.0;  // below chunk + encoder delay
  EXPECT_THROW((void)sim::run_live_session(v, t, *cava, est, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.encoder_delay_s = -1.0;
  EXPECT_THROW((void)sim::run_live_session(v, t, *cava, est, cfg),
               std::invalid_argument);
}

TEST(Live, RejectsNegativeWaitFromScheme) {
  // Same decision rule as run_session: a negative idle is a scheme bug.
  const video::Video v = testutil::default_flat_video(30);
  const net::Trace t = flat_trace(5e6);
  testutil::NegativeWaitScheme scheme;
  net::HarmonicMeanEstimator est(5);
  EXPECT_THROW((void)sim::run_live_session(v, t, scheme, est),
               std::logic_error);
}

TEST(Live, DownloadsRespectProductionTimes) {
  const video::Video v = corpus_video();
  const net::Trace t = flat_trace(50e6);
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  const sim::LiveSessionConfig cfg;
  const auto r = sim::run_live_session(v, t, *cava, est, cfg);
  ASSERT_EQ(r.session.chunks.size(), v.num_chunks());
  for (const auto& c : r.session.chunks) {
    const double produced =
        static_cast<double>(c.index + 1) * v.chunk_duration_s() +
        cfg.encoder_delay_s;
    EXPECT_GE(c.download_start_s + 1e-9, produced) << c.index;
  }
}

TEST(Live, FastLinkRidesTheEdge) {
  // With a fast link the player drains its join latency and then waits for
  // production: substantial edge wait, bounded buffer.
  const video::Video v = corpus_video();
  const net::Trace t = flat_trace(50e6);
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  const auto r = sim::run_live_session(v, t, *cava, est);
  EXPECT_GT(r.edge_wait_s, 100.0);
  for (const auto& c : r.session.chunks) {
    EXPECT_LE(c.buffer_after_s, sim::LiveSessionConfig{}.join_latency_s + 1.0);
  }
}

TEST(Live, LatencyBoundedOnGoodLink) {
  const video::Video v = corpus_video();
  const net::Trace t = flat_trace(20e6);
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  const sim::LiveSessionConfig cfg;
  const auto r = sim::run_live_session(v, t, *cava, est, cfg);
  EXPECT_GT(r.mean_latency_s, 0.0);
  // Without stalls, latency stays near join latency + startup.
  EXPECT_LT(r.mean_latency_s,
            cfg.join_latency_s + cfg.startup_latency_s + 10.0);
  EXPECT_LE(r.mean_latency_s, r.max_latency_s);
}

TEST(Live, StallsIncreaseLatency) {
  const video::Video v = corpus_video();
  auto cava1 = core::make_cava_p123();
  auto cava2 = core::make_cava_p123();
  net::HarmonicMeanEstimator e1(5);
  net::HarmonicMeanEstimator e2(5);
  const auto good =
      sim::run_live_session(v, flat_trace(20e6), *cava1, e1);
  // Slower than even the lowest track's average bitrate: stalls are
  // unavoidable and the playhead drifts behind the live edge.
  const auto bad =
      sim::run_live_session(v, flat_trace(1.0e5), *cava2, e2);
  EXPECT_GT(bad.session.total_rebuffer_s, good.session.total_rebuffer_s);
  EXPECT_GT(bad.max_latency_s, good.max_latency_s);
}

TEST(Live, SchemesSeeTruncatedManifest) {
  // A probe scheme records the visibility fence it was given.
  class Probe final : public abr::AbrScheme {
   public:
    [[nodiscard]] abr::Decision decide(
        const abr::StreamContext& ctx) override {
      max_visible = std::max(max_visible, ctx.lookahead_limit());
      min_margin = std::min(
          min_margin, ctx.lookahead_limit() - (ctx.next_chunk + 1));
      return abr::Decision{.track = 0};
    }
    [[nodiscard]] std::string name() const override { return "probe"; }
    std::size_t max_visible = 0;
    std::size_t min_margin = SIZE_MAX;
  };
  const video::Video v = corpus_video();
  const net::Trace t = flat_trace(5e6);
  Probe probe;
  net::HarmonicMeanEstimator est(5);
  const sim::LiveSessionConfig cfg;
  (void)sim::run_live_session(v, t, probe, est, cfg);
  // The fence never exceeds the video and, at the live edge, shrinks to a
  // handful of chunks (around join latency worth).
  EXPECT_LE(probe.max_visible, v.num_chunks());
  EXPECT_LE(probe.min_margin,
            static_cast<std::size_t>(cfg.join_latency_s /
                                     v.chunk_duration_s()) +
                2);
}

TEST(Live, VodContextSeesWholeVideo) {
  const video::Video v = corpus_video();
  abr::StreamContext ctx;
  ctx.video = &v;
  EXPECT_EQ(ctx.lookahead_limit(), v.num_chunks());
  ctx.visible_chunks = 10;
  EXPECT_EQ(ctx.lookahead_limit(), 10u);
}

}  // namespace
