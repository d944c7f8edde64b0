// Robustness suite: degenerate and extreme inputs must not crash or break
// invariants for any scheme — 2-track and 10-track ladders, one-chunk
// videos, sub-second chunks, near-zero and enormous bandwidths.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <tuple>

#include "abr/bba.h"
#include "abr/bola.h"
#include "abr/festive.h"
#include "abr/mpc.h"
#include "abr/panda_cq.h"
#include "abr/rba.h"
#include "abr/throughput_rule.h"
#include "core/cava.h"
#include "core/pia.h"
#include "net/bandwidth_estimator.h"
#include "sim/session.h"
#include "test_util.h"

namespace {

using namespace vbr;

using SchemeMaker = std::unique_ptr<abr::AbrScheme> (*)();

std::unique_ptr<abr::AbrScheme> mk_cava() { return core::make_cava_p123(); }
std::unique_ptr<abr::AbrScheme> mk_pia() {
  return std::make_unique<core::Pia>();
}
std::unique_ptr<abr::AbrScheme> mk_mpc() {
  return std::make_unique<abr::Mpc>(abr::robust_mpc_config());
}
std::unique_ptr<abr::AbrScheme> mk_panda() {
  return std::make_unique<abr::PandaCq>();
}
std::unique_ptr<abr::AbrScheme> mk_bola() {
  return std::make_unique<abr::Bola>();
}
std::unique_ptr<abr::AbrScheme> mk_bba() {
  return std::make_unique<abr::Bba>();
}
std::unique_ptr<abr::AbrScheme> mk_bba0() {
  return std::make_unique<abr::Bba0>();
}
std::unique_ptr<abr::AbrScheme> mk_rba() {
  return std::make_unique<abr::Rba>();
}
std::unique_ptr<abr::AbrScheme> mk_festive() {
  return std::make_unique<abr::Festive>();
}
std::unique_ptr<abr::AbrScheme> mk_dynamic() {
  return std::make_unique<abr::DynamicRule>();
}

// Every scheme, labelled for stable test names (see testutil::LabeledMaker).
const testutil::LabeledMaker kAllSchemes[] = {
    {"0x55803c532fe0", mk_cava},    {"0x55803c532e90", mk_pia},
    {"0x55803c532e20", mk_mpc},     {"0x55803c532da0", mk_panda},
    {"0x55803c532d20", mk_bola},    {"0x55803c532cc0", mk_bba},
    {"0x55803c532c60", mk_bba0},    {"0x55803c532c20", mk_rba},
    {"0x55803c532bd0", mk_festive}, {"0x55803c532b50", mk_dynamic},
};

enum class Shape {
  kTwoTracks,
  kTenTracks,
  kSingleChunk,
  kSubSecondChunks,
  kHugeChunks,
};

video::Video make_shape(Shape shape) {
  switch (shape) {
    case Shape::kTwoTracks:
      return testutil::make_flat_video({3e5, 2e6}, 30);
    case Shape::kTenTracks: {
      std::vector<double> rates;
      double r = 1e5;
      for (int i = 0; i < 10; ++i) {
        rates.push_back(r);
        r *= 1.7;
      }
      return testutil::make_flat_video(rates, 30);
    }
    case Shape::kSingleChunk:
      return testutil::make_flat_video({3e5, 2e6}, 1);
    case Shape::kSubSecondChunks:
      return testutil::make_flat_video({3e5, 1e6, 3e6}, 100, 0.5);
    case Shape::kHugeChunks:
      return testutil::make_flat_video({3e5, 1e6, 3e6}, 20, 10.0);
  }
  return testutil::default_flat_video(10);
}

class RobustnessTest
    : public ::testing::TestWithParam<std::tuple<testutil::LabeledMaker, Shape>> {};

TEST_P(RobustnessTest, SessionCompletesWithInvariants) {
  const auto [maker, shape] = GetParam();
  const video::Video v = make_shape(shape);
  sim::SessionConfig cfg;
  cfg.startup_latency_s = std::min(4.0, v.duration_s());
  cfg.max_buffer_s = 100.0;

  for (const double bw : {2e4, 5e5, 5e6, 1e9}) {
    const net::Trace t = testutil::flat_trace(bw, 36000.0);
    const auto scheme = maker();
    net::HarmonicMeanEstimator est(5);
    const sim::SessionResult r = sim::run_session(v, t, *scheme, est, cfg);
    ASSERT_EQ(r.chunks.size(), v.num_chunks());
    for (const auto& c : r.chunks) {
      ASSERT_LT(c.track, v.num_tracks());
      EXPECT_GT(c.download_s, 0.0);
      EXPECT_LE(c.buffer_after_s, cfg.max_buffer_s + 1e-9);
    }
    EXPECT_GE(r.total_rebuffer_s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllShapes, RobustnessTest,
    ::testing::Combine(::testing::ValuesIn(kAllSchemes),
                       ::testing::Values(Shape::kTwoTracks,
                                         Shape::kTenTracks,
                                         Shape::kSingleChunk,
                                         Shape::kSubSecondChunks,
                                         Shape::kHugeChunks)));

// Fault matrix: every scheme must survive each injected fault kind — and
// the retry-exhaustion extreme where every attempt fails — while keeping
// the session invariants (all chunk positions accounted for, buffer cap
// respected, non-negative stalls, skips only after exhausting attempts).
enum class FaultMix { kHardFail, kMidDrop, kTimeout, kExhaustion };

net::FaultConfig make_fault(FaultMix mix) {
  net::FaultConfig fc;
  fc.seed = 0xF00D;
  switch (mix) {
    case FaultMix::kHardFail: fc.connect_failure_prob = 0.25; break;
    case FaultMix::kMidDrop: fc.mid_drop_prob = 0.25; break;
    case FaultMix::kTimeout: fc.timeout_prob = 0.25; break;
    case FaultMix::kExhaustion: fc.connect_failure_prob = 1.0; break;
  }
  return fc;
}

class FaultMatrixTest
    : public ::testing::TestWithParam<std::tuple<testutil::LabeledMaker, FaultMix>> {};

TEST_P(FaultMatrixTest, SessionSurvivesInjectedFaults) {
  const auto [maker, mix] = GetParam();
  const video::Video v = testutil::default_flat_video(40);
  const net::Trace t = testutil::flat_trace(4e6, 36000.0);
  sim::SessionConfig cfg;
  cfg.startup_latency_s = 4.0;
  cfg.max_buffer_s = 60.0;
  cfg.fault = make_fault(mix);
  cfg.retry.max_attempts = mix == FaultMix::kExhaustion ? 2 : 3;

  const auto scheme = maker();
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r = sim::run_session(v, t, *scheme, est, cfg);

  ASSERT_EQ(r.chunks.size(), v.num_chunks()) << scheme->name();
  for (const auto& c : r.chunks) {
    ASSERT_LT(c.track, v.num_tracks());
    EXPECT_LE(c.buffer_after_s, cfg.max_buffer_s + 1e-9);
    EXPECT_GE(c.stall_s, 0.0);
    EXPECT_GE(c.attempts, 1u);
    EXPECT_LE(c.attempts, cfg.retry.max_attempts);
    if (c.skipped) {
      EXPECT_EQ(c.attempts, cfg.retry.max_attempts);
      EXPECT_DOUBLE_EQ(c.size_bits, 0.0);
    } else {
      EXPECT_GT(c.size_bits, 0.0);
      EXPECT_GT(c.download_s, 0.0);
    }
  }
  EXPECT_GE(r.total_rebuffer_s, 0.0);
  if (mix == FaultMix::kExhaustion) {
    // Every attempt hard-fails: every chunk is skipped, none plays, and the
    // session still runs to completion instead of aborting.
    for (const auto& c : r.chunks) {
      EXPECT_TRUE(c.skipped);
    }
    EXPECT_DOUBLE_EQ(r.total_bits, 0.0);
  } else {
    const metrics::FaultSummary fs = r.fault_summary();
    EXPECT_GT(fs.connect_failures + fs.mid_drops + fs.timeouts, 0u)
        << scheme->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllFaults, FaultMatrixTest,
    ::testing::Combine(::testing::ValuesIn(kAllSchemes),
                       ::testing::Values(FaultMix::kHardFail,
                                         FaultMix::kMidDrop,
                                         FaultMix::kTimeout,
                                         FaultMix::kExhaustion)));

// Outage-heavy trace: long zero-bandwidth stretches must elapse, not hang.
TEST(Robustness, ZeroBandwidthStretches) {
  const video::Video v = testutil::default_flat_video(10);
  std::vector<double> samples(600, 0.0);
  for (std::size_t i = 0; i < samples.size(); i += 10) {
    samples[i] = 2e6;  // one good second in ten
  }
  const net::Trace t("gappy", 1.0, std::move(samples));
  auto cava = core::make_cava_p123();
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r = sim::run_session(v, t, *cava, est);
  EXPECT_EQ(r.chunks.size(), v.num_chunks());
  EXPECT_GT(r.end_time_s, 0.0);
}

// Defensive input guards: malformed context values must be rejected with a
// clear exception before any scheme arithmetic can propagate them. NaN is
// the treacherous case — it compares false against every threshold
// (NaN <= 0 is false), so only an explicit isnan/isfinite check stops it.
class InputValidationTest : public ::testing::TestWithParam<testutil::LabeledMaker> {};

TEST_P(InputValidationTest, NonFiniteBandwidthIsRejected) {
  const video::Video v = testutil::default_flat_video(10);
  for (const double bw : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
    const auto scheme = GetParam()();
    const abr::StreamContext ctx = testutil::make_context(v, 0, 5.0, bw);
    EXPECT_THROW((void)scheme->decide(ctx), std::invalid_argument)
        << scheme->name() << " accepted bandwidth " << bw;
  }
}

TEST_P(InputValidationTest, NonFiniteBufferOrClockIsRejected) {
  const video::Video v = testutil::default_flat_video(10);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double buf : {nan, inf, -1.0}) {
    const auto scheme = GetParam()();
    const abr::StreamContext ctx = testutil::make_context(v, 0, buf, 2e6);
    EXPECT_THROW((void)scheme->decide(ctx), std::invalid_argument)
        << scheme->name() << " accepted buffer " << buf;
  }
  for (const double now : {nan, inf}) {
    const auto scheme = GetParam()();
    abr::StreamContext ctx = testutil::make_context(v, 0, 5.0, 2e6);
    ctx.now_s = now;
    EXPECT_THROW((void)scheme->decide(ctx), std::invalid_argument)
        << scheme->name() << " accepted clock " << now;
  }
}

TEST_P(InputValidationTest, ZeroOrTinyBandwidthNeverCrashes) {
  const video::Video v = testutil::default_flat_video(10);
  for (const double bw : {0.0, 1e-9}) {
    const auto scheme = GetParam()();
    const abr::StreamContext ctx = testutil::make_context(v, 0, 5.0, bw);
    try {
      const abr::Decision d = scheme->decide(ctx);
      EXPECT_LT(d.track, v.num_tracks()) << scheme->name();
    } catch (const std::invalid_argument&) {
      // Refusing a non-positive estimate outright is also acceptable —
      // what is not acceptable is UB or a nonsense track.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, InputValidationTest,
                         ::testing::ValuesIn(kAllSchemes));

TEST(InputValidation, EmptyLadderIsRejected) {
  EXPECT_THROW(video::Video("none", video::Genre::kAnimation, {}, {}),
               std::invalid_argument);
}

TEST(InputValidation, NonFiniteOrZeroChunkGeometryIsRejected) {
  std::vector<video::Chunk> good(3);
  for (video::Chunk& c : good) {
    c.size_bits = 1e6;
    c.duration_s = 2.0;
  }
  const auto expect_rejected = [&](std::size_t idx, double size_bits,
                                   double duration_s) {
    std::vector<video::Chunk> bad = good;
    bad[idx].size_bits = size_bits;
    bad[idx].duration_s = duration_s;
    EXPECT_THROW(video::Track(0, video::kLadder144p, video::Codec::kH264,
                              std::move(bad)),
                 std::invalid_argument)
        << "size=" << size_bits << " dur=" << duration_s;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_rejected(1, 1e6, 0.0);    // zero-duration chunk
  expect_rejected(1, 1e6, -2.0);   // negative duration
  expect_rejected(1, 1e6, nan);    // NaN duration
  expect_rejected(2, 0.0, 2.0);    // zero-size chunk
  expect_rejected(2, -1e6, 2.0);   // negative size
  expect_rejected(2, nan, 2.0);    // NaN size
  expect_rejected(0, inf, 2.0);    // infinite size
}

// A scheme must behave when the bandwidth estimate is wildly wrong in both
// directions during one session.
TEST(Robustness, OscillatingBandwidth) {
  const video::Video v = testutil::default_flat_video(60);
  std::vector<double> samples;
  for (int i = 0; i < 1200; ++i) {
    samples.push_back(i % 20 < 10 ? 8e6 : 2e5);  // 10 s square wave
  }
  const net::Trace t("square", 1.0, std::move(samples));
  for (const SchemeMaker maker :
       {mk_cava, mk_mpc, mk_panda, mk_bola, mk_festive}) {
    const auto scheme = maker();
    net::HarmonicMeanEstimator est(5);
    const sim::SessionResult r = sim::run_session(v, t, *scheme, est);
    EXPECT_EQ(r.chunks.size(), v.num_chunks()) << scheme->name();
  }
}

}  // namespace
