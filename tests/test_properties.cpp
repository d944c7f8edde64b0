// Property-based tests: invariants that must hold across randomized
// parameter sweeps (seeds, bandwidths, videos, schemes).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "abr/bba.h"
#include "abr/bola.h"
#include "abr/mpc.h"
#include "abr/panda_cq.h"
#include "abr/rba.h"
#include "core/cava.h"
#include "core/complexity_classifier.h"
#include "net/bandwidth_estimator.h"
#include "net/trace_gen.h"
#include "sim/session.h"
#include "test_util.h"
#include "video/dataset.h"

namespace {

using namespace vbr;

// ---------------------------------------------------------------------
// Session invariants for every scheme on randomized (video, trace) pairs.
// ---------------------------------------------------------------------

std::unique_ptr<abr::AbrScheme> mk_cava() { return core::make_cava_p123(); }
std::unique_ptr<abr::AbrScheme> mk_mpc() {
  return std::make_unique<abr::Mpc>(abr::mpc_config());
}
std::unique_ptr<abr::AbrScheme> mk_rmpc() {
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
std::unique_ptr<abr::AbrScheme> mk_rba() {
  return std::make_unique<abr::Rba>();
}

class SessionInvariants
    : public ::testing::TestWithParam<std::tuple<testutil::LabeledMaker, int>> {};

TEST_P(SessionInvariants, HoldForRandomizedRuns) {
  const auto [maker, seed] = GetParam();
  const video::Video v = video::make_video(
      "prop", seed % 2 == 0 ? video::Genre::kAction : video::Genre::kSciFi,
      video::Codec::kH264, seed % 3 == 0 ? 5.0 : 2.0, 2.0,
      static_cast<std::uint64_t>(seed), 240.0);
  const net::Trace t =
      net::generate_lte_trace(static_cast<std::uint64_t>(1000 + seed));
  const auto scheme = maker();
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult r = sim::run_session(v, t, *scheme, est);

  // Invariant 1: every chunk downloaded exactly once, in order.
  ASSERT_EQ(r.chunks.size(), v.num_chunks());
  double total_bits = 0.0;
  double prev_start = -1.0;
  for (std::size_t i = 0; i < r.chunks.size(); ++i) {
    const sim::ChunkRecord& c = r.chunks[i];
    EXPECT_EQ(c.index, i);
    // Invariant 2: chosen track valid; recorded size matches the manifest.
    ASSERT_LT(c.track, v.num_tracks());
    EXPECT_DOUBLE_EQ(c.size_bits, v.chunk_size_bits(c.track, i));
    // Invariant 3: time moves forward; downloads take positive time.
    EXPECT_GT(c.download_start_s, prev_start);
    prev_start = c.download_start_s;
    EXPECT_GT(c.download_s, 0.0);
    // Invariant 4: the buffer respects the cap.
    EXPECT_LE(c.buffer_after_s, sim::SessionConfig{}.max_buffer_s + 1e-9);
    EXPECT_GE(c.stall_s, 0.0);
    total_bits += c.size_bits;
  }
  // Invariant 5: accounting is consistent.
  EXPECT_NEAR(total_bits, r.total_bits, 1.0);
  EXPECT_GE(r.total_rebuffer_s, 0.0);
  EXPECT_GT(r.startup_delay_s, 0.0);
  EXPECT_GE(r.end_time_s, r.startup_delay_s);
  // Invariant 6: data downloaded is bounded by the ladder extremes.
  EXPECT_GE(total_bits, v.track(0).total_bits() - 1.0);
  EXPECT_LE(total_bits, v.track(v.num_tracks() - 1).total_bits() + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesBySeeds, SessionInvariants,
    ::testing::Combine(
        // Labels keep the test names stable (see testutil::LabeledMaker).
        ::testing::Values(testutil::LabeledMaker{"0x55803c512dd0", mk_cava},
                          testutil::LabeledMaker{"0x55803c512d60", mk_mpc},
                          testutil::LabeledMaker{"0x55803c5132a0", mk_rmpc},
                          testutil::LabeledMaker{"0x55803c512ce0", mk_panda},
                          testutil::LabeledMaker{"0x55803c512c60", mk_bola},
                          testutil::LabeledMaker{"0x55803c512c00", mk_bba},
                          testutil::LabeledMaker{"0x55803c512bc0", mk_rba}),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------
// Monotonicity: more bandwidth never hurts (statistically).
// ---------------------------------------------------------------------

class BandwidthMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(BandwidthMonotonicity, CavaQualityRisesWithFlatBandwidth) {
  const video::Video v = video::make_video(
      "mono", video::Genre::kAnimation, video::Codec::kH264, 2.0, 2.0,
      static_cast<std::uint64_t>(GetParam()), 200.0);
  double prev_quality = -1.0;
  for (const double bw : {4e5, 8e5, 1.6e6, 3.2e6, 6.4e6}) {
    const net::Trace t("flat", 1.0, std::vector<double>(1500, bw));
    core::Cava cava;
    net::HarmonicMeanEstimator est(5);
    const sim::SessionResult r = sim::run_session(v, t, cava, est);
    double q = 0.0;
    for (const auto& c : r.chunks) {
      q += c.quality.vmaf_phone;
    }
    q /= static_cast<double>(r.chunks.size());
    EXPECT_GT(q, prev_quality - 0.5) << "bw " << bw;  // allow tiny noise
    prev_quality = q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthMonotonicity,
                         ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------
// Classifier properties across the corpus.
// ---------------------------------------------------------------------

class ClassifierProperties : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const std::vector<video::Video>& corpus() {
    static const std::vector<video::Video> c = video::make_full_corpus();
    return c;
  }
};

TEST_P(ClassifierProperties, ClassesCoverVideoAndAreStable) {
  const video::Video& v = corpus()[GetParam()];
  const core::ComplexityClassifier a(v);
  const core::ComplexityClassifier b(v);
  ASSERT_EQ(a.classes().size(), v.num_chunks());
  for (std::size_t i = 0; i < v.num_chunks(); ++i) {
    EXPECT_LT(a.class_of(i), a.num_classes());
    EXPECT_EQ(a.class_of(i), b.class_of(i));  // deterministic
  }
  // Q4 population is between 15% and 35% of chunks (quartile-based, with
  // ties allowed to shift the split).
  const double frac = static_cast<double>(a.complex_chunks().size()) /
                      static_cast<double>(v.num_chunks());
  EXPECT_GT(frac, 0.15);
  EXPECT_LT(frac, 0.35);
}

INSTANTIATE_TEST_SUITE_P(All16, ClassifierProperties,
                         ::testing::Range<std::size_t>(0, 16));

// ---------------------------------------------------------------------
// Quality-model property: within any corpus track, Q4 chunks score below
// Q1 chunks (the paper's Section 3.1.2 finding, as an invariant).
// ---------------------------------------------------------------------

class QualityGapProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QualityGapProperty, Q4BelowQ1OnMiddleTrack) {
  const video::Video v = video::make_video(
      "gap", video::Genre::kSciFi, video::Codec::kH264, 2.0, 2.0,
      GetParam(), 400.0);
  const core::ComplexityClassifier cls(v);
  const video::Track& mid = v.track(v.middle_track());
  double q1_sum = 0.0;
  double q4_sum = 0.0;
  std::size_t q1_n = 0;
  std::size_t q4_n = 0;
  for (std::size_t i = 0; i < v.num_chunks(); ++i) {
    if (cls.class_of(i) == 0) {
      q1_sum += mid.chunk(i).quality.vmaf_phone;
      ++q1_n;
    } else if (cls.class_of(i) == 3) {
      q4_sum += mid.chunk(i).quality.vmaf_phone;
      ++q4_n;
    }
  }
  ASSERT_GT(q1_n, 0u);
  ASSERT_GT(q4_n, 0u);
  EXPECT_GT(q1_sum / q1_n, q4_sum / q4_n + 3.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QualityGapProperty,
                         ::testing::Values(1, 7, 42, 99, 1234));

}  // namespace
