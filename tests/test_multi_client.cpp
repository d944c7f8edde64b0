// Tests for the shared-bottleneck multi-client simulator.
#include "sim/multi_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/cava.h"
#include "metrics/report.h"
#include "net/bandwidth_estimator.h"
#include "net/trace_gen.h"
#include "test_util.h"
#include "video/dataset.h"

namespace {

using namespace vbr;
using testutil::flat_trace;

sim::ClientSpec make_client(const video::Video& v, double offset = 0.0) {
  sim::ClientSpec spec;
  spec.video = &v;
  spec.scheme = core::make_cava_p123();
  spec.estimator = std::make_unique<net::HarmonicMeanEstimator>(5);
  spec.start_offset_s = offset;
  return spec;
}

TEST(MultiClient, Validation) {
  const video::Video v = testutil::default_flat_video(10);
  const net::Trace t = flat_trace(2e6);
  EXPECT_THROW((void)sim::run_multi_client(t, {}), std::invalid_argument);

  std::vector<sim::ClientSpec> bad;
  bad.push_back(make_client(v));
  bad[0].video = nullptr;
  EXPECT_THROW((void)sim::run_multi_client(t, std::move(bad)),
               std::invalid_argument);

  std::vector<sim::ClientSpec> abandon;
  abandon.push_back(make_client(v));
  sim::SessionConfig cfg;
  cfg.enable_abandonment = true;
  EXPECT_THROW((void)sim::run_multi_client(t, std::move(abandon), cfg),
               std::invalid_argument);
}

TEST(MultiClient, RejectsNegativeWaitFromScheme) {
  // Same decision rule as run_session: a negative idle is a scheme bug.
  const video::Video v = testutil::default_flat_video(30);
  const net::Trace t = flat_trace(5e6);
  std::vector<sim::ClientSpec> clients;
  clients.push_back(make_client(v));
  clients[0].scheme = std::make_unique<testutil::NegativeWaitScheme>();
  EXPECT_THROW((void)sim::run_multi_client(t, std::move(clients)),
               std::logic_error);
}

TEST(MultiClient, WatchdogDecisionBudgetStopsEveryClient) {
  const video::Video v = testutil::default_flat_video(30);
  const net::Trace t = flat_trace(5e6);
  std::vector<sim::ClientSpec> clients;
  clients.push_back(make_client(v));
  clients.push_back(make_client(v, 4.0));
  sim::SessionConfig cfg;
  cfg.watchdog_max_decisions = 3;
  const auto r = sim::run_multi_client(t, std::move(clients), cfg);
  ASSERT_EQ(r.sessions.size(), 2u);
  for (const sim::SessionResult& s : r.sessions) {
    EXPECT_EQ(s.chunks.size(), 3u);
    EXPECT_TRUE(s.watchdog_aborted);
  }
}

TEST(MultiClient, WatchdogAbortedClientLeavesTheFairShare) {
  // A fixed 3.2 Mbit chunk takes 0.8 s alone on a 4 Mbps link and longer
  // while two clients share it. The sim-time budget counts from each
  // client's own join time: the first client (joined at 0) stops at its
  // first decision after 6 s, the second (joined at 5 s) runs until 11 s,
  // alone on the link once the first has stopped.
  const video::Video v = testutil::default_flat_video(30);
  const net::Trace t = flat_trace(4e6);
  std::vector<sim::ClientSpec> clients;
  for (const double offset : {0.0, 5.0}) {
    sim::ClientSpec spec = make_client(v, offset);
    spec.scheme = std::make_unique<abr::FixedTrackScheme>(3);
    clients.push_back(std::move(spec));
  }
  sim::SessionConfig cfg;
  cfg.watchdog_max_sim_s = 6.0;
  const auto r = sim::run_multi_client(t, std::move(clients), cfg);
  const sim::SessionResult& first = r.sessions[0];
  const sim::SessionResult& second = r.sessions[1];
  EXPECT_TRUE(first.watchdog_aborted);
  EXPECT_TRUE(second.watchdog_aborted);
  EXPECT_GE(first.end_time_s, 6.0);
  EXPECT_LT(first.end_time_s, 6.0 + 1.6 + 1e-6);
  EXPECT_GE(second.end_time_s, 11.0);
  EXPECT_LT(second.chunks.size(), 30u);

  std::size_t alone = 0;
  for (const sim::ChunkRecord& c : second.chunks) {
    if (c.download_start_s >= first.end_time_s - 1e-9) {
      EXPECT_NEAR(c.download_s, 0.8, 1e-3) << "chunk " << c.index;
      ++alone;
    } else {
      EXPECT_GT(c.download_s, 0.8 + 0.1) << "chunk " << c.index;
    }
  }
  EXPECT_GT(alone, 0u);
}

TEST(MultiClient, SingleClientMatchesRunSession) {
  // The anchor: with one client, the shared link runs the same fetch ladder
  // as run_session, so every decision, attempt and failure matches exactly;
  // only the fluid transfer's times carry the documented tolerances.
  const video::Video v = video::make_video(
      "eq", video::Genre::kAnimation, video::Codec::kH264, 2.0, 2.0, 42,
      200.0);
  const net::Trace t = net::generate_lte_trace(5);

  for (const bool faults : {false, true}) {
    for (const double rtt : {0.0, 0.05}) {
      SCOPED_TRACE(std::string(faults ? "faults" : "clean") + " rtt " +
                   std::to_string(rtt));
      sim::SessionConfig cfg;
      cfg.request_rtt_s = rtt;
      if (faults) {
        cfg.fault.connect_failure_prob = 0.1;
        cfg.fault.mid_drop_prob = 0.15;
        cfg.fault.timeout_prob = 0.05;
        cfg.fault.seed = 11;
        cfg.retry.resume_partial = true;
        cfg.retry.downgrade_on_failure = true;
      }
      core::Cava cava;
      net::HarmonicMeanEstimator est(5);
      const sim::SessionResult single =
          sim::run_session(v, t, cava, est, cfg);

      std::vector<sim::ClientSpec> clients;
      clients.push_back(make_client(v));
      const sim::MultiClientResult multi =
          sim::run_multi_client(t, std::move(clients), cfg);

      ASSERT_EQ(multi.sessions.size(), 1u);
      const sim::SessionResult& m = multi.sessions[0];
      ASSERT_EQ(m.chunks.size(), single.chunks.size());
      for (std::size_t i = 0; i < m.chunks.size(); ++i) {
        SCOPED_TRACE("chunk " + std::to_string(i));
        const sim::ChunkRecord& a = m.chunks[i];
        const sim::ChunkRecord& b = single.chunks[i];
        EXPECT_EQ(a.track, b.track);
        EXPECT_EQ(a.attempts, b.attempts);
        EXPECT_EQ(a.connect_failures, b.connect_failures);
        EXPECT_EQ(a.mid_drops, b.mid_drops);
        EXPECT_EQ(a.timeouts, b.timeouts);
        EXPECT_EQ(a.downgraded, b.downgraded);
        EXPECT_EQ(a.skipped, b.skipped);
        EXPECT_EQ(a.backoff_wait_s, b.backoff_wait_s);
        EXPECT_EQ(a.wasted_bits, b.wasted_bits);
        EXPECT_NEAR(a.download_s, b.download_s, 1e-3);
        EXPECT_NEAR(a.stall_s, b.stall_s, 1e-2);
      }
      EXPECT_NEAR(m.total_rebuffer_s, single.total_rebuffer_s, 1e-2);
      EXPECT_NEAR(m.total_bits, single.total_bits, 1.0);
      if (faults) {
        const metrics::FaultSummary fs = m.fault_summary();
        EXPECT_GT(fs.downgraded, 0u);
        EXPECT_GT(fs.resumed_mb, 0.0);
      }
    }
  }
}

TEST(MultiClient, SingleClientStallAttributionMatchesRunSession) {
  // Regression: RTT and connect-fail / timeout delays are time in transfer,
  // so they count toward the open chunk's stall_s under both drivers; the
  // QoE models read per-chunk stall_s.
  const video::Video v = testutil::default_flat_video(60);
  const net::Trace t = flat_trace(4e6);
  sim::SessionConfig cfg;
  cfg.request_rtt_s = 0.05;
  cfg.fault.connect_failure_prob = 0.2;
  cfg.fault.timeout_prob = 0.1;

  abr::FixedTrackScheme top(5);
  net::HarmonicMeanEstimator est(5);
  const sim::SessionResult single = sim::run_session(v, t, top, est, cfg);

  std::vector<sim::ClientSpec> clients;
  clients.push_back(make_client(v));
  clients[0].scheme = std::make_unique<abr::FixedTrackScheme>(5);
  const sim::MultiClientResult multi =
      sim::run_multi_client(t, std::move(clients), cfg);

  const auto chunk_stall = [](const sim::SessionResult& r) {
    double s = 0.0;
    for (const sim::ChunkRecord& c : r.chunks) {
      s += c.stall_s;
    }
    return s;
  };
  const sim::SessionResult& m = multi.sessions[0];
  EXPECT_NEAR(m.total_rebuffer_s, single.total_rebuffer_s, 1e-2);
  EXPECT_GT(chunk_stall(single), 0.0);
  EXPECT_NEAR(chunk_stall(m), chunk_stall(single), 1e-2);
}

TEST(MultiClient, SymmetricClientsShareFairly) {
  const video::Video v = video::make_video(
      "sym", video::Genre::kAnimation, video::Codec::kH264, 2.0, 2.0, 42,
      200.0);
  const net::Trace t = flat_trace(4e6);
  std::vector<sim::ClientSpec> clients;
  clients.push_back(make_client(v));
  clients.push_back(make_client(v));
  const sim::MultiClientResult r = sim::run_multi_client(t, std::move(clients));
  ASSERT_EQ(r.sessions.size(), 2u);
  const auto bits = r.total_bits();
  EXPECT_GT(sim::MultiClientResult::jain_index(bits), 0.99);
  const auto q = r.mean_qualities(video::QualityMetric::kVmafPhone);
  EXPECT_NEAR(q[0], q[1], 3.0);
}

TEST(MultiClient, ContentionLowersQuality) {
  const video::Video v = video::make_video(
      "cont", video::Genre::kAnimation, video::Codec::kH264, 2.0, 2.0, 42,
      200.0);
  const net::Trace t = flat_trace(3e6);
  auto run_n = [&](std::size_t n) {
    std::vector<sim::ClientSpec> clients;
    for (std::size_t i = 0; i < n; ++i) {
      clients.push_back(make_client(v));
    }
    const auto r = sim::run_multi_client(t, std::move(clients));
    double q = 0.0;
    for (const double x :
         r.mean_qualities(video::QualityMetric::kVmafPhone)) {
      q += x;
    }
    return q / static_cast<double>(n);
  };
  EXPECT_GT(run_n(1), run_n(3) + 2.0);
}

TEST(MultiClient, StaggeredJoinRespectsOffsets) {
  const video::Video v = testutil::default_flat_video(20);
  const net::Trace t = flat_trace(10e6);
  std::vector<sim::ClientSpec> clients;
  clients.push_back(make_client(v, 0.0));
  clients.push_back(make_client(v, 30.0));
  const auto r = sim::run_multi_client(t, std::move(clients));
  EXPECT_GE(r.sessions[1].chunks.front().download_start_s, 30.0);
  EXPECT_LT(r.sessions[0].chunks.front().download_start_s, 1.0);
}

TEST(MultiClient, JainIndexBasics) {
  EXPECT_DOUBLE_EQ(sim::MultiClientResult::jain_index({1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(sim::MultiClientResult::jain_index({1.0, 0.0}), 0.5, 1e-12);
  EXPECT_THROW((void)sim::MultiClientResult::jain_index({}),
               std::invalid_argument);
}

TEST(MultiClient, WatchDurationTruncatesOneClient) {
  // Abandonment proper is rejected (the fair-share event loop cannot rewind
  // already-shared capacity), but watch-duration truncation — the fleet's
  // early-leave model — composes fine: the leaver just stops fetching.
  const video::Video v = testutil::default_flat_video(20);  // 40 s of video
  const net::Trace t = flat_trace(10e6);
  std::vector<sim::ClientSpec> clients;
  clients.push_back(make_client(v));
  clients.push_back(make_client(v));
  clients[1].watch_duration_s = 10.0;  // leaves after 5 chunks
  const auto r = sim::run_multi_client(t, std::move(clients));
  ASSERT_EQ(r.sessions.size(), 2u);
  EXPECT_EQ(r.sessions[0].chunks.size(), 20u);
  EXPECT_EQ(r.sessions[1].chunks.size(), 5u);
  EXPECT_LT(r.sessions[1].total_bits, r.sessions[0].total_bits);
}

TEST(MultiClient, ConfigWatchDurationIsTheFallback) {
  // A per-client value of 0 inherits the shared config's truncation.
  const video::Video v = testutil::default_flat_video(20);
  const net::Trace t = flat_trace(10e6);
  std::vector<sim::ClientSpec> clients;
  clients.push_back(make_client(v));
  sim::SessionConfig cfg;
  cfg.watch_duration_s = 6.0;
  const auto r = sim::run_multi_client(t, std::move(clients), cfg);
  EXPECT_EQ(r.sessions[0].chunks.size(), 3u);
}

TEST(MultiClient, RejectsDownloadHookAndBadWatchDuration) {
  class NullHook final : public sim::DownloadPathHook {
   public:
    sim::FetchPlan on_chunk_request(const video::Video&, std::size_t,
                                    std::size_t, double, double) override {
      return {};
    }
  };
  NullHook hook;
  const video::Video v = testutil::default_flat_video(10);
  const net::Trace t = flat_trace(2e6);
  {
    std::vector<sim::ClientSpec> clients;
    clients.push_back(make_client(v));
    sim::SessionConfig cfg;
    cfg.download_hook = &hook;  // delivery models belong to run_fleet
    EXPECT_THROW((void)sim::run_multi_client(t, std::move(clients), cfg),
                 std::invalid_argument);
  }
  {
    std::vector<sim::ClientSpec> clients;
    clients.push_back(make_client(v));
    clients[0].watch_duration_s = -1.0;
    EXPECT_THROW((void)sim::run_multi_client(t, std::move(clients)),
                 std::invalid_argument);
  }
}

TEST(MultiClient, ThroughputConservation) {
  // Total delivered bits cannot exceed the bottleneck's capacity over the
  // busy interval.
  const video::Video v = testutil::default_flat_video(30);
  const net::Trace t = flat_trace(2e6);
  std::vector<sim::ClientSpec> clients;
  clients.push_back(make_client(v));
  clients.push_back(make_client(v));
  clients.push_back(make_client(v));
  const auto r = sim::run_multi_client(t, std::move(clients));
  double total = 0.0;
  double last_end = 0.0;
  for (const auto& s : r.sessions) {
    total += s.total_bits;
    last_end = std::max(last_end, s.end_time_s);
  }
  EXPECT_LE(total, 2e6 * last_end * 1.01);
}

}  // namespace
