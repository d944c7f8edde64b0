// Event-engine invariant properties: the session-id reorder drain
// (obs::OrderedDrain), per-session virtual-time monotonicity of the
// resumable SessionStepper, event/chunk conservation and no-starvation on
// real fleets, uncoupled 100k-session concurrency, and the
// constant-memory streaming-aggregation smoke.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/bba.h"
#include "abr/scheme.h"
#include "fleet/fleet.h"
#include "net/bandwidth_estimator.h"
#include "obs/fold.h"
#include "sim/session.h"
#include "sim/stepper.h"
#include "test_util.h"

namespace vbr {
namespace {

// ---------------------------------------------------------------------
// OrderedDrain: the streaming reorder buffer between out-of-order
// completions and the strict session-id fold order.
// ---------------------------------------------------------------------

TEST(OrderedDrain, ReleasesItemsInStrictKeyOrder) {
  obs::OrderedDrain<int> drain;
  // Keys arrive completion-shuffled; pops must come out 0,1,2,...
  drain.put(2, 20);
  drain.put(0, 0);
  EXPECT_EQ(drain.pop().value(), 0);   // 0 is next
  EXPECT_FALSE(drain.pop().has_value());  // 1 still missing; 2 is held
  drain.put(3, 30);
  drain.put(1, 10);
  EXPECT_EQ(drain.pop().value(), 10);
  EXPECT_EQ(drain.pop().value(), 20);
  EXPECT_EQ(drain.pop().value(), 30);
  EXPECT_FALSE(drain.pop().has_value());
  EXPECT_EQ(drain.pending(), 0u);
}

TEST(OrderedDrain, TracksPeakResidency) {
  obs::OrderedDrain<int> drain;
  // Hold keys 1..4 while 0 is missing: residency climbs to 4.
  for (std::size_t k = 4; k >= 1; --k) {
    drain.put(k, static_cast<int>(k));
  }
  EXPECT_EQ(drain.pending(), 4u);
  drain.put(0, 0);
  while (drain.pop()) {
  }
  EXPECT_EQ(drain.pending(), 0u);
  EXPECT_EQ(drain.peak_pending(), 5u);  // 0..4 resident together
}

TEST(OrderedDrain, RejectsDuplicateAndDrainedKeys) {
  obs::OrderedDrain<int> drain;
  drain.put(0, 0);
  EXPECT_THROW(drain.put(0, 1), std::logic_error);  // duplicate pending
  ASSERT_TRUE(drain.pop().has_value());
  EXPECT_THROW(drain.put(0, 2), std::logic_error);  // already drained
  EXPECT_EQ(drain.next(), 1u);
}

// ---------------------------------------------------------------------
// SessionStepper: per-session virtual time and chunk conservation. The
// engine's event keys are arrival_s + now_s(), so now_s() never moving
// backwards IS per-session timeline monotonicity.
// ---------------------------------------------------------------------

TEST(SessionStepper, VirtualTimeIsMonotoneAcrossSteps) {
  const video::Video video = testutil::default_flat_video(20);
  const net::Trace trace = testutil::flat_trace(3e6, 600.0);
  abr::Bba scheme;
  const std::unique_ptr<net::BandwidthEstimator> estimator =
      sim::default_estimator_factory()(trace);
  sim::SessionConfig config;
  config.startup_latency_s = 2.0;
  sim::SessionStepper stepper(video, trace, scheme, *estimator, config);

  double last = stepper.now_s();
  std::size_t steps = 0;
  bool more = true;
  while (more) {
    more = stepper.step();
    ++steps;
    EXPECT_GE(stepper.now_s(), last);
    last = stepper.now_s();
    ASSERT_LE(steps, 20u);  // no starvation / livelock
  }
  EXPECT_TRUE(stepper.done());
  EXPECT_EQ(steps, 20u);  // one event per chunk, exactly
  const sim::SessionResult result = stepper.finish();
  EXPECT_EQ(result.chunks.size(), 20u);
  EXPECT_DOUBLE_EQ(result.end_time_s, last);
}

// ---------------------------------------------------------------------
// Whole-fleet conservation and concurrency properties.
// ---------------------------------------------------------------------

/// Uncoupled fleet whose arrivals all land inside one second, so every
/// session overlaps every other on the virtual timeline.
fleet::FleetSpec burst_spec(std::size_t sessions,
                            const std::vector<net::Trace>& traces) {
  fleet::FleetSpec spec;
  spec.use_cache = false;  // uncoupled: all sessions admitted up front
  spec.catalog.num_titles = 4;
  spec.catalog.title_duration_s = 8.0;
  spec.catalog.chunk_duration_s = 2.0;
  // Arrivals compressed into a fraction of the shortest possible session
  // span, so every session overlaps every other.
  spec.arrivals.rate_per_s = 8.0 * static_cast<double>(sessions);
  spec.arrivals.horizon_s = 30.0;
  spec.arrivals.max_sessions = sessions;
  spec.classes.resize(1);
  spec.classes[0].label = "bba";
  spec.classes[0].make_scheme = [] { return std::make_unique<abr::Bba>(); };
  spec.traces = traces;
  spec.watch.full_watch_prob = 1.0;  // fixed-length sessions
  spec.session.startup_latency_s = 2.0;
  return spec;
}

TEST(EngineProperties, ConservesEventsAndStarvesNoSession) {
  std::vector<net::Trace> traces;
  traces.push_back(testutil::flat_trace(2e6, 600.0));
  fleet::FleetSpec spec = burst_spec(200, traces);
  spec.engine = fleet::FleetEngine::kEvent;
  spec.threads = 4;
  const fleet::FleetResult result = fleet::run_fleet(spec);

  ASSERT_EQ(result.sessions.size(), 200u);
  std::size_t chunks = 0;
  for (const fleet::FleetSessionRecord& rec : result.sessions) {
    EXPECT_GT(rec.chunks, 0u);  // every admitted session made progress
    chunks += rec.chunks;
  }
  // One event per resolved chunk (no watchdog in this spec): the timeline
  // neither drops nor duplicates work.
  EXPECT_EQ(result.engine_stats.events_processed, chunks);
  EXPECT_EQ(result.watchdog_aborted_sessions, 0u);
  // Burst arrivals + longer-than-burst sessions: everyone overlaps. The
  // run completing at all also certifies the engine's internal
  // global-virtual-time floor check (it throws on any rewind).
  EXPECT_EQ(result.engine_stats.peak_in_flight, 200u);
  EXPECT_LE(result.engine_stats.max_heap_size, 200u);
  EXPECT_EQ(result.engine_stats.peak_resident_records, 0u);  // not streaming
}

TEST(EngineProperties, WatchdogAbortsConsumeOneExtraEvent) {
  std::vector<net::Trace> traces;
  traces.push_back(testutil::flat_trace(2e6, 600.0));
  fleet::FleetSpec spec = burst_spec(60, traces);
  spec.session.watchdog_max_decisions = 2;  // every 4-chunk session trips
  spec.engine = fleet::FleetEngine::kEvent;
  spec.threads = 2;
  const fleet::FleetResult result = fleet::run_fleet(spec);
  ASSERT_EQ(result.watchdog_aborted_sessions, 60u);
  std::size_t chunks = 0;
  for (const fleet::FleetSessionRecord& rec : result.sessions) {
    chunks += rec.chunks;
  }
  // The aborting step resolves no chunk but still consumed an event.
  EXPECT_EQ(result.engine_stats.events_processed,
            chunks + result.watchdog_aborted_sessions);
}

TEST(EngineProperties, StreamingSmoke100kSessionsConstantMemory) {
  std::vector<net::Trace> traces;
  traces.push_back(testutil::flat_trace(2e6, 600.0));
  const std::size_t n = 100000;
  fleet::FleetSpec spec = burst_spec(n, traces);
  spec.arrivals.horizon_s = 300.0;
  // One title: the reorder drain's residency is completion skew, and with
  // every session in flight at once the only skew source left is per-title
  // span differences — a single title retires completions in arrival
  // order, so residency measures the engine's own overhead, not the
  // workload's heterogeneity.
  spec.catalog.num_titles = 1;
  spec.engine = fleet::FleetEngine::kEvent;
  spec.stream_aggregation = true;
  const fleet::FleetResult result = fleet::run_fleet(spec);

  // The whole fleet really ran...
  EXPECT_EQ(result.total_sessions, n);
  EXPECT_EQ(result.engine_stats.peak_in_flight, n);  // all concurrent
  // ...but no per-session record archive was kept: aggregates only, plus
  // a reorder buffer that stays far below the fleet size (its residency
  // is bounded by completion skew, not by n).
  EXPECT_TRUE(result.sessions.empty());
  EXPECT_GT(result.engine_stats.peak_resident_records, 0u);
  EXPECT_LT(result.engine_stats.peak_resident_records, n / 10);
  // Aggregates are present and sane.
  ASSERT_EQ(result.per_class.size(), 1u);
  EXPECT_EQ(result.per_class[0].sessions, n);
  EXPECT_GT(result.per_class[0].mean_all_quality, 0.0);
  EXPECT_GT(result.jain_quality, 0.0);
  EXPECT_LE(result.jain_quality, 1.0);
}

}  // namespace
}  // namespace vbr
