// Differential harness for the two MPC search engines (DESIGN.md §10).
//
// The pruned branch-and-bound engine must be *bit-exact* against the
// exhaustive reference enumerator: same chosen track AND the same searched
// QoE (compared with ==, no tolerance) at every decision point — across
// randomized VBR ladders, every horizon from 1 to 8, robust-mode error
// histories, degraded size knowledge, injected faults, and whole sessions
// serialized field by field. Any divergence, however small, is a bug in
// the pruning argument, not noise.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "abr/mpc.h"
#include "fleet/catalog.h"
#include "net/bandwidth_estimator.h"
#include "net/trace_gen.h"
#include "obs/trace_sink.h"
#include "sim/session.h"
#include "test_util.h"
#include "video/dataset.h"
#include "video/size_provider.h"

namespace vbr {
namespace {

/// A randomized flat-rate ladder with VBR spikes: track rates drawn
/// log-uniform and sorted, plus multiplicative per-chunk spikes so chunk
/// sizes vary within each track the way real VBR encodes do.
video::Video random_ladder(std::mt19937_64& rng, std::size_t tracks,
                           std::size_t chunks) {
  std::uniform_real_distribution<double> log_rate(5.0, 7.0);  // 100k..10M
  std::vector<double> rates(tracks);
  for (double& r : rates) {
    r = std::pow(10.0, log_rate(rng));
  }
  std::sort(rates.begin(), rates.end());
  std::uniform_int_distribution<std::size_t> spike_at(0, chunks - 1);
  std::uniform_real_distribution<double> spike_mult(0.3, 3.5);
  std::vector<std::pair<std::size_t, double>> spikes;
  const std::size_t num_spikes = chunks / 3;
  spikes.reserve(num_spikes);
  for (std::size_t s = 0; s < num_spikes; ++s) {
    spikes.emplace_back(spike_at(rng), spike_mult(rng));
  }
  return testutil::make_flat_video(rates, chunks, 2.0, spikes);
}

/// A synthetic paper-model title (real VBR size tables + quality curves).
const video::Video& synthetic_title() {
  static const video::Video v = video::make_video(
      "diff-h264", video::Genre::kSports, video::Codec::kH264, 2.0, 2.0,
      /*seed=*/0xd1ff, /*duration_s=*/120.0);
  return v;
}

/// Asserts both engines agree (track and searched QoE, exactly) on one
/// decision point. Returns the agreed track for session-style loops.
std::size_t expect_agree(abr::Mpc& pruned, abr::ReferenceMpc& reference,
                         const abr::StreamContext& ctx,
                         const std::string& where) {
  const abr::Decision dp = pruned.decide(ctx);
  const abr::Decision dr = reference.decide(ctx);
  EXPECT_EQ(dp.track, dr.track) << where;
  // Exact equality, deliberately: the pruned engine replicates the
  // reference's float expressions, so even the last ulp must match.
  EXPECT_EQ(pruned.last_best_qoe(), reference.last_best_qoe()) << where;
  return dp.track;
}

TEST(MpcDifferential, RandomLaddersAllHorizonsOneToSix) {
  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> buf(0.0, 40.0);
  std::uniform_real_distribution<double> bw(2e5, 9e6);
  for (int video_seed = 0; video_seed < 6; ++video_seed) {
    const std::size_t tracks = 2 + static_cast<std::size_t>(rng() % 5);
    const std::size_t chunks = 10 + static_cast<std::size_t>(rng() % 30);
    const video::Video v = random_ladder(rng, tracks, chunks);
    for (std::size_t horizon = 1; horizon <= 6; ++horizon) {
      abr::MpcConfig cfg;
      cfg.horizon = horizon;
      abr::Mpc pruned(cfg);
      abr::ReferenceMpc reference(cfg);
      for (int point = 0; point < 25; ++point) {
        const std::size_t chunk =
            static_cast<std::size_t>(rng() % chunks);
        const int prev =
            static_cast<int>(rng() % (tracks + 1)) - 1;  // -1 = startup
        const abr::StreamContext ctx =
            testutil::make_context(v, chunk, buf(rng), bw(rng), prev);
        expect_agree(pruned, reference, ctx,
                     "ladder " + std::to_string(video_seed) + " h" +
                         std::to_string(horizon) + " p" +
                         std::to_string(point));
      }
    }
  }
}

TEST(MpcDifferential, DeepHorizonsOnNarrowLadders) {
  // Horizons 7-8 are reference-exponential (tracks^horizon leaves), so the
  // oracle side caps at 4 tracks to keep the suite fast under sanitizers.
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> buf(0.0, 30.0);
  std::uniform_real_distribution<double> bw(3e5, 6e6);
  for (const std::size_t tracks : {std::size_t{3}, std::size_t{4}}) {
    const video::Video v = random_ladder(rng, tracks, 24);
    for (const std::size_t horizon : {std::size_t{7}, std::size_t{8}}) {
      abr::MpcConfig cfg;
      cfg.horizon = horizon;
      abr::Mpc pruned(cfg);
      abr::ReferenceMpc reference(cfg);
      for (int point = 0; point < 10; ++point) {
        const abr::StreamContext ctx = testutil::make_context(
            v, static_cast<std::size_t>(rng() % 24), buf(rng), bw(rng),
            static_cast<int>(rng() % tracks));
        expect_agree(pruned, reference, ctx,
                     "tracks " + std::to_string(tracks) + " h" +
                         std::to_string(horizon));
      }
    }
  }
}

TEST(MpcDifferential, HorizonTruncationAtVideoEndAndVisibleLimit) {
  const video::Video v = testutil::default_flat_video(20);
  abr::MpcConfig cfg;
  cfg.horizon = 5;
  abr::Mpc pruned(cfg);
  abr::ReferenceMpc reference(cfg);
  // End-of-video truncation: windows of 4, 3, 2, 1, and 0 chunks.
  for (std::size_t chunk = 16; chunk <= 20; ++chunk) {
    const abr::StreamContext ctx =
        testutil::make_context(v, std::min<std::size_t>(chunk, 19), 12.0,
                               2e6, 2);
    expect_agree(pruned, reference, ctx, "tail " + std::to_string(chunk));
  }
  // Manifest-visibility truncation (live / degraded manifests).
  for (const std::size_t visible : {std::size_t{5}, std::size_t{8}}) {
    abr::StreamContext ctx = testutil::make_context(v, 4, 10.0, 1.5e6, 1);
    ctx.visible_chunks = visible;
    expect_agree(pruned, reference, ctx,
                 "visible " + std::to_string(visible));
  }
}

// --- Bound regimes -------------------------------------------------------
// The pruning bound (DESIGN.md §10) is built per decision from a buffer
// upper bound, a rebuffer lower bound and the known previous track. Each
// case below drives one corner of that construction against the oracle.

/// Runs both engines on random ladders at horizons 1..5, on contexts from
/// `make(video, rng)`, with `cfg` for both.
template <typename MakeContext>
void sweep_bound_regime(const abr::MpcConfig& cfg, std::uint64_t seed,
                        const std::string& regime, MakeContext make) {
  std::mt19937_64 rng(seed);
  for (int ladder = 0; ladder < 4; ++ladder) {
    const std::size_t tracks = 2 + static_cast<std::size_t>(rng() % 5);
    const video::Video v = random_ladder(rng, tracks, 16);
    for (std::size_t horizon = 1; horizon <= 5; ++horizon) {
      abr::MpcConfig c = cfg;
      c.horizon = horizon;
      abr::Mpc pruned(c);
      abr::ReferenceMpc reference(c);
      for (int point = 0; point < 12; ++point) {
        expect_agree(pruned, reference, make(v, rng),
                     regime + " ladder " + std::to_string(ladder) + " h" +
                         std::to_string(horizon) + " p" +
                         std::to_string(point));
      }
    }
  }
}

TEST(MpcDifferential, BoundRegimeStartupWithEmptyBuffer) {
  std::uniform_real_distribution<double> bw(1e5, 9e6);
  sweep_bound_regime(abr::mpc_config(), 501, "startup",
                     [&](const video::Video& v, std::mt19937_64& rng) {
                       return testutil::make_context(
                           v, static_cast<std::size_t>(rng() % 8), 0.0,
                           bw(rng), -1);
                     });
}

TEST(MpcDifferential, BoundRegimeBufferAtCap) {
  // The buffer upper bound saturates at max_buffer_s from depth 0 on.
  std::uniform_real_distribution<double> bw(1e5, 9e6);
  for (const double cap : {3.0, 10.0, 100.0}) {
    sweep_bound_regime(
        abr::robust_mpc_config(), 502, "cap " + std::to_string(cap),
        [&](const video::Video& v, std::mt19937_64& rng) {
          abr::StreamContext ctx = testutil::make_context(
              v, static_cast<std::size_t>(rng() % 16), cap, bw(rng),
              static_cast<int>(rng() % v.num_tracks()));
          ctx.max_buffer_s = cap;
          return ctx;
        });
  }
}

TEST(MpcDifferential, BoundRegimeStarvationWithAllStepBoundsNegative) {
  // The smallest chunk of a random ladder is 0.3 x 100 kb/s x 2 s, which
  // takes 20 s or more at 3 kb/s. The bound's buffer is at most 10 s by
  // depth 4, so every step costs at least 80 in rebuffer penalty, more
  // than any ladder's quality: every step bound is negative.
  std::uniform_real_distribution<double> bw(2e3, 3e3);
  sweep_bound_regime(abr::robust_mpc_config(), 503, "starvation",
                     [&](const video::Video& v, std::mt19937_64& rng) {
                       return testutil::make_context(
                           v, static_cast<std::size_t>(rng() % 16),
                           static_cast<double>(rng() % 3),
                           bw(rng), static_cast<int>(rng() % 3) - 1);
                     });
  // Negative step bounds are exactly where an "additions only grow the
  // bound" early exit goes wrong: once partial sums only fall, any partial
  // sum above the incumbent stops the bound short, pruning stalls and the
  // search degenerates to near-enumeration (834 of 1555 interior nodes
  // here, against under 30 with the full chain). On a narrow ladder every
  // track rebuffers for a similar time, so partial sums stay close to the
  // incumbent. Pin the pruning power, not just the answer.
  const video::Video v = testutil::make_flat_video(
      {1e5, 1.1e5, 1.2e5, 1.3e5, 1.4e5, 1.5e5}, 20);
  abr::Mpc pruned(abr::robust_mpc_config());
  abr::ReferenceMpc reference(abr::robust_mpc_config());
  const std::size_t full_tree = 1 + 6 + 36 + 216 + 1296;  // 6 tracks, h5
  for (int prev = -1; prev < 6; ++prev) {
    const abr::StreamContext ctx =
        testutil::make_context(v, 3, 0.0, 5e3, prev);
    expect_agree(pruned, reference, ctx,
                 "starvation prev " + std::to_string(prev));
    EXPECT_GT(pruned.last_nodes_expanded(), 0U);
    EXPECT_LT(pruned.last_nodes_expanded(), full_tree / 20)
        << "starvation prev " << prev;
  }
  EXPECT_EQ(reference.last_nodes_expanded(), 0U);
}

TEST(MpcDifferential, FleetShapedSweepPinsPruningPower) {
  // The decision mix of a vod-coupled fleet's RobustMPC sessions: a 60 s
  // catalog title (30 two-second chunks), buffers of 2-22 s, estimates
  // log-spaced over 0.6-7.5 Mb/s and every chunk, the clipped tail
  // included — the ranges of the decision suite's fleet sweep. 11 buffers,
  // 13 bandwidths and 30 chunks are pairwise coprime in count, so the
  // 4290 points cover every (chunk, buffer, bandwidth) combination once.
  const fleet::Catalog catalog = [] {
    fleet::CatalogConfig cfg;
    cfg.num_titles = 1;
    cfg.title_duration_s = 60.0;
    cfg.chunk_duration_s = 2.0;
    cfg.seed = 42;
    return fleet::Catalog(cfg);
  }();
  const video::Video& v = catalog.title(0);
  ASSERT_EQ(v.num_chunks(), 30U);
  abr::Mpc pruned(abr::robust_mpc_config());
  abr::ReferenceMpc reference(abr::robust_mpc_config());
  const std::size_t points = 11 * 13 * 30;
  std::size_t nodes = 0;
  for (std::size_t i = 0; i < points; ++i) {
    const abr::StreamContext ctx = testutil::make_context(
        v, (i * 7) % v.num_chunks(), 2.0 + 2.0 * static_cast<double>(i % 11),
        0.6e6 * std::pow(12.5, static_cast<double>(i % 13) / 12.0),
        static_cast<int>(i % v.num_tracks()));
    const std::size_t track =
        expect_agree(pruned, reference, ctx, "fleet p" + std::to_string(i));
    nodes += pruned.last_nodes_expanded();
    // Identical observations keep both robust discounts in lockstep.
    pruned.on_chunk_downloaded(ctx, track, 0.9);
    reference.on_chunk_downloaded(ctx, track, 0.9);
  }
  // Pruning power: best-first at every depth, with the incumbent kept in
  // the reference's (QoE, smallest first track) order, expands 55.6 nodes
  // per decision here; visiting first tracks in ascending order, as a
  // strict-improvement incumbent must, expands 85.5.
  const double mean_nodes =
      static_cast<double>(nodes) / static_cast<double>(points);
  EXPECT_LT(mean_nodes, 70.0) << "mean interior nodes per decision";
}

TEST(MpcDifferential, BoundRegimeZeroLambdaAndZeroMu) {
  std::uniform_real_distribution<double> buf(0.0, 30.0);
  std::uniform_real_distribution<double> bw(1e5, 9e6);
  const auto make = [&](const video::Video& v, std::mt19937_64& rng) {
    return testutil::make_context(
        v, static_cast<std::size_t>(rng() % 16), buf(rng), bw(rng),
        static_cast<int>(rng() % (v.num_tracks() + 1)) - 1);
  };
  abr::MpcConfig no_smooth = abr::robust_mpc_config();
  no_smooth.lambda = 0.0;
  sweep_bound_regime(no_smooth, 504, "lambda 0", make);
  abr::MpcConfig no_rebuffer = abr::robust_mpc_config();
  no_rebuffer.mu_rebuffer = 0.0;
  sweep_bound_regime(no_rebuffer, 505, "mu 0", make);
  abr::MpcConfig neither = abr::mpc_config();
  neither.lambda = 0.0;
  neither.mu_rebuffer = 0.0;
  sweep_bound_regime(neither, 506, "lambda 0 mu 0", make);
}

TEST(MpcDifferential, BoundRegimeExactTiesOnDyadicLadder) {
  // Video requires strictly ascending track bitrates, so ties come from
  // plans instead: with dyadic qualities (0.5, 1, 2, 4 Mbps) every sum and
  // smoothness difference is exact, so reordered plans tie to the last bit
  // and only the smallest-first-track tie-break picks the winner.
  const video::Video v =
      testutil::make_flat_video({5e5, 1e6, 2e6, 4e6}, 16);
  {
    // Hand-built tie: from a 4 s buffer at 8e6 / 3.5 b/s, the top chunk
    // takes 3.5 s, so two in a row rebuffer, but (2, 3) and (3, 2) both
    // score exactly 2 + 4. The reference keeps the first, track 2.
    abr::MpcConfig cfg;
    cfg.horizon = 2;
    cfg.lambda = 0.0;
    abr::Mpc pruned(cfg);
    abr::ReferenceMpc reference(cfg);
    const abr::StreamContext ctx =
        testutil::make_context(v, 5, 4.0, 8e6 / 3.5, -1);
    EXPECT_EQ(expect_agree(pruned, reference, ctx, "hand-built tie"), 2U);
    EXPECT_EQ(reference.last_best_qoe(), 6.0);
  }
  std::mt19937_64 rng(507);
  std::uniform_real_distribution<double> buf(0.0, 12.0);
  std::uniform_real_distribution<double> bw(1e6, 8e6);
  for (std::size_t horizon = 1; horizon <= 5; ++horizon) {
    for (const double lambda : {0.0, 1.0}) {
      abr::MpcConfig cfg;
      cfg.horizon = horizon;
      cfg.lambda = lambda;
      abr::Mpc pruned(cfg);
      abr::ReferenceMpc reference(cfg);
      for (int point = 0; point < 20; ++point) {
        const abr::StreamContext ctx = testutil::make_context(
            v, static_cast<std::size_t>(rng() % 16), buf(rng), bw(rng),
            static_cast<int>(rng() % 5) - 1);
        expect_agree(pruned, reference, ctx,
                     "dyadic h" + std::to_string(horizon) + " lambda " +
                         std::to_string(lambda) + " p" +
                         std::to_string(point));
      }
    }
  }
}

TEST(MpcDifferential, BoundRegimeVisibleWindowOfOneAndTwoLevels) {
  // A manifest that announces only one or two chunks past next_chunk
  // leaves no deep levels (1) or only the track-keyed next step (2).
  std::uniform_real_distribution<double> buf(0.0, 20.0);
  std::uniform_real_distribution<double> bw(1e5, 9e6);
  for (const std::size_t window : {std::size_t{1}, std::size_t{2}}) {
    sweep_bound_regime(
        abr::robust_mpc_config(), 508 + window,
        "visible +" + std::to_string(window),
        [&](const video::Video& v, std::mt19937_64& rng) {
          abr::StreamContext ctx = testutil::make_context(
              v, static_cast<std::size_t>(rng() % 12), buf(rng), bw(rng),
              static_cast<int>(rng() % (v.num_tracks() + 1)) - 1);
          ctx.visible_chunks = ctx.next_chunk + window;
          return ctx;
        });
  }
}

TEST(MpcDifferential, RobustModeSharesErrorHistoryInLockstep) {
  const video::Video& v = synthetic_title();
  abr::MpcConfig cfg = abr::robust_mpc_config();
  abr::Mpc pruned(cfg);
  abr::ReferenceMpc reference(cfg);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> buf(2.0, 25.0);
  std::uniform_real_distribution<double> bw(4e5, 5e6);
  std::uniform_real_distribution<double> dl(0.2, 3.0);
  for (std::size_t i = 0; i + 1 < v.num_chunks(); ++i) {
    const abr::StreamContext ctx = testutil::make_context(
        v, i, buf(rng), bw(rng), i == 0 ? -1 : static_cast<int>(i % 3));
    const std::size_t track =
        expect_agree(pruned, reference, ctx, "robust step " +
                                                 std::to_string(i));
    // Identical observations keep both error windows — and therefore the
    // robust bandwidth discount — in lockstep.
    const double download_s = dl(rng);
    pruned.on_chunk_downloaded(ctx, track, download_s);
    reference.on_chunk_downloaded(ctx, track, download_s);
  }
}

TEST(MpcDifferential, AgreesUnderEverySizeKnowledgeMode) {
  const video::Video& v = synthetic_title();
  std::vector<std::unique_ptr<video::ChunkSizeProvider>> providers;
  providers.push_back(std::make_unique<video::OracleSizeProvider>());
  providers.push_back(std::make_unique<video::DeclaredRateSizeProvider>());
  providers.push_back(std::make_unique<video::NoisySizeProvider>(0.3, 11));
  providers.push_back(std::make_unique<video::PartialSizeProvider>(0.4, 13));
  providers.push_back(std::make_unique<video::PartialSizeProvider>(
      0.1, 17, /*known_prefix_chunks=*/20));
  providers.push_back(std::make_unique<video::OnlineCorrectedSizeProvider>(
      std::make_unique<video::DeclaredRateSizeProvider>(), 0.3));
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> buf(0.0, 30.0);
  std::uniform_real_distribution<double> bw(3e5, 7e6);
  for (const std::unique_ptr<video::ChunkSizeProvider>& provider :
       providers) {
    abr::Mpc pruned(abr::mpc_config());
    abr::ReferenceMpc reference(abr::mpc_config());
    for (int point = 0; point < 30; ++point) {
      abr::StreamContext ctx = testutil::make_context(
          v, static_cast<std::size_t>(rng() % v.num_chunks()), buf(rng),
          bw(rng), static_cast<int>(rng() % v.num_tracks()));
      ctx.sizes = provider.get();
      const std::size_t track = expect_agree(
          pruned, reference, ctx, provider->name() + " p" +
                                      std::to_string(point));
      // Feed the correcting decorator so its EWMA state evolves (and stays
      // shared — both engines read the same provider instance).
      provider->on_actual_size(v, track, ctx.next_chunk,
                               v.chunk_size_bits(track, ctx.next_chunk));
    }
  }
}

/// Serializes every field of every ChunkRecord (plus session totals) so two
/// runs can be compared byte-for-byte.
std::string serialize_session(const sim::SessionResult& r) {
  std::ostringstream out;
  out.precision(17);
  for (const sim::ChunkRecord& c : r.chunks) {
    out << c.index << ' ' << c.track << ' ' << c.size_bits << ' '
        << c.download_s << ' ' << c.stall_s << ' ' << c.wait_s << ' '
        << c.buffer_after_s << ' ' << c.attempts << ' '
        << c.connect_failures << ' ' << c.mid_drops << ' ' << c.timeouts
        << ' ' << c.backoff_wait_s << ' ' << c.resumed_bits << ' '
        << c.wasted_bits << ' ' << c.downgraded << ' ' << c.skipped << ' '
        << c.abandoned_higher << ' ' << c.edge_hit << '\n';
  }
  out << r.total_rebuffer_s << ' ' << r.startup_delay_s << ' '
      << r.total_bits << ' ' << r.end_time_s << '\n';
  return out.str();
}

sim::SessionResult run_one(const video::Video& v, const net::Trace& trace,
                           abr::AbrScheme& scheme,
                           const sim::SessionConfig& config,
                           obs::MemoryTraceSink* sink) {
  net::HarmonicMeanEstimator estimator(5);
  sim::SessionConfig sc = config;
  sc.trace = sink;
  return sim::run_session(v, trace, scheme, estimator, sc);
}

TEST(MpcDifferential, FullSessionsByteIdenticalIncludingTelemetry) {
  const video::Video& v = synthetic_title();
  const std::vector<net::Trace> traces = {
      testutil::flat_trace(2.5e6),
      net::generate_lte_trace(3),
  };
  for (const bool robust : {false, true}) {
    for (const net::Trace& trace : traces) {
      abr::MpcConfig cfg =
          robust ? abr::robust_mpc_config() : abr::mpc_config();
      abr::Mpc pruned(cfg);
      abr::ReferenceMpc reference(cfg);
      sim::SessionConfig sc;
      obs::MemoryTraceSink sink_p;
      obs::MemoryTraceSink sink_r;
      const std::string a =
          serialize_session(run_one(v, trace, pruned, sc, &sink_p));
      const std::string b =
          serialize_session(run_one(v, trace, reference, sc, &sink_r));
      EXPECT_EQ(a, b) << (robust ? "RobustMPC " : "MPC ") << trace.name();
      // The decision stream — scheme name included — must also be
      // byte-identical, so dashboards can't tell the engines apart.
      ASSERT_EQ(sink_p.events().size(), sink_r.events().size());
      for (std::size_t i = 0; i < sink_p.events().size(); ++i) {
        EXPECT_EQ(obs::to_jsonl(sink_p.events()[i]),
                  obs::to_jsonl(sink_r.events()[i]));
      }
    }
  }
}

TEST(MpcDifferential, FaultySessionsByteIdentical) {
  const video::Video& v = synthetic_title();
  const net::Trace trace = net::generate_lte_trace(5);
  sim::SessionConfig sc;
  sc.fault.connect_failure_prob = 0.08;
  sc.fault.mid_drop_prob = 0.05;
  sc.fault.timeout_prob = 0.04;
  sc.fault.seed = 77;
  sc.retry.resume_partial = true;
  for (const bool robust : {false, true}) {
    abr::MpcConfig cfg =
        robust ? abr::robust_mpc_config() : abr::mpc_config();
    abr::Mpc pruned(cfg);
    abr::ReferenceMpc reference(cfg);
    const std::string a =
        serialize_session(run_one(v, trace, pruned, sc, nullptr));
    const std::string b =
        serialize_session(run_one(v, trace, reference, sc, nullptr));
    EXPECT_EQ(a, b) << (robust ? "RobustMPC" : "MPC");
  }
}

TEST(MpcDifferential, ScratchReuseDoesNotLeakAcrossBackToBackSessions) {
  // The pruned engine keeps arena scratch between decisions; run_session's
  // reset preamble must be the only state barrier a session needs. Running
  // two dissimilar sessions back-to-back on ONE instance must reproduce
  // fresh-instance runs byte-for-byte — on both engines, so the contract
  // holds regardless of which search is selected.
  const video::Video& v = synthetic_title();
  const video::Video small = testutil::default_flat_video(15);
  const net::Trace lte = net::generate_lte_trace(9);
  const net::Trace flat = testutil::flat_trace(1.8e6);
  sim::SessionConfig sc;
  for (const bool reference_engine : {false, true}) {
    abr::MpcConfig cfg = abr::robust_mpc_config();
    cfg.reference_search = reference_engine;
    abr::Mpc reused(cfg);
    // Dissimilar back-to-back sessions: different video (track/chunk
    // counts, so the scratch arenas get resized) and different trace.
    const std::string first_reused =
        serialize_session(run_one(v, lte, reused, sc, nullptr));
    const std::string second_reused =
        serialize_session(run_one(small, flat, reused, sc, nullptr));
    abr::Mpc fresh_a(cfg);
    abr::Mpc fresh_b(cfg);
    const std::string first_fresh =
        serialize_session(run_one(v, lte, fresh_a, sc, nullptr));
    const std::string second_fresh =
        serialize_session(run_one(small, flat, fresh_b, sc, nullptr));
    EXPECT_EQ(first_reused, first_fresh)
        << (reference_engine ? "reference" : "pruned");
    EXPECT_EQ(second_reused, second_fresh)
        << (reference_engine ? "reference" : "pruned");
  }
}

TEST(MpcDifferential, ScratchReuseSurvivesFaultySessionInBetween) {
  // A faulty session exercises retry paths and mid-session resets; the
  // session after it must still match a fresh instance exactly.
  const video::Video& v = synthetic_title();
  const net::Trace trace = net::generate_lte_trace(11);
  sim::SessionConfig faulty;
  faulty.fault.connect_failure_prob = 0.1;
  faulty.fault.mid_drop_prob = 0.06;
  faulty.fault.seed = 31;
  faulty.retry.resume_partial = true;
  sim::SessionConfig clean;
  abr::Mpc reused(abr::robust_mpc_config());
  (void)run_one(v, trace, reused, faulty, nullptr);
  const std::string after_faulty =
      serialize_session(run_one(v, trace, reused, clean, nullptr));
  abr::Mpc fresh(abr::robust_mpc_config());
  const std::string from_fresh =
      serialize_session(run_one(v, trace, fresh, clean, nullptr));
  EXPECT_EQ(after_faulty, from_fresh);
}

TEST(MpcDifferential, ReferenceFlagAndAccessorsExposed) {
  abr::Mpc pruned(abr::mpc_config());
  abr::ReferenceMpc reference(abr::robust_mpc_config());
  EXPECT_FALSE(pruned.config().reference_search);
  EXPECT_TRUE(reference.config().reference_search);
  // Same public name: the engine choice is invisible to telemetry.
  EXPECT_EQ(pruned.name(), "MPC");
  EXPECT_EQ(reference.name(), "RobustMPC");
  EXPECT_EQ(pruned.last_best_qoe(), 0.0);  // before any decision
}

}  // namespace
}  // namespace vbr
