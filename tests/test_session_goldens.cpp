// Golden pins for the VoD, live and multi-client session drivers.
//
// Each case runs one driver configuration and folds everything it produced
// into one FNV-1a-64 digest: the canonical JSONL telemetry stream, every
// SessionResult / LiveSessionResult scalar and chunk-record field (shortest
// round-trip doubles), and the metrics registry's deterministic
// fingerprint. A change to a driver's stepping, waiting, retry or
// bookkeeping arithmetic moves at least one digest. On a mismatch the test
// prints the digest it got, so an intended behaviour change re-pins by
// copying those values after reviewing why they moved.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "abr/bola.h"
#include "abr/mpc.h"
#include "core/cava.h"
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

/// Canonical byte form of the values a driver produced.
class Canon {
 public:
  void num(double x) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, x);
    out_.append(buf, res.ptr);
    out_ += ',';
  }
  void num(std::size_t x) { num(static_cast<double>(x)); }
  void flag(bool b) { out_ += b ? "1," : "0,"; }
  void line(const std::string& s) {
    out_ += s;
    out_ += '\n';
  }

  void session(const sim::SessionResult& r) {
    num(r.startup_delay_s);
    num(r.total_rebuffer_s);
    num(r.total_bits);
    num(r.end_time_s);
    flag(r.watchdog_aborted);
    for (const sim::ChunkRecord& c : r.chunks) {
      num(c.index);
      num(c.track);
      num(c.size_bits);
      num(c.download_start_s);
      num(c.download_s);
      num(c.wait_s);
      num(c.stall_s);
      num(c.buffer_after_s);
      num(c.quality.psnr_db);
      num(c.quality.ssim);
      num(c.quality.vmaf_tv);
      num(c.quality.vmaf_phone);
      flag(c.abandoned_higher);
      num(c.wasted_bits);
      num(c.attempts);
      num(c.connect_failures);
      num(c.mid_drops);
      num(c.timeouts);
      num(c.backoff_wait_s);
      num(c.resumed_bits);
      flag(c.downgraded);
      flag(c.skipped);
      line("");
    }
  }

  void telemetry(const obs::MemoryTraceSink& sink,
                 const obs::MetricsRegistry& reg) {
    for (const obs::DecisionEvent& ev : sink.events()) {
      line(obs::to_jsonl(ev));
    }
    line(reg.deterministic_fingerprint());
  }

  [[nodiscard]] std::string digest() const {
    return testutil::fnv1a64_hex(out_);
  }

 private:
  std::string out_;
};

std::unique_ptr<abr::AbrScheme> make_scheme(const std::string& name) {
  if (name == "Fixed5") {
    return std::make_unique<abr::FixedTrackScheme>(5);
  }
  if (name == "CAVA") {
    return core::make_cava_p123();
  }
  if (name == "BOLA-E") {
    return std::make_unique<abr::Bola>();
  }
  abr::MpcConfig mpc;
  mpc.robust = true;
  return std::make_unique<abr::Mpc>(mpc);
}

/// Faults of every kind, frequent enough that retries, byte-range resume
/// and downgrades all fire within one session.
net::FaultConfig hostile_faults(std::uint64_t seed) {
  net::FaultConfig f;
  f.connect_failure_prob = 0.08;
  f.mid_drop_prob = 0.12;
  f.timeout_prob = 0.05;
  f.seed = seed;
  return f;
}

/// A synthetic LTE trace with its rate scaled: fast enough that buffers
/// reach their caps and the gates bind, still bursty enough to stall.
net::Trace scaled_lte_trace(std::uint64_t seed, double scale) {
  std::vector<double> samples = net::generate_lte_trace(seed).samples_bps();
  for (double& s : samples) {
    s *= scale;
  }
  return net::Trace("lte-scaled", 1.0, std::move(samples));
}

// ------------------------------------------------------------------- vod --

/// A stateless delivery path: a third of the objects come from the origin
/// at 60% of the path rate behind 80 ms, the rest are edge hits behind 5 ms.
/// The object key includes the track, so abandonment and downgrade re-draw
/// a different plan.
class SplitPathHook final : public sim::DownloadPathHook {
 public:
  sim::FetchPlan on_chunk_request(const video::Video&, std::size_t track,
                                  std::size_t index, double,
                                  double) override {
    sim::FetchPlan plan;
    if ((index + track) % 3 == 0) {
      plan.rate_scale = 0.6;
      plan.added_latency_s = 0.08;
      plan.tier = 2;
    } else {
      plan.added_latency_s = 0.005;
      plan.edge_hit = true;
    }
    return plan;
  }
};

struct VodCase {
  const char* scheme;
  double rtt_s;
  bool faults;
  bool abandonment;
  bool hook;
  std::size_t max_attempts;
  std::uint64_t watchdog_decisions;
  const char* pin;
};

std::string vod_name(const VodCase& c) {
  return std::string(c.scheme) + " rtt " + std::to_string(c.rtt_s) +
         (c.faults ? " faults" : " clean") +
         (c.abandonment ? " abandon" : "") + (c.hook ? " hook" : "") +
         " attempts " + std::to_string(c.max_attempts) +
         (c.watchdog_decisions > 0
              ? " watchdog " + std::to_string(c.watchdog_decisions)
              : "");
}

// 120 two-second chunks over an LTE trace at 1.5 times its rate: slow
// enough that the top track stalls and abandonment fires, fast enough that
// the adaptive schemes climb. Between them the cases reach every branch of
// the fetch ladder: retry, byte-range resume, downgrade, skip, RTT lead,
// abandonment, a delivery-path plan re-drawn on a track switch, and both
// watchdog budgets.
const VodCase kVodCases[] = {
    {"CAVA", 0.0, false, false, false, 3, 0, "b16a445fc095f58e"},
    {"CAVA", 0.0, true, false, false, 3, 0, "4773b6d69541733a"},
    {"CAVA", 0.05, true, false, false, 3, 0, "e49913aec9aa7503"},
    {"BOLA-E", 0.05, true, false, true, 3, 0, "e8f36be4c5dfb531"},
    {"RobustMPC", 0.05, false, true, true, 3, 0, "3585f93f74b77c7c"},
    {"Fixed5", 0.0, false, true, false, 3, 0, "74581c01f085eaef"},
    {"Fixed5", 0.05, true, true, true, 3, 0, "bd68161db68c7b7f"},
    {"RobustMPC", 0.05, true, false, true, 2, 0, "07798cbc95452baa"},
    {"CAVA", 0.05, true, false, true, 3, 40, "4ffbf9b9cb4eea40"},
};

struct VodBranches {
  metrics::FaultSummary faults;
  std::size_t abandoned = 0;
  std::size_t origin_fetches = 0;
  std::size_t aborted = 0;
};

std::string run_vod_case(const VodCase& c, VodBranches* seen) {
  const video::Video v =
      video::make_video("vod-golden", video::Genre::kSports,
                        video::Codec::kH264, 2.0, 2.0, 17, 240.0);
  const net::Trace t = scaled_lte_trace(13, 1.5);
  auto scheme = make_scheme(c.scheme);
  net::HarmonicMeanEstimator est(5);
  SplitPathHook hook;
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::SessionConfig cfg;
  cfg.request_rtt_s = c.rtt_s;
  if (c.faults) {
    cfg.fault = hostile_faults(47);
    cfg.retry.resume_partial = true;
    cfg.retry.downgrade_on_failure = true;
    cfg.retry.max_attempts = c.max_attempts;
  }
  cfg.enable_abandonment = c.abandonment;
  if (c.hook) {
    cfg.download_hook = &hook;
  }
  cfg.watchdog_max_decisions = c.watchdog_decisions;
  cfg.trace = &sink;
  cfg.metrics = &reg;
  cfg.session_id = 3;
  const sim::SessionResult r = sim::run_session(v, t, *scheme, est, cfg);

  const metrics::FaultSummary fs = r.fault_summary();
  seen->faults.skipped += fs.skipped;
  seen->faults.downgraded += fs.downgraded;
  seen->faults.connect_failures += fs.connect_failures;
  seen->faults.mid_drops += fs.mid_drops;
  seen->faults.timeouts += fs.timeouts;
  seen->faults.resumed_mb += fs.resumed_mb;
  for (const sim::ChunkRecord& ch : r.chunks) {
    seen->abandoned += ch.abandoned_higher ? 1 : 0;
    seen->origin_fetches += ch.delivery_tier == 2 ? 1 : 0;
  }
  seen->aborted += r.watchdog_aborted ? 1 : 0;

  Canon canon;
  canon.telemetry(sink, reg);
  canon.session(r);
  return canon.digest();
}

TEST(SessionGolden, VodDriverMatchesPins) {
  VodBranches seen;
  for (const VodCase& c : kVodCases) {
    EXPECT_EQ(run_vod_case(c, &seen), c.pin) << vod_name(c);
  }
  // The cases reach the ladder branches their names promise.
  EXPECT_GT(seen.faults.connect_failures, 0u);
  EXPECT_GT(seen.faults.mid_drops, 0u);
  EXPECT_GT(seen.faults.timeouts, 0u);
  EXPECT_GT(seen.faults.resumed_mb, 0.0);
  EXPECT_GT(seen.faults.downgraded, 0u);
  EXPECT_GT(seen.faults.skipped, 0u);
  EXPECT_GT(seen.abandoned, 0u);
  EXPECT_GT(seen.origin_fetches, 0u);
  EXPECT_EQ(seen.aborted, 1u);
}

// ------------------------------------------------------------------ live --

struct LiveCase {
  const char* scheme;
  double join_latency_s;
  double max_buffer_s;
  bool faults;
  const char* pin;
};

std::string live_name(const LiveCase& c) {
  return std::string(c.scheme) + " join " +
         std::to_string(static_cast<int>(c.join_latency_s)) + " buffer " +
         std::to_string(static_cast<int>(c.max_buffer_s)) +
         (c.faults ? " faults" : " clean");
}

// 100 two-second chunks over an LTE trace at six times its rate. At join
// 30 s the player idles at the live edge; at join 100 s it fills toward the
// 100 s cap and the pre-decision room gate binds, and with a 30 s cap that
// gate binds on most chunks. The fault cases also stall.
const LiveCase kLiveCases[] = {
    {"CAVA", 30.0, 100.0, false, "7cc8d4bfcbb80f25"},
    {"CAVA", 30.0, 100.0, true, "8eec8b990a475dc8"},
    {"CAVA", 100.0, 100.0, false, "4d54c09b85af6c0a"},
    {"CAVA", 100.0, 100.0, true, "541814545d0244f8"},
    {"CAVA", 100.0, 30.0, false, "c2b2e204a1d5fdd1"},
    {"CAVA", 100.0, 30.0, true, "75c0b60b325c8059"},
    {"BOLA-E", 30.0, 100.0, false, "e39f1ff7752bd341"},
    {"BOLA-E", 30.0, 100.0, true, "6193908f3be62f4b"},
    {"BOLA-E", 100.0, 100.0, false, "33bda8fb85c27094"},
    {"BOLA-E", 100.0, 100.0, true, "5a50c0dd3dd7aa84"},
    {"BOLA-E", 100.0, 30.0, false, "c07e88203053ef8f"},
    {"BOLA-E", 100.0, 30.0, true, "27f067d9e8ddfd77"},
    {"RobustMPC", 30.0, 100.0, false, "60e75f1da0dca458"},
    {"RobustMPC", 30.0, 100.0, true, "9805cc9152f39d78"},
    {"RobustMPC", 100.0, 100.0, false, "ec58b7ff381ef2ce"},
    {"RobustMPC", 100.0, 100.0, true, "a280faae0c24c816"},
    {"RobustMPC", 100.0, 30.0, false, "1fc76ab90f39e40d"},
    {"RobustMPC", 100.0, 30.0, true, "e0fdf073b388901d"},
};

std::string run_live_case(const LiveCase& c, metrics::FaultSummary* faults) {
  const video::Video v =
      video::make_video("live-golden", video::Genre::kSports,
                        video::Codec::kH264, 2.0, 2.0, 11, 200.0);
  const net::Trace t = scaled_lte_trace(5, 6.0);
  auto scheme = make_scheme(c.scheme);
  net::HarmonicMeanEstimator est(5);
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::LiveSessionConfig cfg;
  cfg.join_latency_s = c.join_latency_s;
  cfg.max_buffer_s = c.max_buffer_s;
  if (c.faults) {
    cfg.fault = hostile_faults(23);
    cfg.retry.resume_partial = true;
    cfg.retry.downgrade_on_failure = true;
  }
  cfg.trace = &sink;
  cfg.metrics = &reg;
  cfg.session_id = 7;
  const sim::LiveSessionResult r =
      sim::run_live_session(v, t, *scheme, est, cfg);
  *faults = r.session.fault_summary();

  Canon canon;
  canon.telemetry(sink, reg);
  canon.session(r.session);
  canon.num(r.mean_latency_s);
  canon.num(r.max_latency_s);
  canon.num(r.edge_wait_s);
  return canon.digest();
}

TEST(SessionGolden, LiveDriverMatchesPins) {
  std::size_t downgraded = 0;
  double resumed_mb = 0.0;
  for (const LiveCase& c : kLiveCases) {
    metrics::FaultSummary fs;
    EXPECT_EQ(run_live_case(c, &fs), c.pin) << live_name(c);
    downgraded += fs.downgraded;
    resumed_mb += fs.resumed_mb;
  }
  // The fault cases exercise the paths their name promises.
  EXPECT_GT(downgraded, 0u);
  EXPECT_GT(resumed_mb, 0.0);
}

// ---------------------------------------------------------- multi-client --

enum class Mix {
  kTwoCava,
  kCavaBolaStaggered,
  kThreeWatchDurations,
  kTwoBola,
};

struct MultiCase {
  Mix mix;
  double rtt_s;
  bool faults;
  double max_buffer_s;
  const char* pin;
};

std::string multi_name(const MultiCase& c) {
  const char* mix = c.mix == Mix::kTwoCava               ? "2xCAVA"
                    : c.mix == Mix::kCavaBolaStaggered   ? "CAVA+BOLA-E@5s"
                    : c.mix == Mix::kThreeWatchDurations ? "3 watch durations"
                                                         : "2xBOLA-E";
  return std::string(mix) + " rtt " + std::to_string(c.rtt_s) +
         (c.faults ? " faults" : " clean") + " cap " +
         std::to_string(static_cast<int>(c.max_buffer_s));
}

// 120 two-second chunks per client over an LTE trace at three times its
// rate, with a 40 s player cap: room waits, BOLA-E pauses, stalls, skips and
// downgrades all occur across the cases. BOLA-E pauses once its buffer
// passes its 30 s target, and a delivery lifts the buffer at most one chunk
// above it; under a 31 s cap the room gate binds on those same decisions,
// so the 2xBOLA-E cases pin how a scheme wait and a room wait combine.
const MultiCase kMultiCases[] = {
    {Mix::kTwoCava, 0.0, false, 40.0, "ec6dd75f8b060ebb"},
    {Mix::kTwoCava, 0.0, true, 40.0, "0d4628f7029e88c4"},
    {Mix::kTwoCava, 0.05, false, 40.0, "0b0c76afa97f5a57"},
    {Mix::kTwoCava, 0.05, true, 40.0, "994b741c91094f14"},
    {Mix::kCavaBolaStaggered, 0.0, false, 40.0, "10f095afacbefdb3"},
    {Mix::kCavaBolaStaggered, 0.0, true, 40.0, "8a6c8197122a520f"},
    {Mix::kCavaBolaStaggered, 0.05, false, 40.0, "704d16a5848b677d"},
    {Mix::kCavaBolaStaggered, 0.05, true, 40.0, "eeda21d85ea57b87"},
    {Mix::kThreeWatchDurations, 0.0, false, 40.0, "941db19268b70933"},
    {Mix::kThreeWatchDurations, 0.0, true, 40.0, "0531fbbd0dfbb7a7"},
    {Mix::kThreeWatchDurations, 0.05, false, 40.0, "84d62d931915f1e7"},
    {Mix::kThreeWatchDurations, 0.05, true, 40.0, "9326a2cfbe323bc1"},
    {Mix::kTwoBola, 0.0, false, 31.0, "43e388fcfe71006f"},
    {Mix::kTwoBola, 0.05, true, 31.0, "c6fc88e04eaa67dc"},
};

sim::ClientSpec client(const video::Video& v, const std::string& scheme,
                       double offset_s = 0.0, double watch_s = 0.0) {
  sim::ClientSpec spec;
  spec.video = &v;
  spec.scheme = make_scheme(scheme);
  spec.estimator = std::make_unique<net::HarmonicMeanEstimator>(5);
  spec.start_offset_s = offset_s;
  spec.watch_duration_s = watch_s;
  return spec;
}

std::string run_multi_case(const MultiCase& c,
                           metrics::FaultSummary* faults) {
  const video::Video v =
      video::make_video("multi-golden", video::Genre::kAnimation,
                        video::Codec::kH264, 2.0, 2.0, 42, 240.0);
  const net::Trace t = scaled_lte_trace(9, 3.0);
  std::vector<sim::ClientSpec> clients;
  switch (c.mix) {
    case Mix::kTwoCava:
      clients.push_back(client(v, "CAVA"));
      clients.push_back(client(v, "CAVA"));
      break;
    case Mix::kCavaBolaStaggered:
      clients.push_back(client(v, "CAVA"));
      clients.push_back(client(v, "BOLA-E", 5.0));
      break;
    case Mix::kThreeWatchDurations:
      clients.push_back(client(v, "CAVA"));
      clients.push_back(client(v, "BOLA-E", 0.0, 40.0));
      clients.push_back(client(v, "RobustMPC", 2.0, 90.0));
      break;
    case Mix::kTwoBola:
      clients.push_back(client(v, "BOLA-E"));
      clients.push_back(client(v, "BOLA-E"));
      break;
  }
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry reg;
  sim::SessionConfig cfg;
  cfg.request_rtt_s = c.rtt_s;
  cfg.max_buffer_s = c.max_buffer_s;
  if (c.faults) {
    cfg.fault = hostile_faults(31);
    cfg.retry.resume_partial = true;
  }
  cfg.trace = &sink;
  cfg.metrics = &reg;
  cfg.session_id = 40;
  const sim::MultiClientResult r =
      sim::run_multi_client(t, std::move(clients), cfg);

  Canon canon;
  canon.telemetry(sink, reg);
  for (const sim::SessionResult& s : r.sessions) {
    canon.session(s);
    const metrics::FaultSummary fs = s.fault_summary();
    faults->downgraded += fs.downgraded;
    faults->resumed_mb += fs.resumed_mb;
  }
  return canon.digest();
}

TEST(SessionGolden, MultiClientDriverMatchesPins) {
  metrics::FaultSummary fs;
  for (const MultiCase& c : kMultiCases) {
    EXPECT_EQ(run_multi_case(c, &fs), c.pin) << multi_name(c);
  }
  EXPECT_GT(fs.downgraded, 0u);
  EXPECT_GT(fs.resumed_mb, 0.0);
}

}  // namespace
