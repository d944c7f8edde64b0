// The telemetry fold (obs::fold_traces) and the sink seam it uses
// (TraceSink::encode / write_encoded): FNV-1a-64 pins of the JSONL a
// 1-thread fleet and a 1-thread run_experiment write through JsonlTraceSink
// (to a stream) and DurableJsonlTraceSink (to a file); the same bytes at 2
// and 8 threads, after a kill and resume, and through a wrapper sink that
// only forwards on_decision; failures that surface from the fold's threads;
// and the fold's run-stats timer.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "abr/bba.h"
#include "core/cava.h"
#include "fleet/arrivals.h"
#include "fleet/checkpoint.h"
#include "fleet/fleet.h"
#include "net/trace_gen.h"
#include "obs/fold.h"
#include "obs/jsonl_io.h"
#include "obs/trace_sink.h"
#include "sim/experiment.h"
#include "test_util.h"
#include "video/dataset.h"

namespace vbr {
namespace {

std::vector<net::Trace> two_traces() {
  std::vector<net::Trace> traces;
  traces.push_back(testutil::flat_trace(4e6, 900.0));
  traces.push_back(testutil::flat_trace(1.5e6, 900.0));
  return traces;
}

fleet::FleetClientClass arm(const std::string& label,
                            sim::SchemeFactory make) {
  fleet::FleetClientClass c;
  c.label = label;
  c.make_scheme = make;
  return c;
}

/// A 2-arm CAVA vs BBA A/B over ~120 sessions on the flat edge cache:
/// its events carry the "cava", "edge" and "arm" blocks.
fleet::FleetSpec ab_spec(const std::vector<net::Trace>& traces) {
  fleet::FleetSpec spec;
  spec.catalog.num_titles = 6;
  spec.catalog.title_duration_s = 40.0;
  spec.arrivals.rate_per_s = 0.3;
  spec.arrivals.horizon_s = 400.0;
  spec.arrivals.max_sessions = 120;
  spec.experiment.arms.push_back(
      arm("cava", [] { return core::make_cava_p123(); }));
  spec.experiment.arms.push_back(
      arm("bba", [] { return std::make_unique<abr::Bba>(); }));
  spec.traces = traces;
  spec.cache.capacity_bits = 1.2e9;
  spec.watch.full_watch_prob = 0.5;
  spec.watch.mean_partial_s = 20.0;
  spec.watch.min_watch_s = 4.0;
  spec.session.startup_latency_s = 4.0;
  return spec;
}

/// ab_spec behind a CDN with a slow backhaul, so events also carry the
/// tier / coalesced / shed fields.
fleet::FleetSpec cdn_spec(const std::vector<net::Trace>& traces) {
  fleet::FleetSpec spec = ab_spec(traces);
  spec.cache.capacity_bits = 5e7;
  spec.cdn.enabled = true;
  spec.cdn.backhaul_bps = 1e6;
  spec.cdn.regional.nodes = 2;
  spec.cdn.regional.capacity_bits = 4e9;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// The JSONL a fleet run writes through JsonlTraceSink to a stream.
std::string fleet_jsonl(fleet::FleetSpec spec, unsigned threads) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  spec.trace = &sink;
  spec.threads = threads;
  (void)fleet::run_fleet(spec);
  return out.str();
}

/// The checksummed JSONL a fleet run writes through DurableJsonlTraceSink.
std::string fleet_durable(fleet::FleetSpec spec, unsigned threads,
                          const std::string& path) {
  {
    obs::DurableJsonlTraceSink sink(path);
    spec.trace = &sink;
    spec.threads = threads;
    (void)fleet::run_fleet(spec);
  }
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

sim::ExperimentSpec experiment_spec(const video::Video& video,
                                    const std::vector<net::Trace>& traces,
                                    unsigned threads) {
  sim::ExperimentSpec spec;
  spec.video = &video;
  spec.traces = traces;
  spec.make_scheme = [] { return core::make_cava_p123(); };
  spec.threads = threads;
  return spec;
}

struct FleetCase {
  const char* name;
  fleet::FleetSpec spec;
  const char* jsonl_pin;
  const char* durable_pin;
};

std::vector<FleetCase> fleet_cases(const std::vector<net::Trace>& traces) {
  return {
      {"ab", ab_spec(traces), "cefe7fffb3e6b558", "09e5a9af50a0c838"},
      {"cdn", cdn_spec(traces), "0b3813d3aab9c7f2", "3a77aef3acfbf0c9"},
  };
}

TEST(TelemetryFold, FleetJsonlBytesMatchPins) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "fold_pin.jsonl";
  for (const FleetCase& c : fleet_cases(traces)) {
    const std::string jsonl = fleet_jsonl(c.spec, 1);
    EXPECT_EQ(testutil::fnv1a64_hex(jsonl), c.jsonl_pin) << c.name;
    for (const char* field : {"\"cava\":", "\"edge\":", "\"arm\":"}) {
      EXPECT_NE(jsonl.find(field), std::string::npos) << c.name << field;
    }
    if (std::string(c.name) == "cdn") {
      EXPECT_NE(jsonl.find("\"tier\":"), std::string::npos);
    }
    const std::string durable = fleet_durable(c.spec, 1, path);
    EXPECT_EQ(testutil::fnv1a64_hex(durable), c.durable_pin) << c.name;
  }
}

TEST(TelemetryFold, ExperimentJsonlBytesMatchPins) {
  const video::Video v =
      video::make_video("ED", video::Genre::kAnimation, video::Codec::kH264,
                        2.0, 2.0, 42, 120.0);
  const std::vector<net::Trace> traces = net::make_lte_trace_set(6, 7);
  const std::string path = testing::TempDir() + "fold_exp_pin.jsonl";
  const auto jsonl = [&](unsigned threads) {
    std::ostringstream out;
    obs::JsonlTraceSink sink(out);
    sim::ExperimentSpec spec = experiment_spec(v, traces, threads);
    spec.trace = &sink;
    (void)sim::run_experiment(spec);
    return out.str();
  };
  const auto durable = [&](unsigned threads) {
    {
      obs::DurableJsonlTraceSink sink(path);
      sim::ExperimentSpec spec = experiment_spec(v, traces, threads);
      spec.trace = &sink;
      (void)sim::run_experiment(spec);
    }
    std::string bytes = read_file(path);
    std::remove(path.c_str());
    return bytes;
  };
  const std::string one = jsonl(1);
  const std::string one_durable = durable(1);
  EXPECT_EQ(testutil::fnv1a64_hex(one), "f0490dd6af83dcb9");
  EXPECT_EQ(testutil::fnv1a64_hex(one_durable), "7f90469f4044a829");
  for (const unsigned threads : {2u, 8u}) {
    EXPECT_TRUE(jsonl(threads) == one) << threads << " threads";
    EXPECT_TRUE(durable(threads) == one_durable) << threads << " threads";
  }
}

TEST(TelemetryFold, FleetBytesEqualAtAnyThreadCount) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "fold_threads.jsonl";
  for (const FleetCase& c : fleet_cases(traces)) {
    const std::string jsonl = fleet_jsonl(c.spec, 1);
    const std::string durable = fleet_durable(c.spec, 1, path);
    for (const unsigned threads : {2u, 8u}) {
      EXPECT_TRUE(fleet_jsonl(c.spec, threads) == jsonl)
          << c.name << " at " << threads << " threads";
      EXPECT_TRUE(fleet_durable(c.spec, threads, path) == durable)
          << c.name << " at " << threads << " threads";
    }
  }
}

TEST(TelemetryFold, KillAndResumeWritesTheSameBytes) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "fold_resume.ckpt";
  const std::string path = dir + "fold_resume.jsonl";
  for (const FleetCase& c : fleet_cases(traces)) {
    const std::string golden = fleet_durable(c.spec, 1, path);
    fleet::FleetSpec spec = c.spec;
    spec.checkpoint_path = ckpt;
    spec.checkpoint_every = 16;
    std::remove(ckpt.c_str());
    {
      fleet::FleetSpec killed = spec;
      killed.kill.after_sessions = 50;
      obs::DurableJsonlTraceSink sink(path);
      killed.trace = &sink;
      killed.threads = 2;
      EXPECT_THROW((void)fleet::run_fleet(killed), fleet::FleetKilled)
          << c.name;
    }
    spec.resume = true;
    EXPECT_TRUE(fleet_durable(spec, 2, path) == golden) << c.name;
    std::remove(ckpt.c_str());
  }
}

/// Forwards on_decision and flush to an inner sink and nothing else, as an
/// instrumenting decorator would.
class ForwardingSink final : public obs::TraceSink {
 public:
  explicit ForwardingSink(obs::TraceSink& inner) : inner_(&inner) {}
  void on_decision(const obs::DecisionEvent& event) override {
    inner_->on_decision(event);
  }
  void flush() override { inner_->flush(); }

 private:
  obs::TraceSink* inner_;
};

TEST(TelemetryFold, WrapperSinkGetsTheSameBytes) {
  const std::vector<net::Trace> traces = two_traces();
  const fleet::FleetSpec base = cdn_spec(traces);
  const std::string golden = fleet_jsonl(base, 1);
  for (const unsigned threads : {1u, 2u}) {
    std::ostringstream out;
    obs::JsonlTraceSink inner(out);
    ForwardingSink sink(inner);
    fleet::FleetSpec spec = base;
    spec.trace = &sink;
    spec.threads = threads;
    (void)fleet::run_fleet(spec);
    EXPECT_TRUE(out.str() == golden) << threads << " threads";
  }
}

TEST(TelemetryFold, FullDiskThrowsOneEnospc) {
  // Every write to /dev/full fails with ENOSPC: run_fleet must surface it
  // as the one exception it throws.
  const std::vector<net::Trace> traces = two_traces();
  obs::DurableJsonlTraceSink sink("/dev/full");
  fleet::FleetSpec spec = cdn_spec(traces);
  spec.trace = &sink;
  spec.threads = 2;
  try {
    (void)fleet::run_fleet(spec);
    FAIL() << "expected std::system_error";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ENOSPC) << e.what();
  }
}

TEST(TelemetryFold, RunStatsTimeTheFold) {
  // telemetry_fold_s is non-deterministic: > 0 with a trace sink, 0 without
  // one, and never in the report.
  const std::vector<net::Trace> traces = two_traces();
  const auto run = [&](fleet::FleetSpec spec, obs::TraceSink* sink) {
    spec.trace = sink;
    spec.threads = 2;
    return fleet::run_fleet(spec);
  };
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  const fleet::FleetResult with = run(ab_spec(traces), &sink);
  const fleet::FleetResult without = run(ab_spec(traces), nullptr);
  EXPECT_GT(with.run_stats.telemetry_fold_s, 0.0);
  EXPECT_EQ(without.run_stats.telemetry_fold_s, 0.0);
  std::ostringstream a;
  std::ostringstream b;
  with.write_json(a);
  without.write_json(b);
  EXPECT_EQ(a.str(), b.str());

  // The streaming drain folds as it goes and times its writes.
  fleet::FleetSpec streaming = ab_spec(traces);
  streaming.engine = fleet::FleetEngine::kEvent;
  streaming.stream_aggregation = true;
  std::ostringstream streamed;
  obs::JsonlTraceSink stream_sink(streamed);
  EXPECT_GT(run(streaming, &stream_sink).run_stats.telemetry_fold_s, 0.0);
  EXPECT_TRUE(streamed.str() == out.str());
}

// ------------------------------------------------------ the sink seam --

obs::DecisionEvent event_for(std::uint64_t session, std::uint64_t chunk) {
  obs::DecisionEvent ev;
  ev.session_id = session;
  ev.seq = chunk;  // per-session seq; the fold renumbers it
  ev.chunk_index = chunk;
  ev.scheme = "CAVA";
  ev.size_mode = "exact";
  ev.track = chunk % 4;
  ev.buffer_before_s = 0.5 * static_cast<double>(chunk);
  ev.size_bits = 1.6e6 + static_cast<double>(session);
  if (session % 3 == 0) {
    ev.controller = obs::ControllerInternals{};
  }
  if (session % 2 == 0) {
    ev.arm = 1;
  }
  return ev;
}

TEST(TraceSink, EncodeMatchesOnDecisionWithTheSeqReplaced) {
  obs::DecisionEvent ev = event_for(6, 3);
  std::ostringstream direct;
  obs::JsonlTraceSink jsonl(direct);
  ev.seq = 77;
  jsonl.on_decision(ev);
  ev.seq = 3;
  std::string encoded = "prefix";
  ASSERT_TRUE(jsonl.encode(ev, 77, encoded));
  EXPECT_EQ(encoded, "prefix" + direct.str());
  EXPECT_NE(direct.str().find("\"seq\":77,\"chunk\":3,"), std::string::npos);

  const std::string path = testing::TempDir() + "encode_durable.jsonl";
  {
    obs::DurableJsonlTraceSink durable(path);
    ev.seq = 77;
    durable.on_decision(ev);
    durable.flush();
    ev.seq = 3;
    std::string line;
    ASSERT_TRUE(durable.encode(ev, 77, line));
    EXPECT_EQ(read_file(path), line);
    EXPECT_EQ(line, obs::checksummed_line(direct.str().substr(
                        0, direct.str().size() - 1)) +
                        "\n");
  }
  std::remove(path.c_str());

  // A sink that keeps events does not encode, and has no raw writer.
  obs::MemoryTraceSink memory;
  std::string none;
  EXPECT_FALSE(memory.encode(ev, 77, none));
  EXPECT_TRUE(none.empty());
  EXPECT_THROW(memory.write_encoded("x\n", 1), std::logic_error);
}

/// `n` per-session sinks with 0 to 29 events each, a few of them null.
std::vector<std::unique_ptr<obs::MemoryTraceSink>> make_sinks(std::size_t n) {
  std::vector<std::unique_ptr<obs::MemoryTraceSink>> sinks(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (s % 17 == 5) {
      continue;
    }
    sinks[s] = std::make_unique<obs::MemoryTraceSink>();
    for (std::size_t c = 0; c < (s * 7) % 30; ++c) {
      sinks[s]->on_decision(event_for(s, c));
    }
  }
  return sinks;
}

TEST(TelemetryFold, FoldTracesRenumbersInOrderAtAnyThreadCount) {
  // Enough events for many batches, so the window of in-flight batches
  // wraps several times.
  const std::size_t n = 600;
  std::string want;
  std::uint64_t total = 0;
  {
    const auto sinks = make_sinks(n);
    for (const auto& s : sinks) {
      for (const obs::DecisionEvent& ev : s ? s->events()
                                            : std::deque<obs::DecisionEvent>{}) {
        obs::DecisionEvent e = ev;
        e.seq = 1000 + total++;
        want += obs::to_jsonl(e) + "\n";
      }
    }
  }
  ASSERT_GT(total, 5000u);
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    auto sinks = make_sinks(n);
    std::ostringstream out;
    obs::JsonlTraceSink sink(out);
    EXPECT_EQ(obs::fold_traces(sinks, sink, threads, 1000), 1000 + total);
    EXPECT_TRUE(out.str() == want) << threads << " threads";
    EXPECT_EQ(sink.lines_written(), total);
    for (const auto& s : sinks) {
      EXPECT_EQ(s, nullptr) << "every sink is freed once written";
    }
  }

  // A sink that keeps events gets the same renumbered stream.
  auto sinks = make_sinks(n);
  obs::MemoryTraceSink memory;
  EXPECT_EQ(obs::fold_traces(sinks, memory, 4, 1000), 1000 + total);
  std::string got;
  for (const obs::DecisionEvent& ev : memory.events()) {
    got += obs::to_jsonl(ev) + "\n";
  }
  EXPECT_TRUE(got == want);

  // No events at all: nothing written, seq unchanged.
  std::vector<std::unique_ptr<obs::MemoryTraceSink>> empty(3);
  empty[1] = std::make_unique<obs::MemoryTraceSink>();
  std::ostringstream none;
  obs::JsonlTraceSink none_sink(none);
  EXPECT_EQ(obs::fold_traces(empty, none_sink, 2, 7), 7u);
  EXPECT_TRUE(none.str().empty());
}

/// A byte sink whose encoder or writer fails after a number of calls.
class FailingSink final : public obs::TraceSink {
 public:
  FailingSink(std::uint64_t encode_limit, std::uint64_t write_limit)
      : encode_limit_(encode_limit), write_limit_(write_limit) {}
  void on_decision(const obs::DecisionEvent&) override {}
  bool encode(const obs::DecisionEvent& event, std::uint64_t seq,
              std::string& out) const override {
    if (encodes_.fetch_add(1) >= encode_limit_) {
      throw std::runtime_error("encode failed");
    }
    obs::append_jsonl(out, event, seq);
    out += '\n';
    return true;
  }
  void write_encoded(std::string_view, std::uint64_t) override {
    if (++writes_ > write_limit_) {
      throw std::system_error(ENOSPC, std::generic_category(), "write");
    }
  }

 private:
  std::uint64_t encode_limit_;
  std::uint64_t write_limit_;
  mutable std::atomic<std::uint64_t> encodes_{0};
  std::uint64_t writes_ = 0;
};

TEST(TelemetryFold, FailuresJoinTheEncodersAndRethrow) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    auto sinks = make_sinks(600);
    FailingSink encoder_fails(3000, ~std::uint64_t{0});
    EXPECT_THROW((void)obs::fold_traces(sinks, encoder_fails, threads),
                 std::runtime_error)
        << threads << " threads";

    sinks = make_sinks(600);
    FailingSink writer_fails(~std::uint64_t{0}, 2);
    try {
      (void)obs::fold_traces(sinks, writer_fails, threads);
      ADD_FAILURE() << "expected std::system_error at " << threads
                    << " threads";
    } catch (const std::system_error& e) {
      EXPECT_EQ(e.code().value(), ENOSPC);
    }
  }
}

}  // namespace
}  // namespace vbr
