// Extension: the cost of crash safety.
//
// Three measurements over the fleet driver (src/fleet + fleet/checkpoint):
//
//   1. Checkpoint overhead: sessions/s for the same fleet with
//      checkpointing off, every 64 sessions, and every 8 sessions — the
//      price of the session-boundary barrier plus the atomic fsync'd
//      write.
//   2. Checkpoint I/O: bytes on disk, save and load wall time as the
//      captured run grows (kill at 25% / 50% / 75% of the fleet).
//   3. Checkpoint cost vs run length: cumulative in-run checkpoint wall
//      time (run with checkpoints every 100 sessions minus the same run
//      without, telemetry collected in both, best of 3) at N = 250 / 500 /
//      1,000 / 2,000 sessions. The append-only journal writes each session
//      once, so this grows linearly in N; a whole-file snapshot rewrites
//      every completed session at each checkpoint and grows as N^2. The
//      run stats split the checkpointed run's time into the barrier-held
//      capture and the commit that runs after the barrier's release.
//   4. Durable telemetry: events/s through the plain JSONL sink vs the
//      checksummed + fsync'd DurableJsonlTraceSink.
//
// Run: ./bench_ext_crash_safety
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "fleet/checkpoint.h"
#include "fleet/fleet.h"
#include "obs/jsonl_io.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace {

using namespace vbr;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

fleet::FleetSpec base_spec(const std::vector<net::Trace>& traces,
                           std::size_t sessions) {
  fleet::FleetSpec spec;
  spec.catalog.num_titles = 24;
  spec.catalog.title_duration_s = 120.0;
  spec.arrivals.rate_per_s = 1.0;
  spec.arrivals.horizon_s = 1e9;  // session-count limited
  spec.arrivals.max_sessions = sessions;
  spec.classes.resize(2);
  spec.classes[0].label = "CAVA";
  spec.classes[0].make_scheme = bench::scheme_factory("CAVA");
  spec.classes[1].label = "BBA-1";
  spec.classes[1].make_scheme = bench::scheme_factory("BBA-1");
  spec.traces = traces;
  spec.cache.capacity_bits = 16e9;
  spec.threads = 4;
  return spec;
}

std::string tmp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

long file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  long bytes = 0;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    bytes = std::ftell(f);
    std::fclose(f);
  }
  return bytes;
}

}  // namespace

int main() {
  const std::vector<net::Trace> traces = bench::lte_traces(20);
  constexpr std::size_t kSessions = 300;

  std::printf("== checkpoint overhead: sessions/s vs cadence ==\n");
  std::printf("%16s %10s %12s\n", "checkpointing", "wall(s)", "sessions/s");
  double base_wall = 0.0;
  for (const std::uint64_t every : {std::uint64_t{0}, std::uint64_t{64},
                                    std::uint64_t{8}}) {
    fleet::FleetSpec spec = base_spec(traces, kSessions);
    if (every > 0) {
      spec.checkpoint_path = tmp_path("bench_crash_safety.ckpt");
      spec.checkpoint_every = every;
    }
    const auto t0 = Clock::now();
    const fleet::FleetResult r = fleet::run_fleet(spec);
    const double wall = secs_since(t0);
    if (every == 0) {
      base_wall = wall;
    }
    char label[32];
    std::snprintf(label, sizeof label,
                  every == 0 ? "off" : "every %llu",
                  static_cast<unsigned long long>(every));
    std::printf("%16s %10.3f %12.1f\n", label, wall,
                static_cast<double>(r.sessions.size()) / wall);
  }
  std::printf("(overhead is relative to the %0.3fs baseline)\n\n", base_wall);

  std::printf("== checkpoint size and save/load cost vs progress ==\n");
  std::printf("%10s %12s %10s %10s\n", "killed at", "bytes", "save(ms)",
              "load(ms)");
  for (const double frac : {0.25, 0.5, 0.75}) {
    fleet::FleetSpec spec = base_spec(traces, kSessions);
    spec.checkpoint_path = tmp_path("bench_crash_safety_kill.ckpt");
    spec.checkpoint_every = 0;  // only the final kill checkpoint
    spec.kill.after_sessions =
        static_cast<std::uint64_t>(frac * kSessions);
    try {
      (void)fleet::run_fleet(spec);
    } catch (const fleet::FleetKilled&) {
    }
    const auto t_load = Clock::now();
    const fleet::FleetCheckpoint ck =
        fleet::FleetCheckpoint::load(spec.checkpoint_path);
    const double load_ms = secs_since(t_load) * 1e3;
    const std::string copy = spec.checkpoint_path + ".resave";
    const auto t_save = Clock::now();
    ck.save(copy);
    const double save_ms = secs_since(t_save) * 1e3;
    std::printf("%9.0f%% %12ld %10.2f %10.2f\n", frac * 100.0,
                file_bytes(spec.checkpoint_path), save_ms, load_ms);
    std::remove(spec.checkpoint_path.c_str());
    std::remove(copy.c_str());
  }
  std::printf("\n");

  std::printf("== in-run checkpoint cost vs run length (every 100, "
              "telemetry on) ==\n");
  std::printf("%8s %10s %10s %12s %14s %12s %11s %10s\n", "sessions",
              "off(s)", "on(s)", "ckpt(s)", "ckpt/session", "bytes",
              "barrier(s)", "commit(s)");
  for (const std::size_t sessions : {std::size_t{250}, std::size_t{500},
                                     std::size_t{1000}, std::size_t{2000}}) {
    const std::string path = tmp_path("bench_crash_safety_len.ckpt");
    // Best wall of 3, with the run stats of that best run.
    const auto best_run = [&](bool checkpoints) {
      double best = 0.0;
      fleet::FleetRunStats best_stats;
      for (int rep = 0; rep < 3; ++rep) {
        fleet::FleetSpec spec = base_spec(traces, sessions);
        obs::MemoryTraceSink sink;
        obs::MetricsRegistry registry;
        spec.trace = &sink;
        spec.metrics = &registry;
        if (checkpoints) {
          std::remove(path.c_str());
          spec.checkpoint_path = path;
          spec.checkpoint_every = 100;
        }
        const auto t0 = Clock::now();
        const fleet::FleetResult r = fleet::run_fleet(spec);
        const double wall = secs_since(t0);
        if (rep == 0 || wall < best) {
          best = wall;
          best_stats = r.run_stats;
        }
      }
      return std::make_pair(best, best_stats);
    };
    const double off = best_run(false).first;
    const auto [on, stats] = best_run(true);
    const double ckpt = std::max(0.0, on - off);
    std::printf("%8zu %10.3f %10.3f %12.3f %11.3f ms %12ld %11.3f %10.3f\n",
                sessions, off, on, ckpt,
                ckpt * 1e3 / static_cast<double>(sessions), file_bytes(path),
                stats.checkpoint_capture_s, stats.checkpoint_commit_s);
    std::remove(path.c_str());
  }
  std::printf("(barrier: seconds the captures held every worker parked; "
              "commit: seconds of write + fsync after the barrier's "
              "release, from FleetResult::run_stats)\n\n");

  std::printf("== durable vs plain JSONL sink: events/s ==\n");
  obs::DecisionEvent ev;
  ev.scheme = "CAVA";
  ev.size_bits = 1.5e6;
  constexpr std::uint64_t kEvents = 200000;
  {
    const std::string path = tmp_path("bench_plain.jsonl");
    obs::JsonlTraceSink sink(path);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      ev.seq = i;
      sink.on_decision(ev);
    }
    sink.flush();
    std::printf("%16s %12.0f events/s\n", "plain",
                static_cast<double>(kEvents) / secs_since(t0));
    std::remove(path.c_str());
  }
  {
    const std::string path = tmp_path("bench_durable.jsonl");
    obs::DurableJsonlTraceSink sink(path);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      ev.seq = i;
      sink.on_decision(ev);
    }
    sink.flush();
    std::printf("%16s %12.0f events/s (checksummed + fsync)\n", "durable",
                static_cast<double>(kEvents) / secs_since(t0));
    std::remove(path.c_str());
  }
  return 0;
}
