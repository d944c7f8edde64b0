// Decision hot-path performance suite with a machine-readable report.
//
// Measures ns/decision for the ABR schemes on the canonical ED title —
// including both MPC engines, so the pruned-search speedup is recorded
// next to the numbers it came from — plus a fleet-shaped RobustMPC row
// (a 60 s catalog title with the buffer and bandwidth range that fleet
// sessions decide in) and end-to-end fleet throughput (sessions/sec) for
// the batched fleet driver. The pruned MPC rows also report mean nodes
// expanded per decision, the search's pruning power. Results go to
// BENCH_PERF.json (see EXPERIMENTS.md for the recipe).
//
// Flags:
//   --quick        ~10x fewer iterations (CI smoke-gate budget)
//   --check        exit non-zero unless the pruned MPC engines match the
//                  reference decisions on both sweeps AND the RobustMPC
//                  horizon-5 speedup clears a deliberately generous 2x
//                  floor (the recorded number is the real claim; the gate
//                  only catches a regression back to enumeration)
//   --out FILE     report path (default BENCH_PERF.json)
//
// Timing methodology: one steady_clock read per pass around a loop of
// decide() calls over a deterministic sweep of contexts (chunk index,
// buffer level, and previous track all vary), so the measured mix includes
// early-chunk, mid-stream, and deep-buffer decisions rather than one
// flattering point. The context sweep is identical for every scheme. Each
// scheme runs 5 passes (reset, warm-up, timed loop) and reports the
// fastest: one pass slowed by other work on the machine no longer fails a
// ceiling on its own, while a slower decide() slows every pass.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "abr/bola.h"
#include "abr/mpc.h"
#include "common.h"
#include "core/cava.h"
#include "fleet/catalog.h"
#include "fleet/fleet.h"
#include "learn/learned_scheme.h"
#include "learn/trainer.h"
#include "net/bandwidth_estimator.h"
#include "net/trace_gen.h"
#include "obs/json_util.h"
#include "sim/session.h"
#include "video/dataset.h"

namespace {

using namespace vbr;

const video::Video& ed() {
  static const video::Video v = video::make_video(
      "ED-ffmpeg-h264", video::Genre::kAnimation, video::Codec::kH264, 2.0,
      2.0, bench::kCorpusSeed + 0x11, 600.0);
  return v;
}

/// Deterministic context sweep: chunk, buffer, and previous track all vary
/// with the iteration counter so every scheme sees the same representative
/// mix of decision points.
abr::StreamContext sweep_context(std::size_t i) {
  const video::Video& v = ed();
  abr::StreamContext ctx;
  ctx.video = &v;
  ctx.next_chunk = (i * 17) % v.num_chunks();
  ctx.buffer_s = 4.0 + static_cast<double>(i % 29);
  ctx.est_bandwidth_bps = 1.2e6 + 3.0e5 * static_cast<double>(i % 7);
  ctx.prev_track = static_cast<int>(i % v.num_tracks());
  ctx.now_s = 2.0 * static_cast<double>(i);
  return ctx;
}

/// A fleet catalog title: 60 s, 30 two-second chunks, as in the perfbench
/// reference workloads.
const video::Video& fleet_title() {
  static const fleet::Catalog catalog = [] {
    fleet::CatalogConfig cfg;
    cfg.num_titles = 1;
    cfg.title_duration_s = 60.0;
    cfg.chunk_duration_s = 2.0;
    cfg.seed = bench::kCorpusSeed;
    return fleet::Catalog(cfg);
  }();
  return catalog.title(0);
}

/// Fleet-shaped sweep. RobustMPC decisions in the vod-coupled fleet see
/// buffers of 2-21 s (median 8.8 s) and raw estimates of 0.6-7.4 Mb/s
/// (median 2.3 Mb/s), 5th-95th percentile, and about one decision in nine
/// has its horizon clipped at the end of a 30-chunk title. The sweep covers
/// the same ranges: buffer 2-22 s, bandwidth log-spaced 0.6-7.5 Mb/s, and
/// every chunk of the title, tail included.
abr::StreamContext fleet_context(std::size_t i) {
  const video::Video& v = fleet_title();
  abr::StreamContext ctx;
  ctx.video = &v;
  ctx.next_chunk = (i * 7) % v.num_chunks();
  ctx.buffer_s = 2.0 + 2.0 * static_cast<double>(i % 11);
  ctx.est_bandwidth_bps =
      0.6e6 * std::pow(12.5, static_cast<double>(i % 13) / 12.0);
  ctx.prev_track = static_cast<int>(i % v.num_tracks());
  ctx.now_s = 2.0 * static_cast<double>(i);
  return ctx;
}

using ContextSweep = abr::StreamContext (*)(std::size_t);

struct Measured {
  double ns_per_decision = 0.0;
  std::uint64_t track_checksum = 0;  ///< Defeats dead-code elimination.
};

/// Timed passes per scheme; the reported figure is the fastest one.
constexpr int kTimedPasses = 5;

/// Warm-up pass: fault in code/data and let RobustMPC variants build an
/// error window, so the timed loop measures steady state.
void warm_up(abr::AbrScheme& scheme, ContextSweep sweep) {
  for (std::size_t i = 0; i < 16; ++i) {
    const abr::StreamContext ctx = sweep(i);
    (void)scheme.decide(ctx);
    scheme.on_chunk_downloaded(ctx, 2, 0.8);
  }
}

Measured measure_scheme(abr::AbrScheme& scheme, std::size_t iters,
                        ContextSweep sweep = sweep_context) {
  Measured m;
  for (int pass = 0; pass < kTimedPasses; ++pass) {
    scheme.reset();
    warm_up(scheme, sweep);
    std::uint64_t checksum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      checksum += scheme.decide(sweep(i)).track;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(iters);
    // Every pass replays the same decisions from the same reset state, so
    // the checksum is the same each time.
    m.track_checksum = checksum;
    m.ns_per_decision = pass == 0 ? ns : std::min(m.ns_per_decision, ns);
  }
  return m;
}

/// Mean interior nodes the pruned engine expands per decision, over the
/// decisions of one timed pass (same reset, warm-up and sweep), replayed
/// untimed so reading the counter stays out of ns_per_decision.
double nodes_per_decision(const abr::MpcConfig& cfg, std::size_t iters,
                          ContextSweep sweep) {
  abr::Mpc mpc(cfg);
  warm_up(mpc, sweep);
  std::size_t nodes = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    (void)mpc.decide(sweep(i));
    nodes += mpc.last_nodes_expanded();
  }
  return static_cast<double>(nodes) / static_cast<double>(iters);
}

/// Differential spot-check: pruned vs reference engine must agree on the
/// chosen track AND the searched QoE at every sweep point (both engines fed
/// the same download observations so robust discounts stay in lockstep).
bool engines_agree(const abr::MpcConfig& cfg, std::size_t iters,
                   ContextSweep sweep, std::string& why) {
  abr::Mpc pruned(cfg);
  abr::ReferenceMpc reference(cfg);
  for (std::size_t i = 0; i < iters; ++i) {
    const abr::StreamContext ctx = sweep(i);
    const abr::Decision dp = pruned.decide(ctx);
    const abr::Decision dr = reference.decide(ctx);
    if (dp.track != dr.track ||
        pruned.last_best_qoe() != reference.last_best_qoe()) {
      why = "engine mismatch at sweep point " + std::to_string(i);
      return false;
    }
    pruned.on_chunk_downloaded(ctx, dp.track, 0.9);
    reference.on_chunk_downloaded(ctx, dr.track, 0.9);
  }
  return true;
}

struct FleetThroughput {
  std::size_t sessions = 0;
  double wall_s = 0.0;
  double sessions_per_sec = 0.0;
};

FleetThroughput measure_fleet(std::size_t max_sessions) {
  std::vector<net::Trace> traces = bench::lte_traces(8);
  fleet::FleetSpec spec;
  spec.catalog.num_titles = 8;
  spec.catalog.title_duration_s = 60.0;
  spec.arrivals.rate_per_s = 1.0;
  spec.arrivals.horizon_s = 1e9;  // session cap is the binding limit
  spec.arrivals.max_sessions = max_sessions;
  spec.classes.resize(2);
  spec.classes[0].label = "cava";
  spec.classes[0].make_scheme = bench::scheme_factory("CAVA");
  spec.classes[1].label = "robust-mpc";
  spec.classes[1].make_scheme = bench::scheme_factory("RobustMPC");
  spec.traces = traces;
  spec.cache.capacity_bits = 2e9;
  spec.session.startup_latency_s = 4.0;
  spec.threads = 0;  // hardware concurrency: throughput, not determinism

  FleetThroughput ft;
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult result = fleet::run_fleet(spec);
  const auto t1 = std::chrono::steady_clock::now();
  ft.sessions = result.sessions.size();
  ft.wall_s = std::chrono::duration<double>(t1 - t0).count();
  ft.sessions_per_sec =
      ft.wall_s > 0.0 ? static_cast<double>(ft.sessions) / ft.wall_s : 0.0;
  return ft;
}

/// Engine throughput comparison on an UNCOUPLED workload (no shared cache
/// or CDN, private traces): the same fleet is run once under the
/// per-session stepper and once under the shared-virtual-time event engine
/// (DESIGN.md section 15). Uncoupled is the fair arena — both engines can
/// use every core, and the event engine's heap + batch machinery is pure
/// overhead it must amortize, so `event >= stepped` here is the honest
/// floor for the refactor.
FleetThroughput measure_engine_fleet(fleet::FleetEngine engine,
                                     std::size_t max_sessions) {
  std::vector<net::Trace> traces = bench::lte_traces(8);
  fleet::FleetSpec spec;
  spec.catalog.num_titles = 8;
  spec.catalog.title_duration_s = 60.0;
  spec.arrivals.rate_per_s = 1.0;
  spec.arrivals.horizon_s = 1e9;  // session cap is the binding limit
  spec.arrivals.max_sessions = max_sessions;
  spec.classes.resize(2);
  spec.classes[0].label = "cava";
  spec.classes[0].make_scheme = bench::scheme_factory("CAVA");
  spec.classes[1].label = "robust-mpc";
  spec.classes[1].make_scheme = bench::scheme_factory("RobustMPC");
  spec.traces = traces;
  spec.use_cache = false;  // uncoupled: no cross-session state
  spec.session.startup_latency_s = 4.0;
  spec.threads = 0;  // hardware concurrency: throughput, not determinism
  spec.engine = engine;

  FleetThroughput ft;
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult result = fleet::run_fleet(spec);
  const auto t1 = std::chrono::steady_clock::now();
  ft.sessions = result.sessions.size();
  ft.wall_s = std::chrono::duration<double>(t1 - t0).count();
  ft.sessions_per_sec =
      ft.wall_s > 0.0 ? static_cast<double>(ft.sessions) / ft.wall_s : 0.0;
  return ft;
}

/// The 100k-concurrency row: an uncoupled burst fleet (every session
/// overlaps every other) run under the event engine's constant-memory
/// streaming aggregator — the acceptance workload for the shared-timeline
/// refactor. One title and a cheap scheme keep the row about engine
/// throughput, not decision cost.
FleetThroughput measure_stream_fleet(std::size_t max_sessions) {
  std::vector<net::Trace> traces = bench::lte_traces(4);
  fleet::FleetSpec spec;
  spec.use_cache = false;  // uncoupled: all sessions admitted up front
  spec.catalog.num_titles = 1;
  spec.catalog.title_duration_s = 8.0;
  spec.catalog.chunk_duration_s = 2.0;
  spec.arrivals.rate_per_s = 8.0 * static_cast<double>(max_sessions);
  spec.arrivals.horizon_s = 30.0;
  spec.arrivals.max_sessions = max_sessions;
  spec.classes.resize(1);
  spec.classes[0].label = "cava";
  spec.classes[0].make_scheme = bench::scheme_factory("CAVA");
  spec.traces = traces;
  spec.watch.full_watch_prob = 1.0;
  spec.session.startup_latency_s = 2.0;
  spec.threads = 0;
  spec.engine = fleet::FleetEngine::kEvent;
  spec.stream_aggregation = true;

  FleetThroughput ft;
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult result = fleet::run_fleet(spec);
  const auto t1 = std::chrono::steady_clock::now();
  ft.sessions = result.total_sessions;  // streaming: no per-session table
  ft.wall_s = std::chrono::duration<double>(t1 - t0).count();
  ft.sessions_per_sec =
      ft.wall_s > 0.0 ? static_cast<double>(ft.sessions) / ft.wall_s : 0.0;
  return ft;
}

struct SchemeRow {
  std::string name;
  Measured m;
  double nodes_per_decision = -1.0;  ///< Pruned MPC rows only.
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  std::string out_path = "BENCH_PERF.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else {
      std::cerr << "usage: bench_perf_decision_suite [--quick] [--check] "
                   "[--out FILE]\n";
      return 2;
    }
  }

  const std::size_t iters = quick ? 300 : 3000;
  const std::size_t agree_iters = quick ? 64 : 256;

  // Correctness first: a fast wrong answer is not a benchmark result.
  std::string why;
  bool ok = true;
  for (const bool robust : {false, true}) {
    abr::MpcConfig cfg = robust ? abr::robust_mpc_config() : abr::mpc_config();
    if (!engines_agree(cfg, agree_iters, sweep_context, why)) {
      std::cerr << (robust ? "RobustMPC" : "MPC") << ": " << why << "\n";
      ok = false;
    }
  }
  if (!engines_agree(abr::robust_mpc_config(), agree_iters, fleet_context,
                     why)) {
    std::cerr << "RobustMPC (fleet sweep): " << why << "\n";
    ok = false;
  }

  std::vector<SchemeRow> rows;
  const auto run = [&](const std::string& name,
                       std::unique_ptr<abr::AbrScheme> scheme,
                       ContextSweep sweep = sweep_context) {
    rows.push_back({name, measure_scheme(*scheme, iters, sweep)});
    std::printf("%-24s %10.0f ns/decision\n", name.c_str(),
                rows.back().m.ns_per_decision);
  };
  // Pruned MPC rows also report pruning power: mean nodes per decision.
  const auto run_pruned = [&](const std::string& name,
                              const abr::MpcConfig& cfg,
                              ContextSweep sweep = sweep_context) {
    run(name, std::make_unique<abr::Mpc>(cfg), sweep);
    rows.back().nodes_per_decision = nodes_per_decision(cfg, iters, sweep);
    std::printf("%-24s %10.1f nodes/decision\n", name.c_str(),
                rows.back().nodes_per_decision);
  };
  run_pruned("MPC", abr::mpc_config());
  run("MPC-reference",
      std::make_unique<abr::ReferenceMpc>(abr::mpc_config()));
  run_pruned("RobustMPC", abr::robust_mpc_config());
  run("RobustMPC-reference",
      std::make_unique<abr::ReferenceMpc>(abr::robust_mpc_config()));
  run_pruned("RobustMPC-fleet", abr::robust_mpc_config(), fleet_context);
  run("RobustMPC-fleet-reference",
      std::make_unique<abr::ReferenceMpc>(abr::robust_mpc_config()),
      fleet_context);
  run("CAVA", core::make_cava_p123());
  run("BOLA-E", std::make_unique<abr::Bola>());

  // Learned backends on rule-seeded policies: the hot path (table walk /
  // fixed-topology MLP forward pass) is identical to a trained policy's, so
  // no rollout corpus is needed to measure it.
  learn::FeatureConfig lcfg;
  lcfg.num_tracks = ed().num_tracks();
  run("learned-tabular",
      std::make_unique<learn::LearnedScheme>(
          std::make_shared<const learn::Policy>(
              learn::make_rate_rule_tabular(lcfg, "bench-rule", 1))));
  run("learned-mlp",
      std::make_unique<learn::LearnedScheme>(
          std::make_shared<const learn::Policy>(
              learn::make_random_mlp(lcfg, 16, 7, "bench-rand", 1))));

  const auto ns_of = [&](const std::string& name) {
    for (const SchemeRow& r : rows) {
      if (r.name == name) {
        return r.m.ns_per_decision;
      }
    }
    return 0.0;
  };
  const double mpc_speedup = ns_of("MPC") > 0.0
                                 ? ns_of("MPC-reference") / ns_of("MPC")
                                 : 0.0;
  const double robust_speedup =
      ns_of("RobustMPC") > 0.0
          ? ns_of("RobustMPC-reference") / ns_of("RobustMPC")
          : 0.0;
  const double robust_fleet_speedup =
      ns_of("RobustMPC-fleet") > 0.0
          ? ns_of("RobustMPC-fleet-reference") / ns_of("RobustMPC-fleet")
          : 0.0;
  std::printf(
      "speedup: MPC %.1fx, RobustMPC %.1fx, RobustMPC fleet sweep %.1fx "
      "(horizon 5)\n",
      mpc_speedup, robust_speedup, robust_fleet_speedup);

  const FleetThroughput ft = measure_fleet(quick ? 48 : 200);
  std::printf("fleet: %zu sessions in %.2f s (%.1f sessions/sec)\n",
              ft.sessions, ft.wall_s, ft.sessions_per_sec);

  // The gated comparison runs a FIXED smoke-sized workload (both modes)
  // and pairs the engines back-to-back inside each repetition: these runs
  // are short enough that scheduler noise on a loaded CI box swings any
  // single shot by ±20%, but a real hot-loop regression drags EVERY
  // pair's ratio down, so the best paired ratio is the stable signal.
  const std::size_t engine_sessions = 96;
  FleetThroughput ft_stepped;
  FleetThroughput ft_event;
  double engine_ratio = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const FleetThroughput s =
        measure_engine_fleet(fleet::FleetEngine::kStepped, engine_sessions);
    const FleetThroughput e =
        measure_engine_fleet(fleet::FleetEngine::kEvent, engine_sessions);
    if (s.sessions_per_sec > ft_stepped.sessions_per_sec) {
      ft_stepped = s;
    }
    if (e.sessions_per_sec > ft_event.sessions_per_sec) {
      ft_event = e;
    }
    if (s.sessions_per_sec > 0.0) {
      engine_ratio =
          std::max(engine_ratio, e.sessions_per_sec / s.sessions_per_sec);
    }
  }
  std::printf(
      "engine (uncoupled, %zu sessions): stepped %.1f/s, event %.1f/s "
      "(%.2fx)\n",
      engine_sessions, ft_stepped.sessions_per_sec,
      ft_event.sessions_per_sec, engine_ratio);

  // The headline concurrency row: 100k sessions in flight at once (20k in
  // quick mode), event engine + streaming aggregation.
  const FleetThroughput ft_stream =
      measure_stream_fleet(quick ? 20000 : 100000);
  std::printf(
      "engine stream: %zu concurrent sessions in %.2f s (%.0f "
      "sessions/sec)\n",
      ft_stream.sessions, ft_stream.wall_s, ft_stream.sessions_per_sec);

  // Machine-readable report (canonical round-trip doubles, stable key
  // order) — the artifact CI uploads and EXPERIMENTS.md documents.
  std::string json;
  json += "{\"suite\":\"decision-hot-path\",\"quick\":";
  json += quick ? "true" : "false";
  json += ",\"iterations\":";
  obs::detail::append_uint(json, iters);
  json += ",\"schemes\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      json += ',';
    }
    json += "{\"name\":";
    obs::detail::append_json_string(json, rows[i].name);
    json += ",\"ns_per_decision\":";
    obs::detail::append_double(json, rows[i].m.ns_per_decision);
    json += ",\"track_checksum\":";
    obs::detail::append_uint(json, rows[i].m.track_checksum);
    if (rows[i].nodes_per_decision >= 0.0) {
      json += ",\"nodes_per_decision\":";
      obs::detail::append_double(json, rows[i].nodes_per_decision);
    }
    json += '}';
  }
  json += "],\"learned\":{\"tabular_ns_per_decision\":";
  obs::detail::append_double(json, ns_of("learned-tabular"));
  json += ",\"mlp_ns_per_decision\":";
  obs::detail::append_double(json, ns_of("learned-mlp"));
  json += "},\"speedup\":{\"mpc_horizon5\":";
  obs::detail::append_double(json, mpc_speedup);
  json += ",\"robust_mpc_horizon5\":";
  obs::detail::append_double(json, robust_speedup);
  json += ",\"robust_mpc_fleet_horizon5\":";
  obs::detail::append_double(json, robust_fleet_speedup);
  json += "},\"fleet\":{\"sessions\":";
  obs::detail::append_uint(json, ft.sessions);
  json += ",\"wall_s\":";
  obs::detail::append_double(json, ft.wall_s);
  json += ",\"sessions_per_sec\":";
  obs::detail::append_double(json, ft.sessions_per_sec);
  json += ",\"threads\":\"hardware\"},\"fleet_engine\":{\"sessions\":";
  obs::detail::append_uint(json, engine_sessions);
  json += ",\"workload\":\"uncoupled\",\"stepped_sessions_per_sec\":";
  obs::detail::append_double(json, ft_stepped.sessions_per_sec);
  json += ",\"event_sessions_per_sec\":";
  obs::detail::append_double(json, ft_event.sessions_per_sec);
  json += ",\"event_over_stepped\":";
  obs::detail::append_double(json, engine_ratio);
  json += ",\"stream\":{\"sessions\":";
  obs::detail::append_uint(json, ft_stream.sessions);
  json += ",\"wall_s\":";
  obs::detail::append_double(json, ft_stream.wall_s);
  json += ",\"sessions_per_sec\":";
  obs::detail::append_double(json, ft_stream.sessions_per_sec);
  json += "},\"threads\":\"hardware\"},\"engines_agree\":";
  json += ok ? "true" : "false";
  json += "}\n";

  std::ofstream out(out_path);
  out << json;
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (check) {
    if (!ok) {
      std::cerr << "FAIL: pruned engine diverged from the reference\n";
      return 1;
    }
    // Generous floor: the recorded speedup is the honest number; this gate
    // exists only to catch the hot path regressing back to enumeration.
    if (robust_speedup < 2.0) {
      std::cerr << "FAIL: RobustMPC horizon-5 speedup " << robust_speedup
                << "x below the 2x regression floor\n";
      return 1;
    }
    // The learned backends exist to be cheap: either regressing past 1 us
    // per decision means the table walk / forward pass picked up real work
    // (allocation, locking, search) that does not belong on the hot path.
    for (const char* name : {"learned-tabular", "learned-mlp"}) {
      if (ns_of(name) >= 1000.0) {
        std::cerr << "FAIL: " << name << " " << ns_of(name)
                  << " ns/decision breaches the 1 us hot-path ceiling\n";
        return 1;
      }
    }
    // Engine floor: on the uncoupled workload the event engine must keep
    // pace with the stepper — its heap and batch machinery are supposed to
    // amortize to noise there. The 0.9 margin covers the one irreducible
    // cost of shared-timeline interleaving on low-core machines: each step
    // lands on a cache-cold session, where the stepper replays one hot
    // session to completion (measured ~0.96x single-core, at or above 1x
    // with real parallelism). Falling below means the per-event hot loop
    // picked up real work.
    if (engine_ratio < 0.9) {
      std::cerr << "FAIL: event engine at " << engine_ratio
                << "x of stepper throughput on the uncoupled workload "
                   "(floor 0.9)\n";
      return 1;
    }
  }
  return 0;
}
