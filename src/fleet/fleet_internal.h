// Internals shared by run_fleet's two execution engines.
//
// run_fleet (fleet.cpp) owns all setup (draws, telemetry slots, resume
// restore) and all finalization (title-order merges, session-order folds,
// report assembly); the engines only differ in HOW the sessions between
// those two points get executed:
//   - the per-session stepper (fleet.cpp): workers claim titles and run
//     each session to completion;
//   - the shared-virtual-time event engine (engine.cpp): one global
//     timeline of chunk-decision events.
// Everything both need — the per-session draw, the record builder, the
// session-order fold accumulators, and the context handed to the event
// engine — lives here so neither engine can drift from the other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/catalog.h"
#include "fleet/cdn.h"
#include "fleet/checkpoint.h"
#include "fleet/edge_cache.h"
#include "fleet/fleet.h"
#include "metrics/qoe_model.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/experiment.h"
#include "sim/session.h"

namespace vbr::fleet::detail {

/// Everything an arriving session is, decided up front as pure functions of
/// (spec.seed, session index) so workers never race on a draw.
struct SessionDraw {
  std::size_t title = 0;
  std::size_t cls = 0;   ///< Class index — the arm index in an experiment.
  std::size_t trace = 0;
  std::uint32_t stratum = 0;  ///< Experiment stratum; 0 otherwise.
  double watch_s = 0.0;  ///< 0 = watches to the end.
};

/// Builds one FleetSessionRecord from a finished session: delivery-tier
/// bookkeeping (which also accumulates into the title's track_hits /
/// track_total rows), QoE, and experiment scores. Shared verbatim by both
/// engines — the accumulation order into the title rows is the chunk
/// order, identical either way.
[[nodiscard]] FleetSessionRecord build_session_record(
    const FleetSpec& spec, const SessionDraw& d, std::size_t sid,
    double arrival_s, std::size_t title, const sim::SessionResult& sr,
    const std::vector<std::size_t>& classes, const metrics::QoeConfig& qoe,
    const metrics::QoeModelSuite& qoe_suite, bool experiment_on,
    std::vector<std::uint64_t>& title_track_hits,
    std::vector<std::uint64_t>& title_track_total);

/// Streaming accumulator for the session-id-order fold that produces the
/// fleet-wide and per-class aggregates. Feeding records through add() in
/// ascending session-id order is bitwise identical to the historical
/// vector-then-fold pass: every accumulator (including the Jain sum /
/// sum-of-squares pairs, which replicate stats::jain_index's single
/// forward pass) sees the same additions in the same order.
struct SessionFold {
  std::uint64_t count = 0;
  double quality_sum = 0.0;
  double quality_sum_sq = 0.0;
  double bits_sum = 0.0;
  double bits_sum_sq = 0.0;

  /// Folds one record into `result` (edge/origin bits, watchdog count,
  /// per-class partial sums) and the Jain accumulators. result.per_class
  /// must already be sized and labeled.
  void add(FleetResult& result, const FleetSessionRecord& rec);

  /// stats::jain_index over a sequence summarized as (n, sum, sum_sq) —
  /// the exact same arithmetic, so streaming equals materializing.
  [[nodiscard]] static double jain(std::uint64_t n, double sum,
                                   double sum_sq);
};

/// Telemetry fold: per-session sinks written onto one monotone global
/// stream through obs::fold_traces, registries merged, in session-id order.
/// The streaming drain folds one session at a time (add); every other path
/// folds all sessions after the join (add_all). Each destination sees its
/// own additions in the same order either way, so the bytes are the same.
struct TelemetryFold {
  obs::TraceSink* trace = nullptr;         ///< Optional destination.
  obs::MetricsRegistry* metrics = nullptr; ///< Optional destination.
  unsigned threads = 1;                    ///< Encoders for add_all.
  std::uint64_t global_seq = 0;
  /// Wall seconds spent writing the trace (FleetRunStats::telemetry_fold_s
  /// of the streaming drain).
  double trace_s = 0.0;

  /// Folds one session's telemetry (either may be null) on this thread.
  void add(std::unique_ptr<obs::MemoryTraceSink>& sink,
           const obs::MetricsRegistry* registry);
  /// Folds every session: the registries, then the traces on `threads`.
  void add_all(std::vector<std::unique_ptr<obs::MemoryTraceSink>>& sinks,
               const std::vector<std::unique_ptr<obs::MetricsRegistry>>&
                   registries);
  /// Flushes the trace destination (call once, after the last add).
  void finish();
};

/// Borrowed views of run_fleet's setup, handed to the event engine. Every
/// reference points at a local of the calling run_fleet invocation and is
/// valid for the duration of run_fleet_event only.
struct EngineContext {
  const FleetSpec& spec;
  const Catalog& catalog;
  const std::vector<double>& arrivals;
  const std::vector<FleetClientClass>& fleet_classes;
  const std::vector<SessionDraw>& draws;
  const std::vector<std::vector<std::size_t>>& by_title;
  const metrics::QoeModelSuite& qoe_suite;
  const EdgeCacheConfig& shard_cfg;
  const CdnModel* cdn_model;  ///< Null unless the CDN hierarchy is on.
  const sim::EstimatorFactory& default_estimator;

  bool experiment_on = false;
  bool telemetry_on = false;
  bool cdn_on = false;
  bool crash_safety_on = false;
  std::size_t max_tracks = 0;
  unsigned threads = 1;
  std::uint64_t fp = 0;      ///< Spec fingerprint (0 unless crash safety).
  std::uint64_t exp_fp = 0;  ///< Experiment fingerprint.
  std::uint64_t initial_done = 0;    ///< Sessions restored from a resume.
  std::uint64_t initial_events = 0;  ///< events_done restored from a resume.
  /// Resume only: per-session completed bitmap (size n); null on a fresh
  /// run.
  const std::vector<std::uint8_t>* resumed_completed = nullptr;
  /// Checkpoint journal writer; null unless FleetSpec::checkpoint_path is
  /// set.
  CheckpointJournal* journal = nullptr;

  // Mutable per-title / per-session state owned by run_fleet.
  std::vector<std::size_t>& done_in_title;
  std::vector<std::unique_ptr<EdgeCache>>& shards;
  std::vector<EdgeCacheStats>& shard_stats;
  std::vector<TitleCdnState>& cdn_states;
  std::vector<std::vector<std::uint64_t>>& track_hits;
  std::vector<std::vector<std::uint64_t>>& track_total;
  std::vector<std::unique_ptr<obs::MemoryTraceSink>>& sinks;
  std::vector<std::unique_ptr<obs::MetricsRegistry>>& registries;
  FleetResult& result;
  SessionFold& fold;            ///< Fed by the engine when streaming.
  TelemetryFold& telemetry_fold;
};

}  // namespace vbr::fleet::detail
