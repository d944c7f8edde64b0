// Fleet-scale workload driver.
//
// Composes the catalog (Zipf popularity), the arrival processes, the
// edge-cache/origin delivery model, and the per-session simulator into one
// deterministic "day in the life of a CDN region": sessions arrive over
// time, each picks a title by popularity, a client class by mix weight, a
// network trace, and a watch duration, then streams through a per-title
// edge-cache shard.
//
// Determinism discipline (unit-tested at 1, 2, and 8 worker threads):
//   - every per-session draw (title, class, trace, watch duration) is a
//     counter-based pure function of (spec.seed, session index);
//   - the edge cache is sharded per title, and each shard's sessions run
//     serially in arrival order on whichever worker claimed the title —
//     workers claim titles in batches (FleetSpec::title_batch) to amortize
//     the atomic claim, but shard state never depends on the thread
//     schedule or the batch size;
//   - telemetry goes to private per-session sinks folded in session-id
//     order after the workers join, exactly run_experiment's discipline;
//   - aggregate report fields are folded in title order / session order,
//     never worker order.
// Consequence: run_fleet output (including serialized JSONL telemetry and
// the report JSON) is byte-identical at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "fleet/arrivals.h"
#include "fleet/catalog.h"
#include "fleet/cdn.h"
#include "fleet/edge_cache.h"
#include "metrics/report.h"
#include "net/trace.h"
#include "sim/experiment.h"

namespace vbr::fleet {

/// One heterogeneous client population (a scheme + resilience + metadata
/// profile) with a mix weight. Arriving sessions draw their class with
/// probability proportional to `weight`.
struct FleetClientClass {
  std::string label;              ///< Report key (e.g. "cava", "bola-lte").
  /// Required. Workers build one scheme per class and reuse it across the
  /// sessions they run (run_session resets scheme state up front), so the
  /// factory is called O(threads), not O(sessions).
  sim::SchemeFactory make_scheme;
  sim::EstimatorFactory make_estimator;  ///< Empty = default harmonic mean.
  sim::SizeProviderFactory make_size_provider;  ///< Empty = exact sizes.
  net::FaultConfig fault;   ///< Per-class fault profile (default: none).
  sim::RetryPolicy retry;   ///< Consulted when `fault` is enabled.
  double weight = 1.0;      ///< Relative arrival share (> 0).
};

/// Watch-duration / early-abandon distribution: with probability
/// `full_watch_prob` a viewer watches to the end; otherwise they leave
/// after min_watch_s plus an Exp(mean_partial_s) tail.
struct WatchConfig {
  double full_watch_prob = 0.6;
  double mean_partial_s = 45.0;  ///< Mean of the partial-watch tail.
  double min_watch_s = 5.0;      ///< Everyone watches at least this much.

  /// Throws std::invalid_argument on a probability outside [0, 1] or
  /// non-positive tail mean / negative minimum.
  void validate() const;
};

/// Cooperative in-process kill: the chaos harness's way of aborting a
/// fleet mid-run at a session boundary. When `after_sessions` completed
/// sessions have been counted, every worker parks at its next session
/// boundary, a final checkpoint is written (when checkpointing is on), and
/// run_fleet throws FleetKilled. 0 = never fires.
struct KillSchedule {
  std::uint64_t after_sessions = 0;

  /// A seeded random kill point in [1, num_sessions] — `round` varies the
  /// draw so a soak loop kills somewhere new each iteration.
  [[nodiscard]] static KillSchedule random(std::uint64_t seed,
                                           std::uint64_t round,
                                           std::uint64_t num_sessions);
};

/// In-situ A/B experiment block ("Learning in situ", PAPERS.md): arriving
/// sessions are assigned to one of N arms by seeded, counter-based
/// randomization, stratified by trace class (bandwidth-rank bucket of the
/// drawn trace) and title-popularity decile. Within each stratum the arms
/// are balanced by permuted blocks: session counts per arm differ by at
/// most one, and the assignment is a pure function of
/// (experiment.seed, stratum, per-stratum arrival counter) — byte-identical
/// at any thread count and invariant to title_batch.
///
/// When enabled (non-empty `arms`), the arms ARE the client classes:
/// FleetSpec::classes must be left empty, class_index doubles as the arm
/// index, and all per-class machinery (scheme reuse, per-class report,
/// folds) applies per arm. Arms override the client-side profile (scheme /
/// estimator / size provider / fault / retry); the delivery path (cache,
/// CDN) is shared infrastructure and stays common to all arms — that is
/// what makes the experiment "in situ". Arm `weight` is ignored: assignment
/// is balanced, not weighted.
struct FleetExperimentConfig {
  std::vector<FleetClientClass> arms;  ///< Empty = no experiment.
  /// Assignment randomization seed, independent of FleetSpec::seed so the
  /// workload (titles, traces, watch times) is identical across
  /// re-randomizations.
  std::uint64_t seed = 1001;
  /// Number of bandwidth-rank buckets over spec.traces (stratum count =
  /// trace_strata * 10 popularity deciles). Must be in [1, 64].
  std::size_t trace_strata = 4;
  /// Score every session under the pluggable QoE-model suite
  /// (metrics::QoeModelSuite::standard) into FleetSessionRecord::qoe_scores.
  bool score_qoe_models = true;

  [[nodiscard]] bool enabled() const { return !arms.empty(); }
};

/// Which execution engine run_fleet dispatches to. Both engines produce
/// byte-identical FleetResult JSON and merged telemetry for the same spec
/// (the differential suite pins it); they differ in how sessions are
/// scheduled and what scale they reach.
enum class FleetEngine {
  /// Per-session stepper: workers claim titles in batches and run each
  /// session to completion. The original engine; the default.
  kStepped,
  /// Shared-virtual-time event engine (fleet/engine.h): every session's
  /// next chunk decision is an event on one global timeline keyed by
  /// (virtual_time, session_id), so uncoupled sessions genuinely
  /// interleave — 100k+ concurrently in flight — while titles with shared
  /// delivery state (use_cache) are chained in arrival order to preserve
  /// the stepper's per-title state sequence byte for byte.
  kEvent,
};

/// Execution counters of the event engine (all zero under kStepped).
/// Deliberately NOT serialized by FleetResult::write_json: the report's
/// bytes must not depend on which engine produced it.
struct FleetEngineStats {
  std::uint64_t events_processed = 0;  ///< Chunk-decision events handled.
  std::uint64_t peak_in_flight = 0;    ///< Concurrent open sessions (HWM).
  std::uint64_t max_heap_size = 0;     ///< Event-queue high-water mark.
  /// Streaming-aggregation reorder buffer high-water mark: completed
  /// records waiting for a lower session id — the evidence that streaming
  /// never materializes all per-session records.
  std::uint64_t peak_resident_records = 0;
};

/// Declarative description of a whole fleet run.
struct FleetSpec {
  CatalogConfig catalog;
  ArrivalConfig arrivals;
  /// Non-empty with weights > 0 — unless `experiment` is enabled, in which
  /// case this must be empty (the arms take over the class slots).
  std::vector<FleetClientClass> classes;
  /// In-situ A/B experiment (optional). See FleetExperimentConfig.
  FleetExperimentConfig experiment;
  /// Per-session network traces; each session draws one uniformly.
  std::span<const net::Trace> traces;

  /// Edge-cache model. `cache.capacity_bits` is the TOTAL capacity, split
  /// evenly across per-title shards. `use_cache = false` detaches the
  /// delivery model entirely (direct origin delivery, no latency, no
  /// haircut) — the control arm for cache experiments.
  EdgeCacheConfig cache;
  bool use_cache = true;

  /// Multi-tier CDN hierarchy (fleet/cdn.h): edge -> regional -> origin
  /// with coalescing, fault domains, brownouts, and load shedding.
  /// `cdn.enabled` requires `use_cache` (the hierarchy extends the edge
  /// tier); disabled leaves the flat model byte-for-byte untouched.
  CdnConfig cdn;

  WatchConfig watch;

  /// Shared per-session base config. Telemetry sinks, size providers, and
  /// download hooks must be null here — run_fleet owns all three (throws
  /// otherwise).
  sim::SessionConfig session;
  video::QualityMetric metric = video::QualityMetric::kVmafPhone;
  metrics::QoeConfig qoe;

  /// Worker threads; 0 = hardware concurrency. Bounded by sim::kMaxThreads.
  unsigned threads = 0;
  /// Titles claimed per atomic fetch_add when workers pull work. Batching
  /// amortizes the claim (and the per-worker warm-up of reusable schemes /
  /// providers) across several titles; it cannot affect results, because
  /// every fold is in title/session order regardless of who ran what.
  /// Must be >= 1 (validated).
  std::size_t title_batch = 4;
  /// Master workload seed: drives the per-session draws (title, class,
  /// trace, watch duration). Independent of catalog.seed (content) and
  /// arrivals.seed (timing).
  std::uint64_t seed = 7;

  /// Execution engine (see FleetEngine). Pure execution knob: it is
  /// excluded from the checkpoint spec fingerprint, and every output byte
  /// is identical across engines for the same spec.
  FleetEngine engine = FleetEngine::kStepped;
  /// Event engine only: fold each completed session straight into the
  /// aggregate report through a session-id-ordered reorder drain
  /// (obs/fold.h) and discard its record, so FleetResult::sessions stays
  /// empty and resident memory is O(sessions in flight), not O(sessions).
  /// Aggregates (report JSON, merged telemetry, metrics) are byte-identical
  /// to the materializing path. Incompatible with checkpoint / kill /
  /// resume, which persist the very records streaming discards (validated).
  bool stream_aggregation = false;

  /// Merged telemetry destinations (optional, not owned); same fold
  /// discipline as ExperimentSpec.
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  // --- Crash safety (see fleet/checkpoint.h) ---------------------------
  /// Checkpoint file; empty = checkpointing off. Written atomically
  /// (temp + rename) at the periodic barrier and when a kill fires.
  std::string checkpoint_path;
  /// Periodic-checkpoint cadence: completed sessions between snapshots
  /// under the per-session stepper, processed EVENTS (chunk decisions)
  /// under the event engine, whose barriers land between fixed-size event
  /// batches. 0 = no periodic checkpoints (a kill still writes a final one
  /// when a path is set).
  std::uint64_t checkpoint_every = 64;
  /// Resume from `checkpoint_path` when that file exists (absent file =
  /// fresh run, so one flag serves every iteration of a kill/resume loop).
  /// The checkpoint's spec fingerprint must match this spec; a stale or
  /// corrupt file is rejected with a CheckpointError.
  bool resume = false;
  /// Cooperative chaos kill (0 = off).
  KillSchedule kill;
  /// Wall-clock sleep per completed session, microseconds. Purely a chaos
  /// aid: it stretches a run so an external SIGKILL can land mid-flight,
  /// and cannot affect any output byte (nothing reads the wall clock).
  std::uint64_t throttle_us = 0;

  /// Validates the whole spec with field-named errors ("FleetSpec.<field>:
  /// ..."): empty class list, zero/negative mix weights, missing scheme
  /// factories, zero title_batch, empty trace set, thread cap, misplaced
  /// session sinks, and every nested config's own validate(). run_fleet
  /// calls this first; call it directly to fail fast before a long setup.
  void validate() const;
};

/// Outcome of one fleet session, in arrival order.
struct FleetSessionRecord {
  std::uint64_t session_id = 0;  ///< Arrival index; telemetry session_id.
  double arrival_s = 0.0;
  std::size_t title = 0;
  /// Client-class index — in an experiment run, the arm index.
  std::size_t class_index = 0;
  std::size_t trace_index = 0;
  /// Experiment stratum: trace_bucket * 10 + popularity decile. 0 outside
  /// experiment runs.
  std::uint32_t stratum = 0;
  double watch_duration_s = 0.0;  ///< 0 = watched to the end.
  metrics::QoeSummary qoe;
  metrics::FaultSummary faults;
  std::size_t chunks = 0;      ///< Chunks resolved (delivered or skipped).
  std::size_t edge_hits = 0;   ///< Delivered chunks served from the edge.
  double edge_hit_bits = 0.0;  ///< Bytes of delivered chunks served at edge.
  double origin_bits = 0.0;    ///< Bytes of delivered chunks from origin.
  // CDN-tier outcomes (all zero when FleetSpec::cdn is disabled).
  std::size_t regional_hits = 0;     ///< Chunks served by the regional tier.
  std::size_t coalesced_chunks = 0;  ///< Chunks joined to an in-flight fetch.
  std::size_t shed_chunks = 0;       ///< Chunks penalized by load shedding.
  double regional_bits = 0.0;        ///< Bytes served by the regional tier.
  bool watchdog_aborted = false;  ///< Session hit a watchdog budget.
  /// Per-QoE-model session scores, ordered like FleetResult::
  /// qoe_model_names. Filled only on experiment runs with
  /// score_qoe_models on; empty otherwise.
  std::vector<double> qoe_scores;
};

/// Per-class QoE aggregate (the "QoE distribution per scheme" view).
struct FleetSchemeReport {
  std::string label;
  std::size_t sessions = 0;
  double mean_all_quality = 0.0;
  double mean_q4_quality = 0.0;
  double mean_low_quality_pct = 0.0;
  double mean_rebuffer_s = 0.0;
  double mean_startup_delay_s = 0.0;
  double mean_data_usage_mb = 0.0;
  /// Mean per-model QoE score, ordered like FleetResult::qoe_model_names
  /// (experiment runs only; empty otherwise).
  std::vector<double> mean_qoe_scores;
};

/// Where a run's wall time went. NOT deterministic: the numbers depend on
/// the machine, the disk and the thread schedule. Never written by
/// write_json and part of no golden; the report bytes do not depend on it.
struct FleetRunStats {
  /// Checkpoint segments this run appended (a resumed run counts only its
  /// own) and their length in bytes.
  std::uint64_t checkpoint_segments = 0;
  std::uint64_t checkpoint_bytes = 0;
  /// Wall seconds spent capturing segments while every worker was parked
  /// at the checkpoint barrier (title states, moving the session blocks).
  double checkpoint_capture_s = 0.0;
  /// Wall seconds spent committing them after the barrier's release
  /// (trailer hash, write, fsync), while the other workers ran on.
  double checkpoint_commit_s = 0.0;
  /// Wall seconds from the end of the sessions (the worker join) to the
  /// last write of the JSONL telemetry fold; under streaming aggregation,
  /// the seconds the drain spent writing the trace. 0 without a trace sink.
  double telemetry_fold_s = 0.0;
};

/// Complete fleet outcome + report.
struct FleetResult {
  /// Sessions executed. Always set by run_fleet; under streaming
  /// aggregation it is the only record of the count (`sessions` stays
  /// empty). write_json prefers it over sessions.size() when non-zero.
  std::uint64_t total_sessions = 0;
  std::vector<FleetSessionRecord> sessions;  ///< Arrival order.
  /// Ordered like spec.classes — or like spec.experiment.arms when the
  /// experiment is enabled (one row per arm).
  std::vector<FleetSchemeReport> per_class;

  /// Experiment echo: enabled flag and the QoE-model suite ordering behind
  /// FleetSessionRecord::qoe_scores. The report JSON gains an "experiment"
  /// block only when enabled, so pre-A/B reports keep their bytes.
  bool experiment_enabled = false;
  std::vector<std::string> qoe_model_names;

  bool cache_enabled = false;
  EdgeCacheStats cache;  ///< Summed over per-title shards, title order.
  double edge_hit_bits = 0.0;  ///< Delivered bytes served from the edge.
  double origin_bits = 0.0;    ///< Delivered bytes egressed from the origin.

  /// CDN hierarchy aggregates (fleet/cdn.h), folded in title order.
  bool cdn_enabled = false;
  CdnStats cdn;
  EdgeCacheStats regional;  ///< Regional-tier cache stats, title order.
  /// Upstream fetches per client request — the retry-amplification number
  /// (satellite of the report): with the flat cache model this is the miss
  /// ratio; with the CDN it is (regional hits + origin fetches) / requests;
  /// 1.0 with the cache model off.
  double upstream_fetch_ratio = 0.0;
  /// Delivered-chunk hit ratio per track index (0 when a track saw no
  /// fetches). Sized to the widest title.
  std::vector<double> hit_ratio_by_track;
  /// Delivered-chunk hit ratio per popularity decile (10 entries; 0 =
  /// hottest tenth of the catalog).
  std::vector<double> hit_ratio_by_popularity_decile;

  // Cross-session fairness over per-session outcomes (stats::jain_index).
  double jain_quality = 0.0;  ///< Over per-session mean delivered quality.
  double jain_bits = 0.0;     ///< Over per-session data usage.

  /// Sessions aborted by the per-session watchdog (counted, not hidden:
  /// a pathological session is a result, not a hang).
  std::uint64_t watchdog_aborted_sessions = 0;

  /// Event-engine execution counters (zeros under kStepped). Not written
  /// by write_json — report bytes are engine-invariant.
  FleetEngineStats engine_stats;
  /// Run stats (see FleetRunStats): the checkpoint fields are zeros
  /// without a checkpoint path, telemetry_fold_s without a trace sink.
  FleetRunStats run_stats;

  /// Serializes the fleet report (cache + fairness + per-class QoE) as one
  /// JSON object, byte-deterministic (obs json_util writers).
  void write_json(std::ostream& out) const;
};

/// Runs the whole fleet. Throws std::invalid_argument on a malformed spec
/// or an arrival config that yields zero sessions; CheckpointError on a
/// stale/corrupt resume checkpoint; std::system_error on checkpoint I/O
/// failure; FleetKilled when the kill schedule fires (both defined in
/// fleet/checkpoint.h).
[[nodiscard]] FleetResult run_fleet(const FleetSpec& spec);

}  // namespace vbr::fleet
