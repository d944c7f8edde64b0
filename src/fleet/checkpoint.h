// Crash-safe fleet checkpoints: periodic snapshots of run_fleet progress
// that resume to byte-identical output.
//
// Why this is possible at all: every workload draw in the fleet layer is a
// counter-based pure function of (seed, session index) — there is no
// mutable RNG state to capture — and every fold is in title/session order.
// The whole resumable state is therefore: which sessions completed (a done
// count per title, since each title's sessions run serially in arrival
// order), their FleetSessionRecords, their private telemetry, the per-title
// track aggregates, and the live edge-cache shard contents of in-progress
// titles. A checkpoint captures exactly that; resuming replays only the
// remaining sessions against restored shards, so the final FleetResult,
// report JSON, and merged telemetry are byte-for-byte what an uninterrupted
// run produces, at any thread count.
//
// The checkpoint *file* is NOT deterministic above one thread (which
// sessions have finished when the snapshot fires depends on the thread
// schedule); only resume-to-final-output is, and that is the property the
// tests pin. Each session's block is the same at any thread count.
//
// Snapshot safety: checkpoints are taken at a cooperative barrier — every
// worker parks at a session boundary (the event engine: between event
// batches) — so a snapshot never sees a half-run session. The barrier
// holds only the capture of a segment; its sessions were encoded by the
// threads that completed them, and the commit to disk runs after the
// barrier's release (CheckpointJournal below).
//
// The file is an append-only journal ("VBRFLEETCKPT 5"). Each snapshot
// appends one segment: a header line (segment number, engine, events done,
// fingerprints, geometry, sessions done), the small shared state (per-title
// done counts, track rows, shard / regional / in-flight contents of
// in-progress titles), and only the sessions completed since the previous
// capture, closed by its own "end <8hex>" FNV-1a trailer. Checkpoint work
// is therefore O(new sessions) per snapshot, not O(run). Durability follows
// the durable JSONL sinks (obs/jsonl_io.h): the first segment of a fresh
// run replaces any old file atomically (temp file + fsync + rename +
// directory fsync); later segments are appended and fsynced. A segment is
// durable when its fsync returns; sessions that complete while a commit
// runs land in the next segment. A torn or checksum-failing *final*
// segment is the expected crash signature and load() drops it; a resumed
// run truncates the file to the last good segment before it appends. A
// damaged *interior* segment is a CheckpointError naming the segment.
// load() also rejects bad magic, other versions (including the whole-file
// v3/v4 snapshots), malformed fields, and inconsistent segment sequences;
// run_fleet rejects a spec fingerprint that does not match the running
// spec (a stale checkpoint from a different workload) and a journal
// written by the other engine — each with a named CheckpointError.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/cdn.h"
#include "fleet/edge_cache.h"
#include "fleet/fleet.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace vbr::fleet {

/// A checkpoint that cannot be used: bad magic, unsupported version,
/// truncation, trailer mismatch, or a spec fingerprint that does not match
/// the running FleetSpec. The message names what was wrong.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by run_fleet when a KillSchedule fires: the fleet stopped
/// cooperatively at a session boundary after writing a final checkpoint
/// (when FleetSpec::checkpoint_path is set). Carries how far the run got.
class FleetKilled : public std::runtime_error {
 public:
  FleetKilled(std::uint64_t sessions_completed, std::string checkpoint_path)
      : std::runtime_error(
            "run_fleet: killed by schedule after " +
            std::to_string(sessions_completed) + " sessions" +
            (checkpoint_path.empty() ? std::string(" (no checkpoint)")
                                     : " (checkpoint: " + checkpoint_path +
                                           ")")),
        sessions_completed_(sessions_completed),
        checkpoint_path_(std::move(checkpoint_path)) {}

  [[nodiscard]] std::uint64_t sessions_completed() const {
    return sessions_completed_;
  }
  [[nodiscard]] const std::string& checkpoint_path() const {
    return checkpoint_path_;
  }

 private:
  std::uint64_t sessions_completed_;
  std::string checkpoint_path_;
};

/// Hash of everything that defines the workload a checkpoint belongs to:
/// seeds, catalog, arrivals, classes (label/weight/fault/retry and which
/// factories are attached), watch model, cache config, session config,
/// QoE config, full trace contents, and whether telemetry is collected.
/// Deliberately EXCLUDES execution knobs that cannot change any output
/// byte: threads, title_batch, checkpoint/resume/kill/throttle settings.
/// Class factories themselves cannot be hashed — the label stands in for
/// the scheme identity, so resuming with a different scheme under the same
/// label is undetectable (documented sharp edge).
[[nodiscard]] std::uint64_t fleet_spec_fingerprint(const FleetSpec& spec);

/// Hash of the experiment block alone (enabled flag, assignment seed,
/// stratum count, QoE-model scoring, and every arm's label/weight/fault/
/// retry/factory shape). Folded into fleet_spec_fingerprint AND stored
/// separately in the checkpoint, so resuming under a different arm table
/// fails with an error naming FleetSpec.experiment instead of a generic
/// fingerprint mismatch. 0 is never returned (a disabled block hashes to a
/// fixed non-zero value).
[[nodiscard]] std::uint64_t fleet_experiment_fingerprint(const FleetSpec& spec);

/// A checkpoint journal: the ordered segments of one run's snapshots. See
/// the header comment for the determinism argument and the on-disk format.
struct FleetCheckpoint {
  /// The journal format ("VBRFLEETCKPT 5"). Versions 3 and 4 were
  /// whole-file snapshots rewritten at every checkpoint; load() rejects them
  /// with an error naming the version.
  static constexpr std::uint32_t kVersion = 5;

  /// Progress of one title that has at least one completed session. A
  /// title's sessions run serially in arrival order, so `done` fully
  /// locates the resume point within it.
  struct TitleState {
    std::uint64_t index = 0;
    std::uint64_t done = 0;   ///< Completed sessions of this title.
    std::uint64_t total = 0;  ///< All sessions of this title.
    EdgeCacheStats stats;     ///< Shard stats at capture time.
    /// In-progress titles with the cache model on carry their live shard
    /// contents (MRU-first); completed titles only need `stats`.
    bool has_shard = false;
    std::vector<EdgeCacheEntrySnapshot> shard_entries;
    std::vector<std::uint64_t> track_hits;   ///< Sized to max_tracks.
    std::vector<std::uint64_t> track_total;  ///< Sized to max_tracks.

    // CDN hierarchy state (fleet/cdn.h). All-zero / empty when the spec's
    // CDN is disabled; serialized unconditionally so the format is uniform.
    std::uint64_t cdn_requests = 0;           ///< Shed-draw counter.
    std::uint64_t cdn_consecutive_sheds = 0;  ///< Backoff ladder position.
    CdnStats cdn_stats;
    EdgeCacheStats regional_stats;
    /// In-progress titles with the CDN on carry their live regional slice
    /// (MRU-first) and open coalescing fetch windows (key order).
    bool has_regional = false;
    std::vector<EdgeCacheEntrySnapshot> regional_entries;
    std::vector<std::pair<std::uint64_t, CdnInflight>> inflight;
  };

  /// One completed session: its record plus its private telemetry (events
  /// and metrics registry), exactly as the post-join fold will consume
  /// them. Present only for the telemetry streams the spec collects.
  struct SessionState {
    FleetSessionRecord record;
    bool has_events = false;
    std::vector<obs::DecisionEvent> events;
    bool has_metrics = false;
    obs::MetricsRegistry metrics;
  };

  /// One appended snapshot. The header fields and `titles` describe the
  /// whole run at capture time; `sessions` holds only the sessions this
  /// segment journaled first. Resume takes the last segment's header and
  /// titles and the union of every segment's sessions.
  struct Segment {
    /// The engine that wrote the segment. The engines locate the resume
    /// point differently (per-title done prefixes vs an arbitrary completed
    /// set), so run_fleet refuses a journal from the other engine, naming
    /// FleetSpec.engine. The spec fingerprint is engine-invariant.
    FleetEngine engine = FleetEngine::kStepped;
    /// Event engine: events processed at capture; resume re-anchors the
    /// event-count checkpoint cadence here. 0 under the stepper.
    std::uint64_t events_done = 0;
    std::uint64_t spec_fingerprint = 0;
    /// fleet_experiment_fingerprint(spec) at capture time; checked first on
    /// resume so a changed arm table gets a field-named error.
    std::uint64_t experiment_fingerprint = 0;
    std::uint64_t num_sessions = 0;  ///< Total sessions of the run.
    std::uint64_t num_titles = 0;
    std::uint64_t max_tracks = 0;
    /// Completed sessions at capture: this segment's plus every earlier
    /// segment's.
    std::uint64_t sessions_done = 0;
    std::vector<TitleState> titles;
    std::vector<SessionState> sessions;  ///< Session-id order.
  };
  std::vector<Segment> segments;  ///< Journal order; load() keeps >= 1.

  /// Set by load(): the length of the accepted segment prefix. It is the
  /// file size unless a torn final segment was dropped.
  std::uint64_t good_bytes = 0;

  /// Writes every segment to `path` atomically: temp file + fsync + rename
  /// + directory fsync. save(load(f)) reproduces f byte for byte (less a
  /// dropped torn tail). Throws std::system_error (carrying errno) on any
  /// I/O failure — a checkpoint that silently failed to persist is worse
  /// than none.
  void save(const std::string& path) const;

  /// Loads and fully validates a journal, dropping a torn or checksum-
  /// failing final segment. Throws CheckpointError naming the problem
  /// (magic, version, damaged segment number, malformed field, inconsistent
  /// segment sequence, no complete segment); throws std::system_error when
  /// the file cannot be opened or read.
  [[nodiscard]] static FleetCheckpoint load(const std::string& path);
};

/// The in-run writer of a checkpoint journal, shared by both engines. A
/// segment is written in three stages, and only the middle one needs the
/// checkpoint barrier:
///
///  1. encode(): the thread that completed a session serializes its block
///     (record, events, metrics) once, before the session counts as done;
///  2. capture(): at the barrier, the segment head (header line and title
///     states) is serialized and the fresh sessions' blocks are moved out,
///     in id order; the journal's segment count, length and journaled set
///     advance here;
///  3. commit(): after the barrier is released, the trailer is hashed over
///     head and blocks and all of it is written with positioned vector
///     writes (no concatenated copy), then fsynced.
///
/// The bytes are those FleetCheckpoint::save writes for the loaded journal:
/// both use the same serializers.
class CheckpointJournal {
 public:
  /// A captured segment that commit() has not written yet. Move-only; it
  /// owns its head and blocks until the commit frees them.
  class PendingSegment {
   public:
    PendingSegment(PendingSegment&&) = default;
    PendingSegment& operator=(PendingSegment&&) = default;

   private:
    friend class CheckpointJournal;
    PendingSegment() = default;
    std::uint64_t number_ = 0;  ///< 1-based segment number in the file.
    std::uint64_t offset_ = 0;  ///< Length of the segments before it.
    std::string head_;
    std::vector<std::string> blocks_;  ///< Session-id order.
  };

  CheckpointJournal(std::string path, std::size_t num_sessions);

  /// Continues the journal a resumed run loaded: its sessions count as
  /// journaled, segment numbers continue after its last segment, and the
  /// first commit truncates the file to `ck.good_bytes` (dropping any torn
  /// tail).
  void resume_from(const FleetCheckpoint& ck);

  /// Encode: serializes the block of session `rec.session_id`. `events` /
  /// `metrics` are null when the spec does not collect that stream. Threads
  /// may encode distinct sessions concurrently; a session must be encoded
  /// before any capture() that counts it done.
  void encode(const FleetSessionRecord& rec,
              const obs::MemoryTraceSink* events,
              const obs::MetricsRegistry* metrics);

  /// Capture: `head` supplies the header fields and title states (its
  /// `sessions` are ignored); the segment's sessions are those of
  /// `done_sids` (any order) not yet journaled, whose encoded blocks move
  /// into the result. `started` is when the caller began building `head`;
  /// the time since is this capture's share of the run stats. Needs every
  /// encoder parked. Throws std::logic_error for a done session that was
  /// never encoded.
  [[nodiscard]] PendingSegment capture(
      const FleetCheckpoint::Segment& head,
      const std::vector<std::size_t>& done_sids,
      std::chrono::steady_clock::time_point started);

  /// Commit: writes one captured segment. The first segment of a fresh
  /// journal replaces any file at the path atomically; later ones are
  /// written after the segments before them (truncating anything beyond)
  /// and fsynced. Segments must be committed one at a time in capture
  /// order — the caller's barrier provides that — or std::logic_error.
  /// Throws std::system_error on I/O failure; the journal then writes
  /// nothing more, so the file ends with the last segment that committed
  /// (plus at most a torn tail, which load() drops).
  void commit(PendingSegment seg);

  /// Segments and bytes this run appended and where their time went.
  [[nodiscard]] const FleetRunStats& stats() const { return stats_; }

 private:
  std::string path_;
  std::vector<std::uint8_t> journaled_;  ///< Per session id.
  std::vector<std::string> blocks_;      ///< Encoded, not yet captured.
  std::uint64_t segments_ = 0;           ///< Segments captured.
  std::uint64_t bytes_ = 0;              ///< Length of those segments.
  std::uint64_t committed_ = 0;          ///< Segments committed.
  bool broken_ = false;                  ///< A commit failed.
  FleetRunStats stats_;
};

}  // namespace vbr::fleet
