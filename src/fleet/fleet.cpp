#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/complexity_classifier.h"
#include "fleet/checkpoint.h"
#include "fleet/engine.h"
#include "fleet/fleet_internal.h"
#include "fleet/rng.h"
#include "metrics/qoe_model.h"
#include "obs/fold.h"
#include "obs/json_util.h"

namespace vbr::fleet {

namespace {

// Draw salts: one per independent per-session decision stream.
constexpr std::uint64_t kSaltZipf = 0xf1ee70;
constexpr std::uint64_t kSaltClass = 0xf1ee71;
constexpr std::uint64_t kSaltTrace = 0xf1ee72;
constexpr std::uint64_t kSaltWatchFull = 0xf1ee73;
constexpr std::uint64_t kSaltWatchTail = 0xf1ee74;
constexpr std::uint64_t kSaltArmPerm = 0xf1ee75;

// SessionDraw lives in fleet_internal.h now — both engines consume it.
using detail::SessionDraw;

/// Bandwidth-rank bucket per trace: traces sorted by mean sample bandwidth
/// (ties by index), rank mapped onto `strata` equal buckets. Pure function
/// of the trace set, so every thread count sees the same stratification.
std::vector<std::size_t> trace_rank_buckets(std::span<const net::Trace> traces,
                                            std::size_t strata) {
  const std::size_t m = traces.size();
  std::vector<double> mean_bps(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto& samples = traces[i].samples_bps();
    double acc = 0.0;
    for (const double s : samples) acc += s;
    mean_bps[i] = samples.empty()
                      ? 0.0
                      : acc / static_cast<double>(samples.size());
  }
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return mean_bps[a] < mean_bps[b];
                   });
  std::vector<std::size_t> bucket(m, 0);
  for (std::size_t rank = 0; rank < m; ++rank) {
    bucket[order[rank]] = rank * strata / m;
  }
  return bucket;
}

/// Permuted-block arm assignment: the `pos`-th session of block `block` in
/// stratum `stratum` gets the `pos`-th entry of a seeded Fisher-Yates
/// permutation of [0, num_arms). Counter-based (no RNG stream), so the
/// assignment depends only on (seed, stratum, block, pos).
std::size_t permuted_block_arm(std::uint64_t seed, std::uint32_t stratum,
                               std::uint64_t block, std::size_t pos,
                               std::size_t num_arms) {
  std::vector<std::size_t> perm(num_arms);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = num_arms - 1; i > 0; --i) {
    const double u = detail::keyed_u01(seed, stratum,
                                       block * num_arms + i, kSaltArmPerm);
    const std::size_t j = std::min(
        i, static_cast<std::size_t>(u * static_cast<double>(i + 1)));
    std::swap(perm[i], perm[j]);
  }
  return perm[pos];
}

/// Session-boundary barrier for checkpoints and cooperative kills.
///
/// Workers call on_session_complete() after every session. When a
/// checkpoint (or kill) is due, every active worker parks here; the last
/// arriver — or a worker exiting while the rest are parked — performs the
/// barrier. Under the mutex it only *captures* the segment: the title
/// states plus the session blocks the workers encoded as they completed
/// their sessions (CheckpointJournal, checkpoint.h). It then releases
/// everyone and, outside the lock, *commits* the segment to disk while the
/// others simulate on. Because all workers sit at session boundaries
/// during the capture, it can never observe a half-run session, and the
/// mutex hand-off makes each worker's plain writes (done counts, shard
/// contents, records, blocks) visible to the performer.
///
/// Ordering rule: a performer stays counted as active until its commit is
/// on disk. The next capture needs every active worker parked, so segment
/// n+1 cannot be captured, let alone committed, before segment n's commit
/// returned (segment 1's atomic rename precedes segment 2's append). A
/// worker that performs from worker_exit therefore commits first and
/// decrements active_ after.
///
/// A capture or commit failure stops the fleet and propagates to the
/// performer's caller, whose worker loop hands it to record_error: a full
/// disk surfaces as one std::system_error from run_fleet, never as a
/// deadlocked worker pool or an exception escaping a thread.
class CheckpointCoordinator {
 public:
  using Segment = std::optional<CheckpointJournal::PendingSegment>;

  /// `capture_fn` captures one segment at the barrier, given the sessions
  /// done so far. It runs only with a journal; `journal` is null when no
  /// checkpoint path is set.
  CheckpointCoordinator(unsigned workers, CheckpointJournal* journal,
                        std::uint64_t every, std::uint64_t kill_after,
                        std::uint64_t initial_done,
                        std::function<CheckpointJournal::PendingSegment(
                            std::uint64_t)>
                            capture_fn)
      : active_(workers),
        journal_(journal),
        every_(every),
        kill_after_(kill_after),
        done_(initial_done),
        capture_fn_(std::move(capture_fn)) {
    if (journal_ != nullptr && every_ > 0) {
      next_at_ = (done_ / every_ + 1) * every_;
    }
  }

  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool killed() const { return killed_.load(); }
  [[nodiscard]] std::uint64_t sessions_done() {
    std::lock_guard<std::mutex> g(mu_);
    return done_;
  }

  void on_session_complete() {
    std::unique_lock<std::mutex> lk(mu_);
    ++done_;
    if (kill_after_ > 0 && !killed_.load() && done_ >= kill_after_) {
      kill_pending_ = true;
    }
    if (kill_pending_ ||
        (journal_ != nullptr && every_ > 0 && done_ >= next_at_)) {
      request_ = true;
    }
    if (!request_) {
      return;
    }
    ++paused_;
    if (paused_ == active_) {
      Segment seg = perform();
      lk.unlock();
      commit(std::move(seg));
    } else {
      const std::uint64_t g = gen_;
      cv_.wait(lk, [&] { return gen_ != g; });
    }
  }

  void worker_exit() {
    std::exception_ptr error;
    std::unique_lock<std::mutex> lk(mu_);
    // Still counted active: while every other worker is parked, this one
    // is the effective last arriver and must perform, or they wait forever.
    while (request_ && paused_ + 1 == active_) {
      try {
        Segment seg = perform();
        lk.unlock();
        commit(std::move(seg));
      } catch (...) {
        if (!error) {
          error = std::current_exception();
        }
      }
      if (!lk.owns_lock()) {
        lk.lock();
      }
    }
    --active_;
    if (request_ && active_ == 0) {
      release();  // defensive: never strand a waiter
    }
    lk.unlock();
    if (error) {
      std::rethrow_exception(error);
    }
  }

 private:
  /// Captures under the lock, then releases the barrier. On a capture
  /// failure the barrier is still released (and the fleet stopped) before
  /// the error propagates.
  Segment perform() {
    Segment seg;
    if (journal_ != nullptr) {
      try {
        seg = capture_fn_(done_);
      } catch (...) {
        stop_.store(true);
        release();
        throw;
      }
    }
    if (kill_pending_) {
      killed_.store(true);
      stop_.store(true);
    }
    if (every_ > 0) {
      while (next_at_ <= done_) {
        next_at_ += every_;
      }
    }
    release();
    return seg;
  }

  /// Writes a captured segment, outside the lock.
  void commit(Segment seg) {
    if (!seg) {
      return;
    }
    try {
      journal_->commit(std::move(*seg));
    } catch (...) {
      stop_.store(true);
      throw;
    }
  }

  void release() {
    request_ = false;
    kill_pending_ = false;
    paused_ = 0;
    ++gen_;
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  unsigned active_;
  unsigned paused_ = 0;
  CheckpointJournal* journal_;
  std::uint64_t every_;
  std::uint64_t kill_after_;
  std::uint64_t done_;
  std::uint64_t next_at_ = 0;
  bool request_ = false;
  bool kill_pending_ = false;
  std::uint64_t gen_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> killed_{false};
  std::function<CheckpointJournal::PendingSegment(std::uint64_t)> capture_fn_;
};

[[nodiscard]] bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::fclose(f);
  return true;
}

}  // namespace

namespace detail {

FleetSessionRecord build_session_record(
    const FleetSpec& spec, const SessionDraw& d, std::size_t sid,
    double arrival_s, std::size_t title, const sim::SessionResult& sr,
    const std::vector<std::size_t>& classes, const metrics::QoeConfig& qoe,
    const metrics::QoeModelSuite& qoe_suite, bool experiment_on,
    std::vector<std::uint64_t>& title_track_hits,
    std::vector<std::uint64_t>& title_track_total) {
  FleetSessionRecord rec;
  rec.session_id = sid;
  rec.arrival_s = arrival_s;
  rec.title = title;
  rec.class_index = d.cls;
  rec.trace_index = d.trace;
  rec.watch_duration_s = d.watch_s;
  rec.faults = sr.fault_summary();
  rec.chunks = sr.chunks.size();
  rec.watchdog_aborted = sr.watchdog_aborted;
  for (const sim::ChunkRecord& c : sr.chunks) {
    if (c.skipped) {
      continue;
    }
    ++title_track_total[c.track];
    if (c.edge_hit) {
      ++title_track_hits[c.track];
      ++rec.edge_hits;
      rec.edge_hit_bits += c.size_bits;
    } else if (c.coalesced) {
      // Joined a shared upstream fetch: no new origin egress, so the
      // hit-ratio views count it like an edge hit.
      ++title_track_hits[c.track];
      ++rec.coalesced_chunks;
      rec.edge_hit_bits += c.size_bits;
    } else if (c.delivery_tier == 1) {
      ++title_track_hits[c.track];
      ++rec.regional_hits;
      rec.regional_bits += c.size_bits;
    } else {
      rec.origin_bits += c.size_bits;
    }
    if (c.shed) {
      ++rec.shed_chunks;
    }
  }
  const std::vector<metrics::PlayedChunk> played =
      sr.to_played_chunks(spec.metric, classes);
  if (played.empty()) {
    // Nothing watchable (total outage): timing metrics only.
    metrics::QoeSummary s;
    s.rebuffer_s = sr.total_rebuffer_s;
    s.startup_delay_s = sr.startup_delay_s;
    s.low_quality_pct = 100.0;
    rec.qoe = std::move(s);
  } else {
    rec.qoe = metrics::compute_qoe(played, sr.total_rebuffer_s,
                                   sr.startup_delay_s, qoe);
  }
  if (experiment_on) {
    rec.stratum = d.stratum;
    rec.qoe_scores.reserve(qoe_suite.size());
    for (std::size_t m = 0; m < qoe_suite.size(); ++m) {
      const metrics::QoeModelSpec& ms = qoe_suite.at(m);
      rec.qoe_scores.push_back(ms.model->score(sim::qoe_session_view(
          sr, ms.metric, spec.catalog.chunk_duration_s)));
    }
  }
  return rec;
}

void SessionFold::add(FleetResult& result, const FleetSessionRecord& rec) {
  result.edge_hit_bits += rec.edge_hit_bits;
  result.origin_bits += rec.origin_bits;
  if (rec.watchdog_aborted) {
    ++result.watchdog_aborted_sessions;
  }
  ++count;
  quality_sum += rec.qoe.all_quality_mean;
  quality_sum_sq += rec.qoe.all_quality_mean * rec.qoe.all_quality_mean;
  bits_sum += rec.qoe.data_usage_mb;
  bits_sum_sq += rec.qoe.data_usage_mb * rec.qoe.data_usage_mb;
  FleetSchemeReport& cr = result.per_class[rec.class_index];
  ++cr.sessions;
  cr.mean_all_quality += rec.qoe.all_quality_mean;
  cr.mean_q4_quality += rec.qoe.q4_quality_mean;
  cr.mean_low_quality_pct += rec.qoe.low_quality_pct;
  cr.mean_rebuffer_s += rec.qoe.rebuffer_s;
  cr.mean_startup_delay_s += rec.qoe.startup_delay_s;
  cr.mean_data_usage_mb += rec.qoe.data_usage_mb;
  for (std::size_t m = 0; m < rec.qoe_scores.size(); ++m) {
    cr.mean_qoe_scores[m] += rec.qoe_scores[m];
  }
}

double SessionFold::jain(std::uint64_t n, double sum, double sum_sq) {
  // Mirrors stats::jain_index over the materialized vector, operation for
  // operation (same accumulation order, same guard), so the streaming and
  // materializing paths produce the same bits.
  if (sum_sq == 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

void TelemetryFold::add(std::unique_ptr<obs::MemoryTraceSink>& sink,
                        const obs::MetricsRegistry* registry) {
  if (trace != nullptr && sink) {
    const auto started = std::chrono::steady_clock::now();
    global_seq = obs::fold_traces(std::span(&sink, 1), *trace, 1, global_seq);
    trace_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started)
                   .count();
  }
  if (metrics != nullptr && registry != nullptr) {
    metrics->merge(*registry);
  }
}

void TelemetryFold::add_all(
    std::vector<std::unique_ptr<obs::MemoryTraceSink>>& sinks,
    const std::vector<std::unique_ptr<obs::MetricsRegistry>>& registries) {
  if (metrics != nullptr) {
    for (const std::unique_ptr<obs::MetricsRegistry>& r : registries) {
      if (r) {
        metrics->merge(*r);
      }
    }
  }
  if (trace != nullptr) {
    global_seq = obs::fold_traces(sinks, *trace, threads, global_seq);
  }
}

void TelemetryFold::finish() {
  if (trace != nullptr) {
    trace->flush();
  }
}

}  // namespace detail

void WatchConfig::validate() const {
  if (full_watch_prob < 0.0 || full_watch_prob > 1.0) {
    throw std::invalid_argument(
        "WatchConfig: full_watch_prob must be in [0, 1]");
  }
  if (!(mean_partial_s > 0.0)) {
    throw std::invalid_argument("WatchConfig: non-positive partial mean");
  }
  if (min_watch_s < 0.0) {
    throw std::invalid_argument("WatchConfig: negative minimum watch");
  }
}

void FleetSpec::validate() const {
  catalog.validate();
  arrivals.validate();
  watch.validate();
  if (use_cache) {
    cache.validate();
    // Cross-field: a miss that is cheaper than a hit inverts the whole
    // delivery model (every downstream latency comparison assumes the
    // origin is the slow path).
    if (cache.miss_latency_s <= cache.hit_latency_s) {
      throw std::invalid_argument(
          "FleetSpec.cache.miss_latency_s: must exceed cache.hit_latency_s "
          "(the origin path cannot be faster than an edge hit)");
    }
  }
  if (cdn.enabled) {
    if (!use_cache) {
      throw std::invalid_argument(
          "FleetSpec.cdn.enabled: requires use_cache — the CDN hierarchy "
          "extends the edge tier");
    }
    cdn.validate();
    // Cross-field sanity of the hierarchy: each tier must be bigger and
    // slower than the one below it, or the topology is unsatisfiable.
    if (cdn.regional.capacity_bits < cache.capacity_bits) {
      throw std::invalid_argument(
          "FleetSpec.cdn.regional.capacity_bits: smaller than the edge "
          "tier's cache.capacity_bits — the hierarchy is unsatisfiable");
    }
    if (cdn.regional.hit_latency_s <= cache.hit_latency_s ||
        cdn.regional.hit_latency_s >= cache.miss_latency_s) {
      throw std::invalid_argument(
          "FleetSpec.cdn.regional.hit_latency_s: must lie strictly between "
          "cache.hit_latency_s and cache.miss_latency_s (edge < regional < "
          "origin)");
    }
  }
  const auto validate_class = [](const FleetClientClass& c,
                                 const std::string& who) {
    if (!c.make_scheme) {
      throw std::invalid_argument(who + ".make_scheme: missing scheme "
                                        "factory");
    }
    c.fault.validate();
    if (c.fault.any()) {
      c.retry.validate();
    }
  };
  if (experiment.enabled()) {
    if (!classes.empty()) {
      throw std::invalid_argument(
          "FleetSpec.experiment.arms: arms replace the client classes — "
          "leave FleetSpec.classes empty in an experiment run");
    }
    if (experiment.arms.size() < 2) {
      throw std::invalid_argument(
          "FleetSpec.experiment.arms: an experiment needs at least two "
          "arms");
    }
    if (experiment.arms.size() > 64) {
      throw std::invalid_argument(
          "FleetSpec.experiment.arms: at most 64 arms");
    }
    if (experiment.trace_strata < 1 || experiment.trace_strata > 64) {
      throw std::invalid_argument(
          "FleetSpec.experiment.trace_strata: must be in [1, 64]");
    }
    for (std::size_t i = 0; i < experiment.arms.size(); ++i) {
      const FleetClientClass& a = experiment.arms[i];
      const std::string who =
          "FleetSpec.experiment.arms[" + std::to_string(i) + "]";
      if (a.label.empty()) {
        throw std::invalid_argument(
            who + ".label: arms need explicit, unique labels (they key the "
                  "A/B report)");
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (experiment.arms[j].label == a.label) {
          throw std::invalid_argument(
              who + ".label: duplicate label '" + a.label + "' (arm " +
              std::to_string(j) + " already uses it)");
        }
      }
      validate_class(a, who);
    }
  } else {
    if (classes.empty()) {
      throw std::invalid_argument(
          "FleetSpec.classes: empty — at least one client class is "
          "required");
    }
    for (std::size_t i = 0; i < classes.size(); ++i) {
      const FleetClientClass& c = classes[i];
      const std::string who = "FleetSpec.classes[" + std::to_string(i) + "]";
      if (!(c.weight > 0.0)) {
        throw std::invalid_argument(
            who + ".weight: must be > 0 (got " + std::to_string(c.weight) +
            ")");
      }
      validate_class(c, who);
    }
  }
  if (traces.empty()) {
    throw std::invalid_argument(
        "FleetSpec.traces: empty — sessions need at least one network "
        "trace");
  }
  if (title_batch == 0) {
    throw std::invalid_argument(
        "FleetSpec.title_batch: must be >= 1 (titles are claimed in "
        "batches)");
  }
  if (threads > sim::kMaxThreads) {
    throw std::invalid_argument(
        "FleetSpec.threads: exceeds kMaxThreads (" +
        std::to_string(sim::kMaxThreads) + ")");
  }
  if (session.trace != nullptr || session.metrics != nullptr) {
    throw std::invalid_argument(
        "FleetSpec.session.trace/metrics: wire telemetry through "
        "FleetSpec::trace/metrics — session sinks are not thread-safe");
  }
  if (session.size_provider != nullptr) {
    throw std::invalid_argument(
        "FleetSpec.session.size_provider: size knowledge is per client "
        "class (FleetClientClass::make_size_provider), not the shared "
        "session config");
  }
  if (session.download_hook != nullptr) {
    throw std::invalid_argument(
        "FleetSpec.session.download_hook: the delivery path is owned by "
        "the fleet cache model; configure FleetSpec::cache instead");
  }
  sim::validate_session_config(session, "FleetSpec.session");
  if (resume && checkpoint_path.empty()) {
    throw std::invalid_argument(
        "FleetSpec.resume: set checkpoint_path to resume from");
  }
  if (stream_aggregation) {
    if (engine != FleetEngine::kEvent) {
      throw std::invalid_argument(
          "FleetSpec.stream_aggregation: requires the event engine "
          "(FleetSpec.engine = FleetEngine::kEvent)");
    }
    if (!checkpoint_path.empty() || kill.after_sessions > 0 || resume) {
      throw std::invalid_argument(
          "FleetSpec.stream_aggregation: incompatible with checkpoint / "
          "kill / resume — checkpoints persist the per-session records "
          "that streaming aggregation discards");
    }
  }
}

FleetResult run_fleet(const FleetSpec& spec) {
  spec.validate();

  const Catalog catalog(spec.catalog);
  const std::size_t num_titles = catalog.num_titles();
  const std::vector<double> arrivals = generate_arrivals(spec.arrivals);
  if (arrivals.empty()) {
    throw std::invalid_argument(
        "FleetSpec.arrivals: the arrival process yielded zero sessions "
        "(raise the rate, the horizon, or max_sessions)");
  }
  const std::size_t n = arrivals.size();

  // Experiment runs swap the arms into the class slots; everything per
  // class downstream (scheme reuse, folds, the per-class report) is per
  // arm.
  const bool experiment_on = spec.experiment.enabled();
  const std::vector<FleetClientClass>& fleet_classes =
      experiment_on ? spec.experiment.arms : spec.classes;

  // Per-session workload draws, all up front, all counter-based. The
  // experiment assignment lives here too: the per-stratum counters advance
  // in arrival order in this single-threaded loop, so the arm table is
  // byte-identical at any thread count and invariant to title_batch.
  const ZipfSampler zipf(num_titles, spec.catalog.zipf_alpha,
                         detail::derive_seed(spec.seed, 0, kSaltZipf));
  double total_weight = 0.0;
  for (const FleetClientClass& c : fleet_classes) {
    total_weight += c.weight;
  }
  std::vector<std::size_t> trace_bucket;
  std::vector<std::uint64_t> stratum_counter;
  if (experiment_on) {
    trace_bucket =
        trace_rank_buckets(spec.traces, spec.experiment.trace_strata);
    stratum_counter.assign(spec.experiment.trace_strata * 10, 0);
  }
  std::vector<SessionDraw> draws(n);
  std::vector<std::vector<std::size_t>> by_title(num_titles);
  for (std::size_t i = 0; i < n; ++i) {
    SessionDraw& d = draws[i];
    d.title = zipf.sample(i);
    d.trace = std::min(
        spec.traces.size() - 1,
        static_cast<std::size_t>(
            detail::keyed_u01(spec.seed, i, 0, kSaltTrace) *
            static_cast<double>(spec.traces.size())));
    if (detail::keyed_u01(spec.seed, i, 0, kSaltWatchFull) >=
        spec.watch.full_watch_prob) {
      const double u = detail::keyed_u01(spec.seed, i, 0, kSaltWatchTail);
      d.watch_s = spec.watch.min_watch_s -
                  spec.watch.mean_partial_s * std::log(1.0 - u);
    }
    if (experiment_on) {
      // Stratified permuted-block randomization: stratum = trace-class
      // bucket x popularity decile; the arm comes from a seeded block
      // permutation at the stratum's arrival counter.
      d.stratum = static_cast<std::uint32_t>(
          trace_bucket[d.trace] * 10 + catalog.popularity_decile(d.title));
      const std::uint64_t count = stratum_counter[d.stratum]++;
      d.cls = permuted_block_arm(
          spec.experiment.seed, d.stratum, count / fleet_classes.size(),
          static_cast<std::size_t>(count % fleet_classes.size()),
          fleet_classes.size());
    } else {
      const double uc = detail::keyed_u01(spec.seed, i, 0, kSaltClass);
      double acc = 0.0;
      d.cls = fleet_classes.size() - 1;  // guard float residue at 1.0
      for (std::size_t c = 0; c < fleet_classes.size(); ++c) {
        acc += fleet_classes[c].weight / total_weight;
        if (uc < acc) {
          d.cls = c;
          break;
        }
      }
    }
    by_title[d.title].push_back(i);
  }

  // Private telemetry slots, folded in session-id order after the join.
  const bool telemetry_on = spec.trace != nullptr || spec.metrics != nullptr;
  std::vector<std::unique_ptr<obs::MemoryTraceSink>> sinks;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  if (telemetry_on) {
    sinks.resize(n);
    registries.resize(n);
  }

  FleetResult result;
  result.total_sessions = n;
  if (!spec.stream_aggregation) {
    // Streaming aggregation never materializes the per-session table; every
    // other mode fills it in arrival order.
    result.sessions.resize(n);
  }
  result.cache_enabled = spec.use_cache;
  result.experiment_enabled = experiment_on;

  // Pluggable QoE-model suite: one immutable, stateless instance shared
  // read-only across workers; every arm is scored under every definition.
  const metrics::QoeModelSuite qoe_suite =
      experiment_on && spec.experiment.score_qoe_models
          ? metrics::QoeModelSuite::standard()
          : metrics::QoeModelSuite();
  result.qoe_model_names = qoe_suite.names();

  // Per-class report rows, sized and labeled up front: the streaming drain
  // folds into them while the engine is still running.
  result.per_class.resize(fleet_classes.size());
  for (std::size_t c = 0; c < fleet_classes.size(); ++c) {
    result.per_class[c].label = fleet_classes[c].label.empty()
                                    ? fleet_classes[c].make_scheme()->name()
                                    : fleet_classes[c].label;
    result.per_class[c].mean_qoe_scores.assign(qoe_suite.size(), 0.0);
  }

  std::size_t max_tracks = 0;
  for (std::size_t k = 0; k < num_titles; ++k) {
    max_tracks = std::max(max_tracks, catalog.title(k).num_tracks());
  }

  // Shared progress + per-title state. Each row is written only by the
  // worker that owns the title; cross-thread reads happen exclusively at
  // the checkpoint barrier (all writers parked, mutex hand-off).
  std::vector<std::size_t> done_in_title(num_titles, 0);
  std::vector<std::unique_ptr<EdgeCache>> shards(num_titles);
  std::vector<EdgeCacheStats> shard_stats(num_titles);
  std::vector<std::vector<std::uint64_t>> track_hits(
      num_titles, std::vector<std::uint64_t>(max_tracks, 0));
  std::vector<std::vector<std::uint64_t>> track_total(
      num_titles, std::vector<std::uint64_t>(max_tracks, 0));

  // Total capacity splits evenly across per-title shards.
  EdgeCacheConfig shard_cfg = spec.cache;
  if (spec.use_cache) {
    shard_cfg.capacity_bits =
        spec.cache.capacity_bits / static_cast<double>(num_titles);
  }

  // CDN hierarchy: one immutable shared model (tier graph, fault schedule,
  // offered-load profile — all pure functions of the spec and the arrival
  // times) plus per-title mutable state rows, owned like the shards.
  const bool cdn_on = spec.use_cache && spec.cdn.enabled;
  std::optional<CdnModel> cdn_model;
  std::vector<TitleCdnState> cdn_states(cdn_on ? num_titles : 0);
  if (cdn_on) {
    cdn_model.emplace(spec.cdn, shard_cfg, num_titles, arrivals);
  }
  result.cdn_enabled = cdn_on;

  const bool crash_safety_on = !spec.checkpoint_path.empty() ||
                               spec.kill.after_sessions > 0 || spec.resume;
  const std::uint64_t fp =
      crash_safety_on ? fleet_spec_fingerprint(spec) : 0;
  const std::uint64_t exp_fp =
      crash_safety_on ? fleet_experiment_fingerprint(spec) : 0;

  // Resume: restore per-title progress, shard contents, records, and
  // telemetry from the checkpoint, then let the workers run only what is
  // left. An absent file is a fresh run (so one flag drives every
  // iteration of a kill/resume loop); a stale or damaged file is an error.
  std::uint64_t initial_done = 0;
  std::uint64_t initial_events = 0;
  std::vector<std::uint8_t> resumed_completed;
  const bool event_engine = spec.engine == FleetEngine::kEvent;
  std::optional<CheckpointJournal> journal;
  if (!spec.checkpoint_path.empty()) {
    journal.emplace(spec.checkpoint_path, n);
  }
  if (spec.resume && file_exists(spec.checkpoint_path)) {
    const FleetCheckpoint ck = FleetCheckpoint::load(spec.checkpoint_path);
    // Resume state: the last segment's header and shared state, plus the
    // union of every segment's sessions (load() checked that the segments
    // agree and journal each session once).
    const FleetCheckpoint::Segment& head = ck.segments.back();
    // The experiment block is checked before the whole-spec fingerprint so
    // a re-randomized or re-armed experiment gets an error naming the
    // field instead of a generic mismatch: resuming under a different arm
    // table would silently mix assignment schedules.
    if (head.experiment_fingerprint != exp_fp) {
      throw CheckpointError(
          "checkpoint: FleetSpec.experiment changed since this checkpoint "
          "was written (arms / seed / trace_strata / score_qoe_models) — "
          "resuming under a different arm table is not allowed (stale "
          "checkpoint)");
    }
    if (head.spec_fingerprint != fp) {
      throw CheckpointError(
          "checkpoint: spec fingerprint mismatch — this checkpoint belongs "
          "to a different workload (stale checkpoint)");
    }
    // Engines cannot resume each other's journals: the stepper locates the
    // resume point as per-title done-prefixes, the event engine records an
    // arbitrary completed-session set (uncoupled interleaving). Checked
    // after the fingerprints so a stale workload is still reported as such
    // first.
    if (event_engine && head.engine != FleetEngine::kEvent) {
      throw CheckpointError(
          "checkpoint: written by the per-session stepper (segment header "
          "'engine stepped') — FleetSpec.engine: the event engine cannot "
          "resume it (finish under the stepper or remove the stale file)");
    }
    if (!event_engine && head.engine != FleetEngine::kStepped) {
      throw CheckpointError(
          "checkpoint: written by the event engine (segment header 'engine "
          "event') — FleetSpec.engine: the per-session stepper cannot "
          "resume it (finish under the event engine or remove the stale "
          "file)");
    }
    if (head.num_sessions != n || head.num_titles != num_titles ||
        head.max_tracks != max_tracks) {
      throw CheckpointError(
          "checkpoint: geometry mismatch (sessions/titles/tracks)");
    }
    initial_events = head.events_done;
    for (const FleetCheckpoint::TitleState& ts : head.titles) {
      const std::size_t k = static_cast<std::size_t>(ts.index);
      if (ts.total != by_title[k].size()) {
        throw CheckpointError(
            "checkpoint: per-title session count mismatch");
      }
      done_in_title[k] = static_cast<std::size_t>(ts.done);
      track_hits[k] = ts.track_hits;
      track_total[k] = ts.track_total;
      if (ts.done == ts.total) {
        shard_stats[k] = ts.stats;
      } else if (spec.use_cache) {
        if (!ts.has_shard) {
          throw CheckpointError(
              "checkpoint: in-progress title is missing its shard "
              "snapshot");
        }
        shards[k] = std::make_unique<EdgeCache>(shard_cfg);
        try {
          shards[k]->restore(ts.shard_entries, ts.stats);
        } catch (const std::invalid_argument& e) {
          throw CheckpointError(
              std::string("checkpoint: bad shard snapshot: ") + e.what());
        }
      }
      if (cdn_on) {
        TitleCdnState& cst = cdn_states[k];
        cst.requests = ts.cdn_requests;
        cst.consecutive_sheds = ts.cdn_consecutive_sheds;
        cst.stats = ts.cdn_stats;
        if (ts.done == ts.total) {
          cst.regional_stats = ts.regional_stats;
        } else {
          if (!ts.has_regional) {
            throw CheckpointError(
                "checkpoint: in-progress title is missing its regional "
                "slice snapshot");
          }
          cst.regional = std::make_unique<EdgeCache>(
              cdn_model->regional_shard_config());
          try {
            cst.regional->restore(ts.regional_entries, ts.regional_stats);
          } catch (const std::invalid_argument& e) {
            throw CheckpointError(
                std::string("checkpoint: bad regional slice snapshot: ") +
                e.what());
          }
          for (const auto& [key, fl] : ts.inflight) {
            cst.inflight.emplace(key, fl);
          }
        }
      }
      initial_done += ts.done;
    }
    if (initial_done != head.sessions_done) {
      throw CheckpointError(
          "checkpoint: session count inconsistent with per-title "
          "progress");
    }
    if (event_engine) {
      // The event engine skips exactly the restored sessions; with
      // uncoupled sessions they need not form per-title prefixes.
      resumed_completed.assign(n, 0);
    }
    for (const FleetCheckpoint::Segment& seg : ck.segments) {
      for (const FleetCheckpoint::SessionState& ss : seg.sessions) {
        const std::size_t sid =
            static_cast<std::size_t>(ss.record.session_id);
        if (event_engine) {
          resumed_completed[sid] = 1;
        }
        if (spec.trace != nullptr) {
          if (!ss.has_events) {
            throw CheckpointError(
                "checkpoint: session is missing its event stream");
          }
          sinks[sid] = std::make_unique<obs::MemoryTraceSink>();
          for (const obs::DecisionEvent& ev : ss.events) {
            sinks[sid]->on_decision(ev);
          }
        }
        if (spec.metrics != nullptr) {
          if (!ss.has_metrics) {
            throw CheckpointError(
                "checkpoint: session is missing its metrics registry");
          }
          registries[sid] =
              std::make_unique<obs::MetricsRegistry>(ss.metrics);
        }
        result.sessions[sid] = ss.record;
      }
    }
    journal->resume_from(ck);
  }

  const sim::EstimatorFactory default_estimator =
      sim::default_estimator_factory();

  const unsigned threads =
      spec.threads > 0 ? spec.threads
                       : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t title_batch = spec.title_batch;

  // Session-order fold accumulators, shared by both engines: the stepper
  // path feeds them after the workers join; the streaming event engine
  // feeds them while it runs (through the session-id reorder drain).
  detail::SessionFold fold;
  detail::TelemetryFold telemetry_fold{spec.trace, spec.metrics, threads};

  // When the sessions are done: FleetRunStats::telemetry_fold_s counts
  // from here.
  std::chrono::steady_clock::time_point joined;
  if (spec.engine == FleetEngine::kEvent) {
    // Shared-virtual-time event engine (engine.cpp): same setup, same
    // finalize, different execution. It leaves done_in_title / shards /
    // track rows / records exactly where the worker pool would have.
    detail::EngineContext ectx{spec,
                               catalog,
                               arrivals,
                               fleet_classes,
                               draws,
                               by_title,
                               qoe_suite,
                               shard_cfg,
                               cdn_on ? &*cdn_model : nullptr,
                               default_estimator,
                               experiment_on,
                               telemetry_on,
                               cdn_on,
                               crash_safety_on,
                               max_tracks,
                               threads,
                               fp,
                               exp_fp,
                               initial_done,
                               initial_events,
                               resumed_completed.empty() ? nullptr
                                                         : &resumed_completed,
                               journal ? &*journal : nullptr,
                               done_in_title,
                               shards,
                               shard_stats,
                               cdn_states,
                               track_hits,
                               track_total,
                               sinks,
                               registries,
                               result,
                               fold,
                               telemetry_fold};
    detail::run_fleet_event(ectx);
    joined = std::chrono::steady_clock::now();
  } else {
    // Capture closure: runs only at the coordinator barrier, when every
    // worker is parked at a session boundary.
    auto capture_checkpoint = [&](std::uint64_t sessions_done_now) {
      const auto started = std::chrono::steady_clock::now();
      FleetCheckpoint::Segment head;
      head.engine = FleetEngine::kStepped;
      head.spec_fingerprint = fp;
      head.experiment_fingerprint = exp_fp;
      head.num_sessions = n;
      head.num_titles = num_titles;
      head.max_tracks = max_tracks;
      head.sessions_done = sessions_done_now;
      std::vector<std::size_t> done_sids;
      done_sids.reserve(sessions_done_now);
      for (std::size_t k = 0; k < num_titles; ++k) {
        const std::size_t dk = done_in_title[k];
        if (dk == 0) {
          continue;
        }
        FleetCheckpoint::TitleState ts;
        ts.index = k;
        ts.done = dk;
        ts.total = by_title[k].size();
        ts.track_hits = track_hits[k];
        ts.track_total = track_total[k];
        if (shards[k]) {
          ts.stats = shards[k]->stats();
          if (dk < by_title[k].size()) {
            ts.has_shard = true;
            ts.shard_entries = shards[k]->snapshot();
          }
        } else {
          ts.stats = shard_stats[k];
        }
        if (cdn_on) {
          const TitleCdnState& cst = cdn_states[k];
          ts.cdn_requests = cst.requests;
          ts.cdn_consecutive_sheds = cst.consecutive_sheds;
          ts.cdn_stats = cst.stats;
          if (cst.regional) {
            ts.regional_stats = cst.regional->stats();
            if (dk < by_title[k].size()) {
              ts.has_regional = true;
              ts.regional_entries = cst.regional->snapshot();
              ts.inflight.assign(cst.inflight.begin(), cst.inflight.end());
            }
          } else {
            ts.regional_stats = cst.regional_stats;
          }
        }
        head.titles.push_back(std::move(ts));
        done_sids.insert(done_sids.end(), by_title[k].begin(),
                         by_title[k].begin() + static_cast<std::ptrdiff_t>(dk));
      }
      return journal->capture(head, done_sids, started);
    };

    CheckpointCoordinator coord(threads, journal ? &*journal : nullptr,
                                spec.checkpoint_every,
                                spec.kill.after_sessions, initial_done,
                                capture_checkpoint);

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex err_mu;
    std::exception_ptr first_error;
    const auto record_error = [&](std::exception_ptr e) {
      std::lock_guard<std::mutex> g(err_mu);
      if (!first_error) {
        first_error = e;
      }
      failed.store(true);
    };

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&] {
        try {
          // Worker-owned reusable actors, one per client class, built
          // lazily and reset by run_session before each use. Reuse is
          // bit-exact (reset() restores construction state; the
          // differential and batched-vs-unbatched fleet tests pin it) and
          // removes the per-session scheme/provider allocations from the
          // hot loop.
          std::vector<std::unique_ptr<abr::AbrScheme>> class_schemes(
              fleet_classes.size());
          std::vector<std::unique_ptr<video::ChunkSizeProvider>>
              class_providers(fleet_classes.size());
          while (true) {
            // Batched claim: one fetch_add hands this worker a contiguous
            // run of titles. Folds are in title/session order, so the
            // batch size cannot influence any result byte.
            const std::size_t base = next.fetch_add(title_batch);
            if (base >= num_titles || failed.load() || coord.stopping()) {
              break;
            }
            const std::size_t limit =
                std::min(num_titles, base + title_batch);
            for (std::size_t k = base; k < limit; ++k) {
              if (failed.load() || coord.stopping()) {
                break;
              }
              const std::vector<std::size_t>& ids = by_title[k];
              // Resumed-complete titles (and unplayed ones) need no work.
              if (ids.empty() || done_in_title[k] >= ids.size()) {
                continue;
              }
              const video::Video& title_video = catalog.title(k);
              const core::ComplexityClassifier classifier(title_video);
              const std::vector<std::size_t>& classes = classifier.classes();
              metrics::QoeConfig qoe = spec.qoe;
              qoe.top_class = classifier.num_classes() - 1;

              // One cache shard per title; its sessions run serially in
              // arrival order, so shard state is schedule-independent. A
              // resumed in-progress title arrives here with its shard
              // already restored from the checkpoint.
              std::unique_ptr<EdgeCachePath> path;
              std::unique_ptr<CdnPath> cdn_path;
              if (spec.use_cache) {
                if (!shards[k]) {
                  shards[k] = std::make_unique<EdgeCache>(shard_cfg);
                }
                if (cdn_on) {
                  // The CDN path routes through the hierarchy; it needs
                  // each session's arrival time (begin_session below) to
                  // evaluate fetch windows and fault schedules in global
                  // fleet time.
                  cdn_path = std::make_unique<CdnPath>(
                      *cdn_model, *shards[k], cdn_states[k],
                      static_cast<std::uint32_t>(k));
                } else {
                  // The path adapter is stateless per session (cache +
                  // title id), so one instance serves every session of the
                  // title.
                  path = std::make_unique<EdgeCachePath>(
                      *shards[k], static_cast<std::uint32_t>(k));
                }
              }

              for (std::size_t idx = done_in_title[k]; idx < ids.size();
                   ++idx) {
                const std::size_t sid = ids[idx];
                const SessionDraw& d = draws[sid];
                const FleetClientClass& cls = fleet_classes[d.cls];
                if (!class_schemes[d.cls]) {
                  class_schemes[d.cls] = cls.make_scheme();
                }
                abr::AbrScheme& scheme = *class_schemes[d.cls];
                const std::unique_ptr<net::BandwidthEstimator> estimator =
                    (cls.make_estimator ? cls.make_estimator
                                        : default_estimator)(
                        spec.traces[d.trace]);
                if (cls.make_size_provider && !class_providers[d.cls]) {
                  class_providers[d.cls] = cls.make_size_provider();
                }
                video::ChunkSizeProvider* sizes =
                    cls.make_size_provider ? class_providers[d.cls].get()
                                           : nullptr;

                sim::SessionConfig sc = spec.session;
                sc.fault = cls.fault;
                sc.retry = cls.retry;
                sc.watch_duration_s = d.watch_s;
                sc.session_id = sid;
                sc.fleet_session = true;
                sc.fleet_arrival_s = arrivals[sid];
                sc.fleet_title = k;
                if (experiment_on) {
                  sc.fleet_arm = static_cast<std::int64_t>(d.cls);
                }
                if (sizes != nullptr) {
                  sc.size_provider = sizes;
                }
                if (cdn_path) {
                  cdn_path->begin_session(arrivals[sid]);
                  sc.download_hook = cdn_path.get();
                } else if (path) {
                  sc.download_hook = path.get();
                }
                if (telemetry_on) {
                  if (spec.trace != nullptr) {
                    sinks[sid] = std::make_unique<obs::MemoryTraceSink>();
                    sc.trace = sinks[sid].get();
                  }
                  if (spec.metrics != nullptr) {
                    registries[sid] =
                        std::make_unique<obs::MetricsRegistry>();
                    sc.metrics = registries[sid].get();
                  }
                }

                const sim::SessionResult sr = sim::run_session(
                    title_video, spec.traces[d.trace], scheme, *estimator,
                    sc);

                result.sessions[sid] = detail::build_session_record(
                    spec, d, sid, arrivals[sid], k, sr, classes, qoe,
                    qoe_suite, experiment_on, track_hits[k], track_total[k]);
                if (journal) {
                  // Encode the session's journal block here, on this
                  // worker, so the checkpoint barrier only moves it.
                  journal->encode(
                      result.sessions[sid],
                      telemetry_on ? sinks[sid].get() : nullptr,
                      telemetry_on ? registries[sid].get() : nullptr);
                }
                done_in_title[k] = idx + 1;

                if (spec.throttle_us > 0) {
                  // Chaos aid only: stretches wall time so an external
                  // SIGKILL can land mid-run. Nothing downstream reads the
                  // wall clock, so this cannot change any output byte.
                  std::this_thread::sleep_for(
                      std::chrono::microseconds(spec.throttle_us));
                }
                coord.on_session_complete();
                if (failed.load() || coord.stopping()) {
                  break;
                }
              }
              if (done_in_title[k] == ids.size() && shards[k]) {
                shard_stats[k] = shards[k]->stats();
                shards[k].reset();  // bound memory: the shard is folded
                if (cdn_on) {
                  TitleCdnState& cst = cdn_states[k];
                  if (cst.regional) {
                    cst.regional_stats = cst.regional->stats();
                    cst.regional.reset();
                  }
                  cst.inflight.clear();  // fetch windows die with the title
                }
              }
            }
          }
        } catch (...) {
          record_error(std::current_exception());
        }
        try {
          coord.worker_exit();
        } catch (...) {
          record_error(std::current_exception());
        }
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    joined = std::chrono::steady_clock::now();
    if (first_error) {
      std::rethrow_exception(first_error);
    }
    if (coord.killed()) {
      throw FleetKilled(coord.sessions_done(), spec.checkpoint_path);
    }
  }

  if (journal) {
    result.run_stats = journal->stats();
  }

  // Deterministic folds: title order for shard aggregates, session order
  // for everything per-session.
  for (std::size_t k = 0; k < num_titles; ++k) {
    result.cache.merge(shard_stats[k]);
  }
  if (cdn_on) {
    for (std::size_t k = 0; k < num_titles; ++k) {
      result.cdn.merge(cdn_states[k].stats);
      result.regional.merge(cdn_states[k].regional_stats);
    }
    result.upstream_fetch_ratio = result.cdn.upstream_fetch_ratio();
  } else if (spec.use_cache) {
    // Flat cache model: every miss is exactly one upstream fetch.
    result.upstream_fetch_ratio =
        result.cache.lookups == 0
            ? 0.0
            : static_cast<double>(result.cache.lookups - result.cache.hits) /
                  static_cast<double>(result.cache.lookups);
  } else {
    result.upstream_fetch_ratio = 1.0;  // no cache: everything hits origin
  }
  {
    std::vector<std::uint64_t> hits(max_tracks, 0);
    std::vector<std::uint64_t> total(max_tracks, 0);
    std::vector<std::uint64_t> dec_hits(10, 0);
    std::vector<std::uint64_t> dec_total(10, 0);
    for (std::size_t k = 0; k < num_titles; ++k) {
      const std::size_t decile = catalog.popularity_decile(k);
      for (std::size_t tr = 0; tr < max_tracks; ++tr) {
        hits[tr] += track_hits[k][tr];
        total[tr] += track_total[k][tr];
        dec_hits[decile] += track_hits[k][tr];
        dec_total[decile] += track_total[k][tr];
      }
    }
    result.hit_ratio_by_track.assign(max_tracks, 0.0);
    for (std::size_t tr = 0; tr < max_tracks; ++tr) {
      result.hit_ratio_by_track[tr] =
          total[tr] == 0 ? 0.0
                         : static_cast<double>(hits[tr]) /
                               static_cast<double>(total[tr]);
    }
    result.hit_ratio_by_popularity_decile.assign(10, 0.0);
    for (std::size_t dd = 0; dd < 10; ++dd) {
      result.hit_ratio_by_popularity_decile[dd] =
          dec_total[dd] == 0 ? 0.0
                             : static_cast<double>(dec_hits[dd]) /
                                   static_cast<double>(dec_total[dd]);
    }
  }

  // Session-order fold (session id == arrival order). The streaming event
  // engine already fed the fold through its reorder drain in the same
  // order; every other mode folds the materialized records here.
  if (!spec.stream_aggregation) {
    for (const FleetSessionRecord& rec : result.sessions) {
      fold.add(result, rec);
    }
  }
  for (FleetSchemeReport& cr : result.per_class) {
    if (cr.sessions > 0) {
      const double inv = 1.0 / static_cast<double>(cr.sessions);
      cr.mean_all_quality *= inv;
      cr.mean_q4_quality *= inv;
      cr.mean_low_quality_pct *= inv;
      cr.mean_rebuffer_s *= inv;
      cr.mean_startup_delay_s *= inv;
      cr.mean_data_usage_mb *= inv;
      for (double& v : cr.mean_qoe_scores) {
        v *= inv;
      }
    }
  }
  // fold.count >= 1 (a zero-session arrival process throws above), so the
  // empty-input guard of stats::jain_index cannot be hit.
  result.jain_quality =
      detail::SessionFold::jain(fold.count, fold.quality_sum,
                                fold.quality_sum_sq);
  result.jain_bits =
      detail::SessionFold::jain(fold.count, fold.bits_sum, fold.bits_sum_sq);

  // Telemetry fold: session-id order with one monotone global sequence —
  // the same merged-stream discipline as run_experiment. Streaming runs
  // already folded per session as the drain released it.
  if (!spec.stream_aggregation && telemetry_on) {
    telemetry_fold.add_all(sinks, registries);
  }
  if (spec.trace != nullptr) {
    result.run_stats.telemetry_fold_s =
        spec.stream_aggregation
            ? telemetry_fold.trace_s
            : std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - joined)
                  .count();
  }
  telemetry_fold.finish();
  if (spec.metrics != nullptr) {
    if (cdn_on) {
      // Fold-time tier counters: deterministic (title-order merge above),
      // so they ride in the registry like any other workload metric.
      const CdnStats& c = result.cdn;
      spec.metrics->counter("cdn_client_requests")
          .add(static_cast<double>(c.client_requests));
      spec.metrics->counter("cdn_edge_hits")
          .add(static_cast<double>(c.edge_hits));
      spec.metrics->counter("cdn_regional_hits")
          .add(static_cast<double>(c.regional_hits));
      spec.metrics->counter("cdn_origin_fetches")
          .add(static_cast<double>(c.origin_fetches));
      spec.metrics->counter("cdn_coalesced")
          .add(static_cast<double>(c.coalesced));
      spec.metrics->counter("cdn_shed").add(static_cast<double>(c.shed));
      spec.metrics->counter("cdn_failovers")
          .add(static_cast<double>(c.failovers));
      spec.metrics->counter("cdn_brownout_fetches")
          .add(static_cast<double>(c.brownout_fetches));
    }
  }
  return result;
}

void FleetResult::write_json(std::ostream& out) const {
  using obs::detail::append_double;
  using obs::detail::append_json_string;
  using obs::detail::append_uint;

  std::string s;
  s.reserve(1024);
  s += "{\"sessions\":";
  append_uint(s, total_sessions != 0 ? total_sessions : sessions.size());
  s += ",\"watchdog_aborted\":";
  append_uint(s, watchdog_aborted_sessions);
  s += ",\"cache\":{\"enabled\":";
  s += cache_enabled ? "true" : "false";
  s += ",\"lookups\":";
  append_uint(s, cache.lookups);
  s += ",\"hits\":";
  append_uint(s, cache.hits);
  s += ",\"hit_ratio\":";
  append_double(s, cache.hit_ratio());
  s += ",\"byte_hit_ratio\":";
  append_double(s, cache.byte_hit_ratio());
  s += ",\"evictions\":";
  append_uint(s, cache.evictions);
  s += ",\"rejected\":";
  append_uint(s, cache.rejected);
  s += ",\"edge_hit_bits\":";
  append_double(s, edge_hit_bits);
  s += ",\"origin_bits\":";
  append_double(s, origin_bits);
  s += ",\"upstream_fetch_ratio\":";
  append_double(s, upstream_fetch_ratio);
  s += "},\"cdn\":{\"enabled\":";
  s += cdn_enabled ? "true" : "false";
  s += ",\"client_requests\":";
  append_uint(s, cdn.client_requests);
  s += ",\"edge_hits\":";
  append_uint(s, cdn.edge_hits);
  s += ",\"regional_hits\":";
  append_uint(s, cdn.regional_hits);
  s += ",\"origin_fetches\":";
  append_uint(s, cdn.origin_fetches);
  s += ",\"coalesced\":";
  append_uint(s, cdn.coalesced);
  s += ",\"shed\":";
  append_uint(s, cdn.shed);
  s += ",\"failovers\":";
  append_uint(s, cdn.failovers);
  s += ",\"brownout_fetches\":";
  append_uint(s, cdn.brownout_fetches);
  s += ",\"shed_wait_s\":";
  append_double(s, cdn.shed_wait_s);
  s += ",\"regional_hit_bits\":";
  append_double(s, cdn.regional_hit_bits);
  s += ",\"origin_fetch_bits\":";
  append_double(s, cdn.origin_fetch_bits);
  s += ",\"upstream_fetch_ratio\":";
  append_double(s, cdn.upstream_fetch_ratio());
  s += ",\"regional_cache\":{\"lookups\":";
  append_uint(s, regional.lookups);
  s += ",\"hits\":";
  append_uint(s, regional.hits);
  s += ",\"hit_ratio\":";
  append_double(s, regional.hit_ratio());
  s += ",\"evictions\":";
  append_uint(s, regional.evictions);
  s += "}},\"hit_ratio_by_track\":[";
  for (std::size_t i = 0; i < hit_ratio_by_track.size(); ++i) {
    if (i > 0) {
      s += ',';
    }
    append_double(s, hit_ratio_by_track[i]);
  }
  s += "],\"hit_ratio_by_popularity_decile\":[";
  for (std::size_t i = 0; i < hit_ratio_by_popularity_decile.size(); ++i) {
    if (i > 0) {
      s += ',';
    }
    append_double(s, hit_ratio_by_popularity_decile[i]);
  }
  s += "],\"fairness\":{\"jain_quality\":";
  append_double(s, jain_quality);
  s += ",\"jain_bits\":";
  append_double(s, jain_bits);
  s += "},\"per_class\":[";
  for (std::size_t c = 0; c < per_class.size(); ++c) {
    const FleetSchemeReport& r = per_class[c];
    if (c > 0) {
      s += ',';
    }
    s += "{\"label\":";
    append_json_string(s, r.label);
    s += ",\"sessions\":";
    append_uint(s, r.sessions);
    s += ",\"mean_quality\":";
    append_double(s, r.mean_all_quality);
    s += ",\"mean_q4_quality\":";
    append_double(s, r.mean_q4_quality);
    s += ",\"low_quality_pct\":";
    append_double(s, r.mean_low_quality_pct);
    s += ",\"mean_rebuffer_s\":";
    append_double(s, r.mean_rebuffer_s);
    s += ",\"mean_startup_s\":";
    append_double(s, r.mean_startup_delay_s);
    s += ",\"mean_data_mb\":";
    append_double(s, r.mean_data_usage_mb);
    if (experiment_enabled) {
      s += ",\"mean_qoe_scores\":[";
      for (std::size_t m = 0; m < r.mean_qoe_scores.size(); ++m) {
        if (m > 0) {
          s += ',';
        }
        append_double(s, r.mean_qoe_scores[m]);
      }
      s += "]";
    }
    s += "}";
  }
  s += "]";
  if (experiment_enabled) {
    s += ",\"experiment\":{\"arms\":";
    append_uint(s, per_class.size());
    s += ",\"qoe_models\":[";
    for (std::size_t m = 0; m < qoe_model_names.size(); ++m) {
      if (m > 0) {
        s += ',';
      }
      append_json_string(s, qoe_model_names[m]);
    }
    s += "]}";
  }
  s += "}";
  out << s << '\n';
}

}  // namespace vbr::fleet
