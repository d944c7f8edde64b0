#include "fleet/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/complexity_classifier.h"
#include "fleet/checkpoint.h"
#include "obs/fold.h"
#include "sim/stepper.h"

namespace vbr::fleet::detail {

namespace {

/// Events popped per batch. Deliberately a fixed constant — NOT derived
/// from the thread count — so checkpoint and kill barriers (which fire
/// between batches) land on the same event boundaries at any parallelism.
constexpr std::size_t kEventBatch = 256;

/// One scheduled chunk decision: virtual time (global fleet clock =
/// arrival_s + session-local clock) plus the session id as the
/// deterministic tie-break.
struct Event {
  double vt = 0.0;
  std::uint64_t sid = 0;
};

/// Min-heap ordering for std::priority_queue (which pops its "largest").
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.vt != b.vt) {
      return a.vt > b.vt;
    }
    return a.sid > b.sid;
  }
};

/// Boundary snapshot of a chained title's shared delivery state, captured
/// at each session completion while crash safety is armed. The live shard
/// mid-batch can reflect a half-run in-flight session, so checkpoints
/// serialize the last boundary instead; the in-flight session is simply
/// re-simulated on resume. Track rows, done counts, records, and telemetry
/// slots need no snapshot — they only mutate at completion, in the serial
/// post-phase, so they are boundary-consistent by construction.
struct TitleBoundary {
  EdgeCacheStats shard_stats;
  std::vector<EdgeCacheEntrySnapshot> shard_entries;
  std::uint64_t cdn_requests = 0;
  std::uint64_t cdn_consecutive_sheds = 0;
  CdnStats cdn_stats;
  EdgeCacheStats regional_stats;
  std::vector<EdgeCacheEntrySnapshot> regional_entries;
  std::vector<std::pair<std::uint64_t, CdnInflight>> inflight;
};

/// One completed session queued in the streaming reorder drain: the record
/// plus its private telemetry, all of which are dropped once folded.
struct DrainItem {
  FleetSessionRecord record;
  std::unique_ptr<obs::MemoryTraceSink> sink;
  std::unique_ptr<obs::MetricsRegistry> registry;
};

/// Reusable fork-join pool for the data-parallel step phase: run(fn)
/// executes fn on every helper thread plus the caller and returns when all
/// are done. The generation counter + mutex hand-off gives the serial
/// post-phase a happens-before edge over every helper's writes.
class StepPool {
 public:
  explicit StepPool(unsigned helpers) {
    threads_.reserve(helpers);
    for (unsigned i = 0; i < helpers; ++i) {
      threads_.emplace_back([this] { worker(); });
    }
  }

  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  ~StepPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
      ++gen_;
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  void run(const std::function<void()>& fn) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = &fn;
      busy_ = static_cast<unsigned>(threads_.size());
      ++gen_;
    }
    cv_start_.notify_all();
    fn();  // the caller is a worker too
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return busy_ == 0; });
    job_ = nullptr;
  }

 private:
  void worker() {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void()>* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_start_.wait(lk, [&] { return shutdown_ || gen_ != seen; });
        if (shutdown_) {
          return;
        }
        seen = gen_;
        job = job_;
      }
      if (job != nullptr) {
        (*job)();
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--busy_ == 0) {
          cv_done_.notify_one();
        }
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;
  const std::function<void()>* job_ = nullptr;
  unsigned busy_ = 0;
  std::uint64_t gen_ = 0;
  bool shutdown_ = false;
};

/// The engine proper. Columnar per-session lanes + one global event heap;
/// see engine.h for the architecture contract.
class EventEngine {
 public:
  explicit EventEngine(EngineContext& ctx)
      : ctx_(ctx),
        n_(ctx.arrivals.size()),
        num_titles_(ctx.catalog.num_titles()),
        chained_(ctx.spec.use_cache),
        streaming_(ctx.spec.stream_aggregation),
        stepper_(n_),
        scheme_(n_),
        estimator_(n_),
        provider_(n_),
        completed_(n_, 0),
        title_rt_(num_titles_),
        edge_path_(chained_ ? num_titles_ : 0),
        cdn_path_(chained_ && ctx.cdn_on ? num_titles_ : 0),
        boundary_(ctx.crash_safety_on && chained_ ? num_titles_ : 0),
        events_done_(ctx.initial_events),
        sessions_done_(ctx.initial_done) {
    if (ctx_.resumed_completed != nullptr) {
      completed_ = *ctx_.resumed_completed;
    }
    const bool have_path = !ctx_.spec.checkpoint_path.empty();
    if (have_path && ctx_.spec.checkpoint_every > 0) {
      next_ckpt_at_ =
          (events_done_ / ctx_.spec.checkpoint_every + 1) *
          ctx_.spec.checkpoint_every;
    }
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(ctx_.threads, kEventBatch));
    if (workers > 1) {
      pool_ = std::make_unique<StepPool>(workers - 1);
    }
    batch_.reserve(kEventBatch);
    more_.resize(kEventBatch, 0);
    errors_.resize(kEventBatch);
  }

  void run() {
    admit_initial();
    seed_resumed_boundaries();
    const bool have_path = !ctx_.spec.checkpoint_path.empty();
    const std::uint64_t kill_after = ctx_.spec.kill.after_sessions;

    while (!heap_.empty()) {
      max_heap_ = std::max<std::uint64_t>(max_heap_, heap_.size());
      // Pop one deterministic batch of distinct sessions (at most one
      // in-flight event per session exists at a time, so distinctness is
      // structural).
      batch_.clear();
      while (!heap_.empty() && batch_.size() < kEventBatch) {
        batch_.push_back(heap_.top());
        heap_.pop();
      }
      // Uncoupled mode: the batch floor (min virtual time of any
      // unprocessed event) never moves backwards — every follow-up lands
      // at or after its parent. Chained admissions may rewind it (a
      // successor arrives at its own, earlier arrival time), so the check
      // is scoped to the uncoupled timeline.
      if (!chained_) {
        if (batch_.front().vt < vt_floor_) {
          throw std::logic_error(
              "fleet event engine: global virtual time moved backwards");
        }
        vt_floor_ = batch_.front().vt;
      }

      step_batch();

      // Serial post-phase, in event order: first error wins, then
      // follow-ups / completions / folds.
      for (std::size_t j = 0; j < batch_.size(); ++j) {
        if (errors_[j]) {
          std::rethrow_exception(errors_[j]);
        }
      }
      peak_in_flight_ =
          std::max(peak_in_flight_, in_flight_.load(std::memory_order_relaxed));
      for (std::size_t j = 0; j < batch_.size(); ++j) {
        const std::size_t sid = static_cast<std::size_t>(batch_[j].sid);
        ++events_done_;
        if (more_[j] != 0) {
          heap_.push(
              {ctx_.arrivals[sid] + stepper_[sid]->now_s(), batch_[j].sid});
        } else {
          complete(sid);
        }
      }

      // Barriers fire between batches, at event-count boundaries that a
      // fixed kEventBatch keeps identical across thread counts.
      if (kill_after > 0 && sessions_done_ >= kill_after) {
        if (have_path) {
          save_checkpoint();
        }
        throw FleetKilled(sessions_done_, ctx_.spec.checkpoint_path);
      }
      if (have_path && ctx_.spec.checkpoint_every > 0 &&
          events_done_ >= next_ckpt_at_) {
        save_checkpoint();
        next_ckpt_at_ = (events_done_ / ctx_.spec.checkpoint_every + 1) *
                        ctx_.spec.checkpoint_every;
      }
    }

    if (streaming_ && drain_.pending() != 0) {
      throw std::logic_error(
          "fleet event engine: streaming drain did not empty");
    }
    FleetEngineStats& es = ctx_.result.engine_stats;
    es.events_processed = events_done_;
    es.peak_in_flight = peak_in_flight_;
    es.max_heap_size = max_heap_;
    es.peak_resident_records = drain_.peak_pending();
  }

 private:
  void admit_initial() {
    if (chained_) {
      // Coupled titles run serially in arrival order: admit only each
      // title's first unfinished session; completions chain the rest.
      for (std::size_t k = 0; k < num_titles_; ++k) {
        const std::vector<std::size_t>& ids = ctx_.by_title[k];
        if (!ids.empty() && ctx_.done_in_title[k] < ids.size()) {
          const std::size_t sid = ids[ctx_.done_in_title[k]];
          heap_.push({ctx_.arrivals[sid], static_cast<std::uint64_t>(sid)});
        }
      }
    } else {
      // Uncoupled sessions share nothing: every remaining arrival goes on
      // the timeline up front — the 100k-concurrency mode.
      for (std::size_t sid = 0; sid < n_; ++sid) {
        if (completed_[sid] == 0) {
          heap_.push({ctx_.arrivals[sid], static_cast<std::uint64_t>(sid)});
        }
      }
    }
  }

  /// A resumed in-progress chained title restarts exactly at a session
  /// boundary, so its restored live state IS its first boundary snapshot —
  /// captured here in case a checkpoint fires before its next completion.
  void seed_resumed_boundaries() {
    if (boundary_.empty()) {
      return;
    }
    for (std::size_t k = 0; k < num_titles_; ++k) {
      const std::size_t dk = ctx_.done_in_title[k];
      if (dk > 0 && dk < ctx_.by_title[k].size()) {
        capture_boundary(k);
      }
    }
  }

  /// Builds the per-session actors and the resumable stepper. Runs inside
  /// the parallel step phase: it touches only this session's lanes, the
  /// immutable shared setup, and (chained mode) this title's delivery
  /// state — safe because a batch holds at most one session per title.
  void open_session(std::size_t sid) {
    const SessionDraw& d = ctx_.draws[sid];
    const std::size_t k = d.title;
    const FleetClientClass& cls = ctx_.fleet_classes[d.cls];
    // Columnar lanes get fresh actors per session; the stepper's reset()
    // contract makes fresh and pooled instances byte-identical, so this
    // matches the stepper engine's per-worker pooling.
    scheme_[sid] = cls.make_scheme();
    estimator_[sid] = (cls.make_estimator ? cls.make_estimator
                                          : ctx_.default_estimator)(
        ctx_.spec.traces[d.trace]);
    if (cls.make_size_provider) {
      provider_[sid] = cls.make_size_provider();
    }

    sim::SessionConfig sc = ctx_.spec.session;
    sc.fault = cls.fault;
    sc.retry = cls.retry;
    sc.watch_duration_s = d.watch_s;
    sc.session_id = sid;
    sc.fleet_session = true;
    sc.fleet_arrival_s = ctx_.arrivals[sid];
    sc.fleet_title = k;
    if (ctx_.experiment_on) {
      sc.fleet_arm = static_cast<std::int64_t>(d.cls);
    }
    if (provider_[sid]) {
      sc.size_provider = provider_[sid].get();
    }
    if (chained_) {
      if (!ctx_.shards[k]) {
        ctx_.shards[k] = std::make_unique<EdgeCache>(ctx_.shard_cfg);
      }
      if (ctx_.cdn_on) {
        if (!cdn_path_[k]) {
          cdn_path_[k] = std::make_unique<CdnPath>(
              *ctx_.cdn_model, *ctx_.shards[k], ctx_.cdn_states[k],
              static_cast<std::uint32_t>(k));
        }
        cdn_path_[k]->begin_session(ctx_.arrivals[sid]);
        sc.download_hook = cdn_path_[k].get();
      } else {
        if (!edge_path_[k]) {
          edge_path_[k] = std::make_unique<EdgeCachePath>(
              *ctx_.shards[k], static_cast<std::uint32_t>(k));
        }
        sc.download_hook = edge_path_[k].get();
      }
    }
    if (ctx_.telemetry_on) {
      if (ctx_.spec.trace != nullptr) {
        ctx_.sinks[sid] = std::make_unique<obs::MemoryTraceSink>();
        sc.trace = ctx_.sinks[sid].get();
      }
      if (ctx_.spec.metrics != nullptr) {
        ctx_.registries[sid] = std::make_unique<obs::MetricsRegistry>();
        sc.metrics = ctx_.registries[sid].get();
      }
    }
    stepper_[sid] = std::make_unique<sim::SessionStepper>(
        ctx_.catalog.title(k), ctx_.spec.traces[d.trace], *scheme_[sid],
        *estimator_[sid], sc);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }

  void step_one(std::size_t j) {
    const std::size_t sid = static_cast<std::size_t>(batch_[j].sid);
    errors_[j] = nullptr;
    try {
      if (!stepper_[sid]) {
        open_session(sid);
      }
      more_[j] = stepper_[sid]->step() ? 1 : 0;
    } catch (...) {
      errors_[j] = std::current_exception();
      more_[j] = 0;
    }
  }

  /// Data-parallel step phase: batch entries are distinct sessions with
  /// disjoint mutable state, claimed off an atomic cursor. Results and
  /// errors land in per-slot arrays consumed by the serial post-phase.
  /// Without a pool the cursor and its per-slot atomic traffic are skipped
  /// outright — single-threaded throughput is a benchmarked floor.
  void step_batch() {
    if (!pool_) {
      for (std::size_t j = 0; j < batch_.size(); ++j) {
        step_one(j);
      }
      return;
    }
    std::atomic<std::size_t> cursor{0};
    pool_->run([&] {
      while (true) {
        const std::size_t j = cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= batch_.size()) {
          break;
        }
        step_one(j);
      }
    });
  }

  /// Serial post-phase completion: record build + fold, lane teardown,
  /// chained follow-up admission, title-completion folds, boundary capture.
  void complete(std::size_t sid) {
    const SessionDraw& d = ctx_.draws[sid];
    const std::size_t k = d.title;
    TitleRuntime& tr = title_rt_[k];
    if (!tr.ready) {
      const core::ComplexityClassifier classifier(ctx_.catalog.title(k));
      tr.classes = classifier.classes();
      tr.qoe = ctx_.spec.qoe;
      tr.qoe.top_class = classifier.num_classes() - 1;
      tr.ready = true;
    }
    const sim::SessionResult sr = stepper_[sid]->finish();
    FleetSessionRecord rec = build_session_record(
        ctx_.spec, d, sid, ctx_.arrivals[sid], k, sr, tr.classes, tr.qoe,
        ctx_.qoe_suite, ctx_.experiment_on, ctx_.track_hits[k],
        ctx_.track_total[k]);
    if (ctx_.journal != nullptr) {
      // Encoded in the serial completion phase; the checkpoint below only
      // moves the block.
      ctx_.journal->encode(
          rec, ctx_.telemetry_on ? ctx_.sinks[sid].get() : nullptr,
          ctx_.telemetry_on ? ctx_.registries[sid].get() : nullptr);
    }

    stepper_[sid].reset();
    scheme_[sid].reset();
    estimator_[sid].reset();
    provider_[sid].reset();
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    completed_[sid] = 1;
    ++sessions_done_;
    ++ctx_.done_in_title[k];

    if (streaming_) {
      // Streaming aggregation: the session-id reorder drain releases
      // completions in exactly the fold order the materializing path uses,
      // then drops them — memory stays O(in-flight).
      DrainItem item;
      item.record = std::move(rec);
      if (ctx_.telemetry_on) {
        item.sink = std::move(ctx_.sinks[sid]);
        item.registry = std::move(ctx_.registries[sid]);
      }
      drain_.put(sid, std::move(item));
      while (auto ready = drain_.pop()) {
        ctx_.fold.add(ctx_.result, ready->record);
        ctx_.telemetry_fold.add(ready->sink, ready->registry.get());
      }
    } else {
      ctx_.result.sessions[sid] = std::move(rec);
    }

    if (chained_) {
      const std::vector<std::size_t>& ids = ctx_.by_title[k];
      const std::size_t done = ctx_.done_in_title[k];
      if (done < ids.size()) {
        // Chain the next session of this coupled title at its own arrival
        // time (which may precede the current batch floor — the title's
        // serial order is what matters, not the global clock).
        const std::size_t nsid = ids[done];
        heap_.push({ctx_.arrivals[nsid], static_cast<std::uint64_t>(nsid)});
        if (!boundary_.empty()) {
          capture_boundary(k);
        }
      } else if (ctx_.shards[k]) {
        // Title complete: fold shard + CDN state exactly like the stepper.
        ctx_.shard_stats[k] = ctx_.shards[k]->stats();
        ctx_.shards[k].reset();  // bound memory: the shard is folded
        edge_path_.at(k).reset();
        if (ctx_.cdn_on) {
          cdn_path_[k].reset();
          TitleCdnState& cst = ctx_.cdn_states[k];
          if (cst.regional) {
            cst.regional_stats = cst.regional->stats();
            cst.regional.reset();
          }
          cst.inflight.clear();  // fetch windows die with the title
        }
      }
    }

    if (ctx_.spec.throttle_us > 0) {
      // Chaos aid only (see FleetSpec::throttle_us): wall time, no output.
      std::this_thread::sleep_for(
          std::chrono::microseconds(ctx_.spec.throttle_us));
    }
  }

  void capture_boundary(std::size_t k) {
    TitleBoundary& b = boundary_[k];
    b.shard_stats = ctx_.shards[k]->stats();
    b.shard_entries = ctx_.shards[k]->snapshot();
    if (ctx_.cdn_on) {
      const TitleCdnState& cst = ctx_.cdn_states[k];
      b.cdn_requests = cst.requests;
      b.cdn_consecutive_sheds = cst.consecutive_sheds;
      b.cdn_stats = cst.stats;
      if (cst.regional) {
        b.regional_stats = cst.regional->stats();
        b.regional_entries = cst.regional->snapshot();
      }
      b.inflight.assign(cst.inflight.begin(), cst.inflight.end());
    }
  }

  /// Journal segment between batches, captured and committed inline.
  /// Completed titles and track/record state are live-consistent (mutated
  /// only at completion); in-progress chained titles serialize their last
  /// boundary snapshot.
  void save_checkpoint() {
    const auto started = std::chrono::steady_clock::now();
    FleetCheckpoint::Segment head;
    head.engine = FleetEngine::kEvent;
    head.events_done = events_done_;
    head.spec_fingerprint = ctx_.fp;
    head.experiment_fingerprint = ctx_.exp_fp;
    head.num_sessions = n_;
    head.num_titles = num_titles_;
    head.max_tracks = ctx_.max_tracks;
    head.sessions_done = sessions_done_;
    for (std::size_t k = 0; k < num_titles_; ++k) {
      const std::size_t dk = ctx_.done_in_title[k];
      if (dk == 0) {
        continue;
      }
      FleetCheckpoint::TitleState ts;
      ts.index = k;
      ts.done = dk;
      ts.total = ctx_.by_title[k].size();
      ts.track_hits = ctx_.track_hits[k];
      ts.track_total = ctx_.track_total[k];
      const bool in_progress = dk < ctx_.by_title[k].size();
      if (chained_ && in_progress) {
        const TitleBoundary& b = boundary_.at(k);
        ts.stats = b.shard_stats;
        ts.has_shard = true;
        ts.shard_entries = b.shard_entries;
        if (ctx_.cdn_on) {
          ts.cdn_requests = b.cdn_requests;
          ts.cdn_consecutive_sheds = b.cdn_consecutive_sheds;
          ts.cdn_stats = b.cdn_stats;
          ts.has_regional = true;
          ts.regional_stats = b.regional_stats;
          ts.regional_entries = b.regional_entries;
          ts.inflight = b.inflight;
        }
      } else {
        // Completed title (stats folded at completion) or uncoupled run
        // (no shard at all — ts.stats stays zero, matching the stepper).
        ts.stats = ctx_.shard_stats[k];
        if (ctx_.cdn_on) {
          const TitleCdnState& cst = ctx_.cdn_states[k];
          ts.cdn_requests = cst.requests;
          ts.cdn_consecutive_sheds = cst.consecutive_sheds;
          ts.cdn_stats = cst.stats;
          ts.regional_stats = cst.regional_stats;
        }
      }
      head.titles.push_back(std::move(ts));
    }
    // With uncoupled interleaving the done set need not be per-title
    // prefixes; the journal takes whichever completed sessions it has not
    // written yet.
    std::vector<std::size_t> done_sids;
    done_sids.reserve(sessions_done_);
    for (std::size_t sid = 0; sid < n_; ++sid) {
      if (completed_[sid] != 0) {
        done_sids.push_back(sid);
      }
    }
    ctx_.journal->commit(ctx_.journal->capture(head, done_sids, started));
  }

  /// Per-title immutable data built lazily at first completion (serial
  /// post-phase): complexity classes + the title-adjusted QoE config.
  struct TitleRuntime {
    bool ready = false;
    std::vector<std::size_t> classes;
    metrics::QoeConfig qoe;
  };

  EngineContext& ctx_;
  const std::size_t n_;
  const std::size_t num_titles_;
  const bool chained_;
  const bool streaming_;

  std::priority_queue<Event, std::vector<Event>, EventAfter> heap_;
  std::vector<Event> batch_;
  std::vector<std::uint8_t> more_;
  std::vector<std::exception_ptr> errors_;

  // Columnar (struct-of-arrays) per-session lanes, indexed by session id;
  // entries live only while the session is in flight.
  std::vector<std::unique_ptr<sim::SessionStepper>> stepper_;
  std::vector<std::unique_ptr<abr::AbrScheme>> scheme_;
  std::vector<std::unique_ptr<net::BandwidthEstimator>> estimator_;
  std::vector<std::unique_ptr<video::ChunkSizeProvider>> provider_;
  std::vector<std::uint8_t> completed_;

  std::vector<TitleRuntime> title_rt_;
  std::vector<std::unique_ptr<EdgeCachePath>> edge_path_;  ///< Per title.
  std::vector<std::unique_ptr<CdnPath>> cdn_path_;         ///< Per title.
  std::vector<TitleBoundary> boundary_;  ///< Crash-safe chained runs only.

  obs::OrderedDrain<DrainItem> drain_;
  std::unique_ptr<StepPool> pool_;

  std::uint64_t events_done_;
  std::uint64_t sessions_done_;
  std::uint64_t next_ckpt_at_ = 0;
  std::atomic<std::uint64_t> in_flight_{0};
  std::uint64_t peak_in_flight_ = 0;
  std::uint64_t max_heap_ = 0;
  double vt_floor_ = -std::numeric_limits<double>::infinity();
};

}  // namespace

void run_fleet_event(EngineContext& ctx) {
  EventEngine engine(ctx);
  engine.run();
}

}  // namespace vbr::fleet::detail
