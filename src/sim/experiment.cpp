#include "sim/experiment.h"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "core/complexity_classifier.h"
#include "metrics/stats.h"
#include "obs/fold.h"

namespace vbr::sim {

EstimatorFactory default_estimator_factory() {
  return [](const net::Trace&) { return net::make_default_estimator(); };
}

namespace {

template <typename Getter>
std::vector<double> collect(const std::vector<metrics::QoeSummary>& xs,
                            Getter get) {
  std::vector<double> v;
  v.reserve(xs.size());
  for (const metrics::QoeSummary& s : xs) {
    v.push_back(get(s));
  }
  return v;
}

template <typename Getter>
std::vector<double> pool(const std::vector<metrics::QoeSummary>& xs,
                         Getter get) {
  std::vector<double> v;
  for (const metrics::QoeSummary& s : xs) {
    const std::vector<double>& part = get(s);
    v.insert(v.end(), part.begin(), part.end());
  }
  return v;
}

}  // namespace

std::vector<double> ExperimentResult::rebuffer_values() const {
  return collect(per_trace,
                 [](const metrics::QoeSummary& s) { return s.rebuffer_s; });
}

std::vector<double> ExperimentResult::low_quality_pct_values() const {
  return collect(per_trace, [](const metrics::QoeSummary& s) {
    return s.low_quality_pct;
  });
}

std::vector<double> ExperimentResult::quality_change_values() const {
  return collect(per_trace, [](const metrics::QoeSummary& s) {
    return s.avg_quality_change;
  });
}

std::vector<double> ExperimentResult::data_usage_values() const {
  return collect(per_trace, [](const metrics::QoeSummary& s) {
    return s.data_usage_mb;
  });
}

std::vector<double> ExperimentResult::pooled_q4_qualities() const {
  return pool(per_trace, [](const metrics::QoeSummary& s)
                  -> const std::vector<double>& { return s.q4_qualities; });
}

std::vector<double> ExperimentResult::pooled_q13_qualities() const {
  return pool(per_trace, [](const metrics::QoeSummary& s)
                  -> const std::vector<double>& { return s.q13_qualities; });
}

std::vector<double> ExperimentResult::pooled_all_qualities() const {
  return pool(per_trace, [](const metrics::QoeSummary& s)
                  -> const std::vector<double>& { return s.all_qualities; });
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  if (spec.video == nullptr || spec.traces.empty() || !spec.make_scheme) {
    throw std::invalid_argument("run_experiment: malformed spec");
  }
  if (spec.make_size_provider && spec.session.size_provider != nullptr) {
    throw std::invalid_argument(
        "run_experiment: set make_size_provider or session.size_provider, "
        "not both");
  }
  if (spec.threads > kMaxThreads) {
    throw std::invalid_argument(
        "run_experiment: threads exceeds kMaxThreads (" +
        std::to_string(kMaxThreads) + ")");
  }
  if (spec.session.trace != nullptr || spec.session.metrics != nullptr) {
    // A sink on the per-session config would be shared by every worker
    // thread at once; the spec-level sinks exist precisely to avoid that.
    throw std::invalid_argument(
        "run_experiment: wire telemetry through ExperimentSpec::trace/"
        "metrics, not SessionConfig — session sinks are not thread-safe");
  }
  if (spec.session.download_hook != nullptr) {
    // Same reasoning as the sinks: one stateful hook shared across worker
    // threads would make cache state depend on scheduling. run_fleet owns
    // the threading story for delivery-path models (per-title shards).
    throw std::invalid_argument(
        "run_experiment: download hooks are not supported here — "
        "delivery-path models belong to fleet::run_fleet, which shards "
        "them deterministically");
  }
  const bool telemetry_on =
      spec.trace != nullptr || spec.metrics != nullptr;
  const EstimatorFactory make_estimator =
      spec.make_estimator ? spec.make_estimator : default_estimator_factory();

  // Complexity classes of this video (for the Q4-centric QoE metrics).
  const core::ComplexityClassifier classifier(*spec.video);
  const std::vector<std::size_t>& classes = classifier.classes();
  metrics::QoeConfig qoe = spec.qoe;
  qoe.top_class = classifier.num_classes() - 1;

  ExperimentResult result;
  result.per_trace.resize(spec.traces.size());
  result.per_trace_faults.resize(spec.traces.size());
  result.scheme_name = spec.make_scheme()->name();

  // Per-trace telemetry slots: each worker writes only the slot of the
  // trace it owns (lock-free), and the fold below reads them in index
  // order — the merged stream is invariant under the worker schedule.
  std::vector<std::unique_ptr<obs::MemoryTraceSink>> trace_sinks;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  if (telemetry_on) {
    trace_sinks.resize(spec.traces.size());
    registries.resize(spec.traces.size());
  }

  const unsigned threads =
      spec.threads > 0
          ? spec.threads
          : std::max(1u, std::thread::hardware_concurrency());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::atomic<bool> failed{false};
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      try {
        // Worker-owned reusable actors: run_session resets scheme and
        // provider state before each session, so one instance per worker
        // serves every trace it claims with no cross-trace leakage (the
        // back-to-back regression tests pin this) and no per-trace
        // allocation bill. Providers stay worker-private so learned
        // correction state never crosses concurrently-running sessions.
        const std::unique_ptr<abr::AbrScheme> scheme = spec.make_scheme();
        const std::unique_ptr<video::ChunkSizeProvider> sizes =
            spec.make_size_provider ? spec.make_size_provider() : nullptr;
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= spec.traces.size() || failed.load()) {
            return;
          }
          const std::unique_ptr<net::BandwidthEstimator> estimator =
              make_estimator(spec.traces[i]);
          SessionConfig session_config = spec.session;
          if (sizes) {
            session_config.size_provider = sizes.get();
          }
          if (telemetry_on) {
            session_config.session_id = i;
            if (spec.trace != nullptr) {
              trace_sinks[i] = std::make_unique<obs::MemoryTraceSink>();
              session_config.trace = trace_sinks[i].get();
            }
            if (spec.metrics != nullptr) {
              registries[i] = std::make_unique<obs::MetricsRegistry>();
              session_config.metrics = registries[i].get();
            }
          }
          const SessionResult session =
              run_session(*spec.video, spec.traces[i], *scheme, *estimator,
                          session_config);
          result.per_trace_faults[i] = session.fault_summary();
          const std::vector<metrics::PlayedChunk> played =
              session.to_played_chunks(spec.metric, classes);
          if (played.empty()) {
            // Every chunk was skipped (total outage + retry exhaustion):
            // nothing watchable, but the session still has timing metrics.
            metrics::QoeSummary s;
            s.rebuffer_s = session.total_rebuffer_s;
            s.startup_delay_s = session.startup_delay_s;
            s.low_quality_pct = 100.0;
            result.per_trace[i] = std::move(s);
          } else {
            result.per_trace[i] =
                metrics::compute_qoe(played, session.total_rebuffer_s,
                                     session.startup_delay_s, qoe);
          }
        }
      } catch (...) {
        failed.store(true);
        throw;  // surfaces via std::terminate: experiment bugs are fatal
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  // Stable-order telemetry fold: trace index, never worker id. Events are
  // re-sequenced globally so the merged stream has one monotone `seq`.
  if (spec.trace != nullptr) {
    (void)obs::fold_traces(trace_sinks, *spec.trace, threads);
    spec.trace->flush();
  }
  if (spec.metrics != nullptr) {
    for (const std::unique_ptr<obs::MetricsRegistry>& reg : registries) {
      if (reg) {
        spec.metrics->merge(*reg);
      }
    }
  }

  const auto& pt = result.per_trace;
  result.mean_q4_quality = stats::mean(collect(
      pt, [](const metrics::QoeSummary& s) { return s.q4_quality_mean; }));
  result.mean_q13_quality = stats::mean(collect(
      pt, [](const metrics::QoeSummary& s) { return s.q13_quality_mean; }));
  result.mean_all_quality = stats::mean(collect(
      pt, [](const metrics::QoeSummary& s) { return s.all_quality_mean; }));
  result.mean_low_quality_pct = stats::mean(result.low_quality_pct_values());
  result.mean_rebuffer_s = stats::mean(result.rebuffer_values());
  result.mean_quality_change = stats::mean(result.quality_change_values());
  result.mean_data_usage_mb = stats::mean(result.data_usage_values());
  {
    std::vector<double> attempts;
    std::vector<double> skipped;
    attempts.reserve(result.per_trace_faults.size());
    skipped.reserve(result.per_trace_faults.size());
    for (const metrics::FaultSummary& f : result.per_trace_faults) {
      attempts.push_back(f.attempts_per_chunk());
      skipped.push_back(f.skipped_pct());
    }
    result.mean_attempts_per_chunk = stats::mean(attempts);
    result.mean_skipped_pct = stats::mean(skipped);
  }
  return result;
}

}  // namespace vbr::sim
