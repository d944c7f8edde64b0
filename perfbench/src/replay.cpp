#include "replay.h"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "core/complexity_classifier.h"
#include "decorators.h"
#include "fleet/cdn.h"
#include "fleet/edge_cache.h"
#include "metrics/qoe.h"
#include "sim/stepper.h"

namespace perfbench {
namespace {

using vbr::fleet::FleetSessionRecord;
using vbr::metrics::QoeSummary;

/// The record fields a replayed session must reproduce, derived from the
/// session result the way run_fleet derives them.
struct Replayed {
  std::size_t chunks = 0;
  std::size_t edge_hits = 0;
  std::size_t regional_hits = 0;
  std::size_t coalesced_chunks = 0;
  std::size_t shed_chunks = 0;
  QoeSummary qoe;
};

Replayed summarize(const vbr::sim::SessionResult& sr,
                   vbr::video::QualityMetric metric,
                   const std::vector<std::size_t>& classes,
                   const vbr::metrics::QoeConfig& qoe) {
  Replayed out;
  out.chunks = sr.chunks.size();
  for (const vbr::sim::ChunkRecord& c : sr.chunks) {
    if (c.skipped) {
      continue;
    }
    if (c.edge_hit) {
      ++out.edge_hits;
    } else if (c.coalesced) {
      ++out.coalesced_chunks;
    } else if (c.delivery_tier == 1) {
      ++out.regional_hits;
    }
    if (c.shed) {
      ++out.shed_chunks;
    }
  }
  const std::vector<vbr::metrics::PlayedChunk> played =
      sr.to_played_chunks(metric, classes);
  if (played.empty()) {
    out.qoe.rebuffer_s = sr.total_rebuffer_s;
    out.qoe.startup_delay_s = sr.startup_delay_s;
    out.qoe.low_quality_pct = 100.0;
  } else {
    out.qoe = vbr::metrics::compute_qoe(played, sr.total_rebuffer_s,
                                        sr.startup_delay_s, qoe);
  }
  return out;
}

bool same_qoe(const QoeSummary& a, const QoeSummary& b) {
  return a.q4_quality_mean == b.q4_quality_mean &&
         a.q4_quality_median == b.q4_quality_median &&
         a.q13_quality_mean == b.q13_quality_mean &&
         a.all_quality_mean == b.all_quality_mean &&
         a.low_quality_pct == b.low_quality_pct &&
         a.rebuffer_s == b.rebuffer_s &&
         a.startup_delay_s == b.startup_delay_s &&
         a.avg_quality_change == b.avg_quality_change &&
         a.data_usage_mb == b.data_usage_mb &&
         a.q4_qualities == b.q4_qualities &&
         a.q13_qualities == b.q13_qualities &&
         a.all_qualities == b.all_qualities;
}

/// Empty when `got` reproduces `rec`; otherwise names the first field
/// that differs.
std::string diff(const FleetSessionRecord& rec, const Replayed& got) {
  std::ostringstream out;
  out << "session " << rec.session_id << ": ";
  if (got.chunks != rec.chunks) {
    out << "chunks " << got.chunks << " != " << rec.chunks;
  } else if (got.edge_hits != rec.edge_hits) {
    out << "edge_hits " << got.edge_hits << " != " << rec.edge_hits;
  } else if (got.regional_hits != rec.regional_hits) {
    out << "regional_hits " << got.regional_hits
        << " != " << rec.regional_hits;
  } else if (got.coalesced_chunks != rec.coalesced_chunks) {
    out << "coalesced_chunks " << got.coalesced_chunks
        << " != " << rec.coalesced_chunks;
  } else if (got.shed_chunks != rec.shed_chunks) {
    out << "shed_chunks " << got.shed_chunks << " != " << rec.shed_chunks;
  } else if (!same_qoe(got.qoe, rec.qoe)) {
    out << "QoE summary differs";
  } else {
    return {};
  }
  return out.str();
}

}  // namespace

std::pair<std::size_t, std::size_t> busiest_title(
    const vbr::fleet::FleetResult& fleet, std::size_t num_titles) {
  std::vector<std::size_t> count(num_titles, 0);
  for (const FleetSessionRecord& r : fleet.sessions) {
    ++count.at(r.title);
  }
  std::size_t best = 0;
  for (std::size_t k = 1; k < num_titles; ++k) {
    if (count[k] > count[best]) {
      best = k;
    }
  }
  return {best, count.empty() ? 0 : count[best]};
}

ReplayOutcome replay_busiest_title(const Workload& w, const Inputs& in,
                                   const vbr::fleet::FleetResult& fleet) {
  const vbr::fleet::FleetSpec& spec = w.spec;
  const std::size_t num_titles = in.catalog->num_titles();
  ReplayOutcome out;
  out.title = busiest_title(fleet, num_titles).first;
  const auto title = static_cast<std::uint32_t>(out.title);
  const vbr::video::Video& video = in.catalog->title(out.title);
  const vbr::core::ComplexityClassifier classifier(video);
  vbr::metrics::QoeConfig qoe = spec.qoe;
  qoe.top_class = classifier.num_classes() - 1;

  // The title's delivery state, built the way run_fleet builds a shard:
  // total capacity split evenly across titles.
  vbr::fleet::EdgeCacheConfig shard_cfg = spec.cache;
  shard_cfg.capacity_bits =
      spec.cache.capacity_bits / static_cast<double>(num_titles);
  std::unique_ptr<vbr::fleet::EdgeCache> edge;
  std::optional<vbr::fleet::CdnModel> cdn_model;
  vbr::fleet::TitleCdnState cdn_state;
  std::unique_ptr<vbr::fleet::CdnPath> cdn_path;
  std::unique_ptr<vbr::fleet::EdgeCachePath> edge_path;
  std::unique_ptr<TimedHook> hook;
  if (spec.use_cache) {
    edge = std::make_unique<vbr::fleet::EdgeCache>(shard_cfg);
    if (spec.cdn.enabled) {
      cdn_model.emplace(spec.cdn, shard_cfg, num_titles, in.arrivals);
      cdn_path = std::make_unique<vbr::fleet::CdnPath>(*cdn_model, *edge,
                                                       cdn_state, title);
      hook = std::make_unique<TimedHook>(*cdn_path);
    } else {
      edge_path = std::make_unique<vbr::fleet::EdgeCachePath>(*edge, title);
      hook = std::make_unique<TimedHook>(*edge_path);
    }
  }

  const bool experiment_on = spec.experiment.enabled();
  const std::vector<vbr::fleet::FleetClientClass>& classes =
      experiment_on ? spec.experiment.arms : spec.classes;
  // One scheme per class, reused across sessions as run_fleet's workers
  // do (the stepper resets it).
  std::vector<std::unique_ptr<vbr::abr::AbrScheme>> schemes(classes.size());
  std::vector<vbr::sim::EstimatorFactory> estimators(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    schemes[c] = timed_scheme_factory(classes[c].make_scheme,
                                      w.class_tags[c])();
    estimators[c] = timed_estimator_factory(
        classes[c].make_estimator ? classes[c].make_estimator
                                  : vbr::sim::default_estimator_factory());
  }

  for (const FleetSessionRecord& rec : fleet.sessions) {
    if (rec.title != out.title) {
      continue;
    }
    const vbr::fleet::FleetClientClass& cls = classes.at(rec.class_index);
    const vbr::net::Trace& trace = in.traces.at(rec.trace_index);
    const std::unique_ptr<vbr::net::BandwidthEstimator> estimator =
        estimators[rec.class_index](trace);

    vbr::sim::SessionConfig sc = spec.session;
    sc.fault = cls.fault;
    sc.retry = cls.retry;
    sc.watch_duration_s = rec.watch_duration_s;
    sc.session_id = rec.session_id;
    sc.fleet_session = true;
    sc.fleet_arrival_s = rec.arrival_s;
    sc.fleet_title = out.title;
    if (experiment_on) {
      sc.fleet_arm = static_cast<std::int64_t>(rec.class_index);
    }
    if (cdn_path) {
      cdn_path->begin_session(rec.arrival_s);
    }
    sc.download_hook = hook.get();

    vbr::sim::SessionStepper stepper(video, trace, *schemes[rec.class_index],
                                     *estimator, sc);
    bool more = true;
    while (more) {
      const ScopedSpan span(SpanKind::kStep);
      more = stepper.step();
      ++out.steps;
    }
    const Replayed got =
        summarize(stepper.finish(), spec.metric, classifier.classes(), qoe);
    ++out.sessions;
    const std::string mismatch = diff(rec, got);
    if (!mismatch.empty()) {
      if (out.mismatched == 0) {
        out.first_mismatch = mismatch;
      }
      ++out.mismatched;
    }
  }
  return out;
}

}  // namespace perfbench
