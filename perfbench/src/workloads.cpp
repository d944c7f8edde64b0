#include "workloads.h"

#include <stdexcept>
#include <utility>

#include "abr/bola.h"
#include "abr/mpc.h"
#include "core/cava.h"
#include "decorators.h"
#include "fleet/arrivals.h"
#include "net/trace_gen.h"

namespace perfbench {
namespace {

using vbr::fleet::FleetClientClass;

// Every workload draws from 32 LTE-like and 32 FCC-like traces of 300 s.
constexpr std::size_t kLteTraces = 32;
constexpr std::size_t kFccTraces = 32;
constexpr double kTraceDurationS = 300.0;

/// splitmix64 finalizer: independent sub-seeds from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

FleetClientClass client_class(SchemeTag tag) {
  FleetClientClass c;
  switch (tag) {
    case SchemeTag::kCava:
      c.label = "cava";
      c.make_scheme = [] { return vbr::core::make_cava_p123(); };
      break;
    case SchemeTag::kRobustMpc:
      c.label = "robust_mpc";
      c.make_scheme = [] {
        return std::make_unique<vbr::abr::Mpc>(vbr::abr::robust_mpc_config());
      };
      break;
    case SchemeTag::kBola:
      c.label = "bola_e";
      c.make_scheme = [] {
        vbr::abr::BolaConfig cfg;
        cfg.size_view = vbr::abr::BolaSizeView::kPeak;
        return std::make_unique<vbr::abr::Bola>(cfg);
      };
      break;
    case SchemeTag::kOther:
      throw std::invalid_argument("perfbench: no scheme for tag 'other'");
  }
  return c;
}

/// Shared shape: 64 titles of 60 s (30 two-second chunks), Zipf(0.8)
/// popularity, mixed LTE + FCC traces.
Workload base(std::uint64_t seed) {
  Workload w;
  w.spec.catalog.num_titles = 64;
  w.spec.catalog.zipf_alpha = 0.8;
  w.spec.catalog.title_duration_s = 60.0;
  w.spec.catalog.chunk_duration_s = 2.0;
  w.spec.catalog.seed = mix(seed, 1);
  w.spec.arrivals.seed = mix(seed, 2);
  w.spec.seed = mix(seed, 3);
  w.spec.cdn.seed = mix(seed, 4);
  w.spec.experiment.seed = mix(seed, 5);
  w.trace_seed = mix(seed, 6);
  return w;
}

void set_classes(Workload& w, std::vector<SchemeTag> tags) {
  for (const SchemeTag t : tags) {
    w.spec.classes.push_back(client_class(t));
  }
  w.class_tags = std::move(tags);
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w = base(seed);
  if (name == "vod-coupled") {
    // Coupled reference fleet: Poisson arrivals through the edge cache and
    // the CDN hierarchy (coalescing + load shedding), default engine.
    w.spec.arrivals.kind = vbr::fleet::ArrivalKind::kPoisson;
    w.spec.arrivals.rate_per_s = 4.0;
    w.spec.arrivals.horizon_s = 3600.0;
    w.spec.arrivals.max_sessions = 3000;
    set_classes(w, {SchemeTag::kCava, SchemeTag::kRobustMpc});
    w.spec.use_cache = true;
    w.spec.cdn.enabled = true;
    w.spec.cdn.coalesce = true;
    // ~240 sessions active at 4/s over a 60 s window: utilization ~0.8
    // against a 300-session origin, just past the 0.7 shedding threshold.
    w.spec.cdn.shed.capacity_sessions = 300.0;
    return w;
  }
  if (name == "flash-crowd-stream") {
    // Uncoupled scale mode: a flash crowd puts ~20k sessions in flight on
    // the event engine with streaming aggregation; no delivery model.
    w.spec.arrivals.kind = vbr::fleet::ArrivalKind::kFlashCrowd;
    w.spec.arrivals.rate_per_s = 8.0;
    w.spec.arrivals.horizon_s = 240.0;
    w.spec.arrivals.burst_start_s = 20.0;
    w.spec.arrivals.burst_duration_s = 25.0;
    w.spec.arrivals.burst_multiplier = 125.0;
    set_classes(w, {SchemeTag::kCava, SchemeTag::kBola});
    w.spec.use_cache = false;
    w.spec.engine = vbr::fleet::FleetEngine::kEvent;
    w.spec.stream_aggregation = true;
    return w;
  }
  if (name == "durable-ab") {
    // The write side: a CAVA vs BOLA-E A/B on the flat edge cache with
    // JSONL telemetry, a metrics registry and periodic checkpoints.
    w.spec.arrivals.kind = vbr::fleet::ArrivalKind::kPoisson;
    w.spec.arrivals.rate_per_s = 2.0;
    w.spec.arrivals.horizon_s = 3600.0;
    w.spec.arrivals.max_sessions = 1000;
    for (const SchemeTag t : {SchemeTag::kCava, SchemeTag::kBola}) {
      w.spec.experiment.arms.push_back(client_class(t));
      w.class_tags.push_back(t);
    }
    w.spec.use_cache = true;
    w.spec.checkpoint_every = 200;
    w.durable = true;
    return w;
  }
  throw std::invalid_argument("perfbench: unknown workload '" + name + "'");
}

Inputs build_inputs(const Workload& w) {
  Inputs in;
  std::int64_t t0 = now_ns();
  vbr::net::LteTraceParams lte;
  lte.duration_s = kTraceDurationS;
  vbr::net::FccTraceParams fcc;
  fcc.duration_s = kTraceDurationS;
  in.traces = vbr::net::make_lte_trace_set(kLteTraces, w.trace_seed, lte);
  std::vector<vbr::net::Trace> fcc_set = vbr::net::make_fcc_trace_set(
      kFccTraces, mix(w.trace_seed, 1), fcc);
  in.traces.insert(in.traces.end(), std::make_move_iterator(fcc_set.begin()),
                   std::make_move_iterator(fcc_set.end()));
  std::int64_t t1 = now_ns();
  in.trace_gen_s = static_cast<double>(t1 - t0) * 1e-9;

  t0 = now_ns();
  in.catalog = std::make_unique<vbr::fleet::Catalog>(w.spec.catalog);
  t1 = now_ns();
  in.catalog_build_s = static_cast<double>(t1 - t0) * 1e-9;

  t0 = now_ns();
  in.arrivals = vbr::fleet::generate_arrivals(w.spec.arrivals);
  t1 = now_ns();
  in.arrivals_s = static_cast<double>(t1 - t0) * 1e-9;
  return in;
}

vbr::fleet::FleetSpec leg_spec(const Workload& w, const Inputs& in,
                               unsigned threads, bool traced) {
  vbr::fleet::FleetSpec spec = w.spec;
  spec.traces = in.traces;
  spec.threads = threads;
  if (traced) {
    std::vector<FleetClientClass>& classes =
        spec.experiment.enabled() ? spec.experiment.arms : spec.classes;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      classes[c].make_scheme =
          timed_scheme_factory(classes[c].make_scheme, w.class_tags[c]);
      classes[c].make_estimator = timed_estimator_factory(
          classes[c].make_estimator ? classes[c].make_estimator
                                    : vbr::sim::default_estimator_factory());
    }
  }
  return spec;
}

}  // namespace perfbench
