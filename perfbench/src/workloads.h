// The ledger's reference workloads. Each is a pure function of its name and
// the workload seed; the library only ever sees the generated FleetSpec,
// traces, and (through the spec) catalog and arrival configs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/catalog.h"
#include "fleet/fleet.h"
#include "net/trace.h"
#include "tracer.h"

namespace perfbench {

struct Workload {
  /// Complete spec except the per-leg fields: traces, threads, trace sink,
  /// metrics registry and checkpoint path.
  vbr::fleet::FleetSpec spec;
  /// Scheme family of each class (or arm), in spec order.
  std::vector<SchemeTag> class_tags;
  std::uint64_t trace_seed = 0;
  /// JSONL telemetry + metrics registry + periodic checkpoints +
  /// exp::analyze_ab on the result.
  bool durable = false;
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Everything built before the first run: the trace set, a standalone
/// catalog (the same titles run_fleet builds from spec.catalog; the replay
/// reads them) and the arrival vector.
struct Inputs {
  std::vector<vbr::net::Trace> traces;
  std::unique_ptr<vbr::fleet::Catalog> catalog;
  std::vector<double> arrivals;
  double trace_gen_s = 0.0;
  double catalog_build_s = 0.0;
  double arrivals_s = 0.0;

  [[nodiscard]] double setup_s() const {
    return trace_gen_s + catalog_build_s + arrivals_s;
  }
};

[[nodiscard]] Inputs build_inputs(const Workload& w);

/// A copy of `w.spec` ready to run: traces bound, `threads` set, and with
/// `traced` every class's scheme and estimator factory wrapped in the
/// timing decorators.
[[nodiscard]] vbr::fleet::FleetSpec leg_spec(const Workload& w,
                                             const Inputs& in,
                                             unsigned threads, bool traced);

}  // namespace perfbench
