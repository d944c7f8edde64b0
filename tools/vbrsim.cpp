// vbrsim — command-line experiment runner.
//
// Runs one or more ABR schemes over a video and a trace set, printing the
// paper's five QoE metrics and optionally writing per-trace CSV rows.
//
//   vbrsim --scheme CAVA --scheme RobustMPC --traces lte --count 50
//   vbrsim --title Sports --genre sports --codec h265 --chunk 5 --cap 4
//   vbrsim --trace-dir ./my_traces --csv results.csv
//   vbrsim --list-schemes
//
// Flags (defaults in parentheses):
//   --scheme NAME      scheme to run; repeatable via comma list (CAVA)
//   --title NAME       video title label (ED)
//   --genre G          animation|scifi|sports|animal|nature|action (animation)
//   --codec C          h264|h265 (h264)
//   --chunk SECONDS    chunk duration (2)
//   --cap FACTOR       VBR cap factor (2)
//   --duration SECONDS video length (600)
//   --seed N           content seed (42)
//   --traces KIND      lte|fcc (lte)
//   --trace-dir DIR    replay .trace files from DIR instead of synthetic
//   --count N          number of synthetic traces (50)
//   --metric M         phone|tv (phone for lte, tv for fcc)
//   --rtt SECONDS      per-request RTT (0)
//   --abandon          enable segment abandonment
//   --csv FILE         append per-trace CSV rows to FILE
//   --fault-csv FILE   append per-trace fault/retry CSV rows to FILE
//   --list-schemes     print available scheme names and exit
//
// Fault-injection / retry flags (see tools/cli_args.h; all rates default 0
// = faults off, in which case the replay is bit-identical to the
// fault-free simulator):
//   --fail-rate P      total per-request failure probability, split evenly
//                      across connect-fail / mid-drop / timeout
//   --fault-connect P  --fault-drop P  --fault-timeout P   per-kind rates
//   --fault-seed N     deterministic fault stream seed (1)
//   --retry-max N      attempts per chunk before skipping (3)
//   --retry-backoff S  base exponential backoff (0.5)
//   --retry-timeout S  player-side no-progress timeout (fault model's T)
//   --resume           byte-range resume of partial downloads
//   --no-downgrade     keep retrying the chosen track, never downgrade
//
// Chunk-size knowledge flags (degraded-metadata operation; the network
// always moves true bytes, only the schemes' size beliefs degrade):
//   --size-knowledge M oracle|declared|noisy|partial (oracle = exact table)
//   --size-err E       noisy: relative error bound in [0, 1) (0.25)
//   --size-miss-rate P partial: per-entry hole probability (0.25)
//   --size-prefix N    partial: size table truncated after N chunks (0=off)
//   --size-correct     learn per-track EWMA corrections from actual sizes
//   --size-alpha A     EWMA weight of the newest observation (0.3)
//   --size-seed N      deterministic knowledge-fault seed (1)
//
// Telemetry flags (observability layer; see DESIGN.md section 8):
//   --trace-jsonl FILE one JSON line per chunk decision, merged across
//                      traces in trace-index order (same-seed runs produce
//                      byte-identical files at any thread count)
//   --trace-durable    crash-safe JSONL: per-line FNV-1a checksums + fsync
//                      on flush (recover torn files with --scan-jsonl)
//   --metrics-json FILE merged counters/histograms, one JSON object keyed
//                      by scheme name
//   --scan-jsonl FILE  standalone recovery mode: scan a checksummed JSONL
//                      file, report torn tails / corrupt interior lines,
//                      truncate a torn tail in place, and exit
//
// Fleet mode (fleet-scale workloads; see DESIGN.md section 9). --fleet
// replaces the per-trace sweep with the fleet driver: sessions arrive over
// time, pick a title by Zipf popularity and a scheme from the --scheme list
// (uniform class mix), and stream through per-title edge-cache shards.
// Flags: --fleet-sessions, --fleet-titles, --fleet-alpha,
// --fleet-title-duration, --fleet-rate, --fleet-horizon,
// --fleet-arrival poisson|flash (+ --fleet-burst-start/-duration/-mult),
// --fleet-cache-mb (0 = origin-only control arm), --fleet-threads,
// --fleet-seed, --fleet-full-watch, --fleet-report FILE. See
// tools/cli_args.h for defaults.
//
// CDN hierarchy (fleet mode; DESIGN.md section 12): --fleet-cdn enables
// the edge -> regional -> origin tiers with request coalescing
// (--fleet-cdn-no-coalesce for the control arm), regional fault domains
// (--fleet-cdn-nodes, --fleet-outages, --fleet-outage-duration), origin
// brownouts (--fleet-brownout-start/-duration/-rate/-capacity), and load
// shedding (--fleet-shed-capacity). All faults are seeded
// (--fleet-cdn-seed): output stays byte-identical at any thread count and
// across kill/resume, even mid-brownout.
//
// In-situ A/B experiments (fleet mode; DESIGN.md section 13): --ab-arms
// "CAVA,RobustMPC,BOLA-E (peak)" assigns arriving sessions to one arm per
// named scheme by seeded stratified randomization (balanced within trace
// class x popularity decile) while every arm shares the same delivery path.
// The run is scored under the pluggable QoE-model suite and analyzed with
// Welch / Mann-Whitney tests, seeded bootstrap CIs, and one
// Benjamini-Hochberg family across every (metric, pair, test) hypothesis.
// Flags: --ab-seed, --ab-strata, --ab-alpha, --ab-boot, --ab-boot-seed,
// --ab-ci percentile|bca, --ab-report FILE (ab_report.json). The report is
// byte-identical at any --fleet-threads value.
//
// Learned ABR (src/learn; DESIGN.md section 14): --scheme learned (or a
// "learned" entry in --ab-arms) serves a policy trained offline by
// abrtrain. --policy FILE names the serialized VBRPOLICY file; it is loaded
// and validated once (field-named PolicyError on damage) and shared,
// immutable, across all worker threads, so fleet output stays
// byte-identical at any --fleet-threads value.
//
// Crash safety (fleet mode; DESIGN.md section 11): --checkpoint FILE (an
// append-only journal, one segment per checkpoint), --checkpoint-every N, --resume (resume from FILE when it exists),
// --fleet-kill-after N (cooperative chaos kill: final checkpoint + exit
// code 3), --fleet-throttle-us N (stretch wall time so an external SIGKILL
// can land), --fleet-watchdog-decisions / --fleet-watchdog-sim-s
// (per-session runaway budgets, counted in the report). A killed or
// SIGKILLed run resumed with the same flags produces a report and
// telemetry byte-identical to an uninterrupted run.
//
// Execution engine (DESIGN.md section 15): --fleet-engine event|stepped
// picks how run_fleet executes sessions. "stepped" (default) runs each
// session to completion on a worker; "event" schedules every session's
// next chunk decision on one shared-virtual-time timeline — 100k+
// sessions in flight, byte-identical output, checkpoint journal segments
// whose --checkpoint-every counts EVENTS instead of sessions. --fleet-stream-agg
// (event engine only, no checkpointing) folds each completed session into
// the aggregates immediately and drops the per-session record, keeping
// memory constant in fleet size.
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <system_error>

#include "cli_args.h"
#include "common.h"
#include "exp/ab.h"
#include "fleet/checkpoint.h"
#include "metrics/report.h"
#include "net/trace_io.h"
#include "obs/jsonl_io.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace {

using namespace vbr;

const std::vector<std::string> kSchemes = {
    "CAVA",          "CAVA-p1",          "CAVA-p12",
    "MPC",           "RobustMPC",        "PANDA/CQ max-sum",
    "PANDA/CQ max-min", "BBA-1",         "RBA",
    "BOLA-E (peak)", "BOLA-E (avg)",     "BOLA-E (seg)",
    "learned",
};

/// Scheme factory resolver that also understands "learned" (backed by the
/// --policy file, loaded once and shared across every factory invocation).
class SchemeResolver {
 public:
  explicit SchemeResolver(const tools::CliArgs& args) : args_(args) {}

  sim::SchemeFactory operator()(const std::string& name,
                                video::QualityMetric metric) {
    if (name != "learned") {
      return bench::scheme_factory(name, metric);
    }
    if (!learned_) {
      learned_ = tools::learned_scheme_factory_from_args(args_);
    }
    return learned_;
  }

 private:
  const tools::CliArgs& args_;
  sim::SchemeFactory learned_;
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream iss(s);
  std::string part;
  while (std::getline(iss, part, ',')) {
    if (!part.empty()) {
      out.push_back(part);
    }
  }
  return out;
}

video::Genre parse_genre(const std::string& g) {
  if (g == "animation") return video::Genre::kAnimation;
  if (g == "scifi") return video::Genre::kSciFi;
  if (g == "sports") return video::Genre::kSports;
  if (g == "animal") return video::Genre::kAnimal;
  if (g == "nature") return video::Genre::kNature;
  if (g == "action") return video::Genre::kAction;
  throw std::invalid_argument("unknown genre: " + g);
}

/// --fleet mode: sessions arrive over time, draw a title by popularity and
/// a scheme class from the --scheme list, and stream through per-title
/// edge-cache shards. Prints the per-class QoE table + cache report and
/// optionally writes the fleet report JSON.
int run_fleet_mode(const tools::CliArgs& args,
                   const std::vector<net::Trace>& traces,
                   video::QualityMetric metric, const net::FaultConfig& fault,
                   const sim::RetryPolicy& retry,
                   const video::SizeKnowledgeConfig& size_knowledge,
                   bool degraded_sizes) {
  fleet::FleetSpec spec = tools::fleet_spec_from_args(args);
  spec.metric = metric;
  spec.session.request_rtt_s = args.get_double("rtt", 0.0);
  const bool ab_mode = args.has("ab-arms");
  SchemeResolver resolve(args);
  auto make_class = [&](const std::string& name) {
    fleet::FleetClientClass cls;
    cls.label = name;
    cls.make_scheme = resolve(name, metric);
    cls.fault = fault;
    cls.retry = retry;
    if (degraded_sizes) {
      cls.make_size_provider = [size_knowledge] {
        return video::make_size_provider(size_knowledge);
      };
    }
    return cls;
  };
  if (ab_mode) {
    // A/B mode: the arms take over the class slots; assignment is seeded
    // stratified randomization inside run_fleet (FleetExperimentConfig).
    for (const std::string& name : split_csv(args.get("ab-arms", ""))) {
      spec.experiment.arms.push_back(make_class(name));
    }
    spec.experiment.seed = args.get_size("ab-seed", spec.experiment.seed);
    spec.experiment.trace_strata =
        args.get_size("ab-strata", spec.experiment.trace_strata);
  } else {
    for (const std::string& name : split_csv(args.get("scheme", "CAVA"))) {
      spec.classes.push_back(make_class(name));
    }
  }
  spec.traces = traces;

  std::unique_ptr<obs::TraceSink> trace_sink;
  if (args.has("trace-jsonl")) {
    const std::string path = args.get("trace-jsonl", "trace.jsonl");
    if (args.has("trace-durable")) {
      trace_sink = std::make_unique<obs::DurableJsonlTraceSink>(path);
    } else {
      trace_sink = std::make_unique<obs::JsonlTraceSink>(path);
    }
    spec.trace = trace_sink.get();
  }
  obs::MetricsRegistry registry;
  if (args.has("metrics-json")) {
    spec.metrics = &registry;
  }

  fleet::FleetResult r;
  try {
    r = fleet::run_fleet(spec);
  } catch (const fleet::FleetKilled& k) {
    // The chaos kill is a cooperative crash: the final checkpoint is on
    // disk (when --checkpoint is set) and a --resume rerun finishes the
    // fleet to byte-identical output. Distinct exit code so soak loops can
    // tell "killed as scheduled" from real failures.
    std::fprintf(stderr, "vbrsim: %s\n", k.what());
    return 3;
  }

  std::printf("fleet: %zu sessions over %zu titles (zipf %.2f) | %zu traces "
              "| %s arrivals\n",
              r.sessions.size(), spec.catalog.num_titles,
              spec.catalog.zipf_alpha, traces.size(),
              spec.arrivals.kind == fleet::ArrivalKind::kFlashCrowd
                  ? "flash-crowd"
                  : "poisson");
  std::printf("%-18s %8s %8s %8s %8s %9s %9s %8s\n", "class", "sessions",
              "qual", "Q4qual", "low%", "rebuf(s)", "start(s)", "MB");
  for (const fleet::FleetSchemeReport& c : r.per_class) {
    std::printf("%-18s %8zu %8.1f %8.1f %8.1f %9.2f %9.2f %8.1f\n",
                c.label.c_str(), c.sessions, c.mean_all_quality,
                c.mean_q4_quality, c.mean_low_quality_pct, c.mean_rebuffer_s,
                c.mean_startup_delay_s, c.mean_data_usage_mb);
  }
  if (r.cache_enabled) {
    std::printf("cache: hit ratio %.3f (byte %.3f) | edge %.1f MB, origin "
                "%.1f MB | evictions %zu\n",
                r.cache.hit_ratio(), r.cache.byte_hit_ratio(),
                r.edge_hit_bits / 8e6, r.origin_bits / 8e6,
                static_cast<std::size_t>(r.cache.evictions));
  } else {
    std::printf("cache: disabled | origin %.1f MB\n", r.origin_bits / 8e6);
  }
  if (r.cdn_enabled) {
    std::printf("cdn: edge %llu, regional %llu, origin %llu of %llu requests "
                "| coalesced %llu, shed %llu, failovers %llu, brownout %llu "
                "| upstream ratio %.3f\n",
                static_cast<unsigned long long>(r.cdn.edge_hits),
                static_cast<unsigned long long>(r.cdn.regional_hits),
                static_cast<unsigned long long>(r.cdn.origin_fetches),
                static_cast<unsigned long long>(r.cdn.client_requests),
                static_cast<unsigned long long>(r.cdn.coalesced),
                static_cast<unsigned long long>(r.cdn.shed),
                static_cast<unsigned long long>(r.cdn.failovers),
                static_cast<unsigned long long>(r.cdn.brownout_fetches),
                r.upstream_fetch_ratio);
  }
  std::printf("fairness: jain(quality) %.3f, jain(bits) %.3f\n",
              r.jain_quality, r.jain_bits);
  if (r.watchdog_aborted_sessions > 0) {
    std::printf("watchdog: %llu sessions aborted at budget\n",
                static_cast<unsigned long long>(r.watchdog_aborted_sessions));
  }

  if (ab_mode) {
    const exp::AbAnalysisConfig ab_cfg =
        tools::ab_analysis_config_from_args(args);
    const exp::AbReport ab = exp::analyze_ab(r, ab_cfg);
    std::printf("ab: %zu arms x %zu metrics = %zu hypotheses | BH alpha "
                "%.3g | %zu strata (seed %llu)\n",
                ab.arm_labels.size(), ab.metric_names.size(), ab.hypotheses,
                ab.alpha, ab.strata.size(),
                static_cast<unsigned long long>(spec.experiment.seed));
    bool any = false;
    for (const exp::AbMetricReport& mr : ab.metrics) {
      for (const exp::AbPairTest& pt : mr.pairs) {
        if (!pt.significant) {
          continue;
        }
        any = true;
        std::printf("ab: %-22s %s vs %s: diff %+.3f [%+.3f, %+.3f] | "
                    "welch p %.2e (adj %.2e), mwu p %.2e (adj %.2e)\n",
                    mr.metric.c_str(), ab.arm_labels[pt.arm_a].c_str(),
                    ab.arm_labels[pt.arm_b].c_str(), pt.diff.point,
                    pt.diff.lo, pt.diff.hi, pt.welch.p, pt.welch_p_adj,
                    pt.mwu.p, pt.mwu_p_adj);
      }
    }
    if (!any) {
      std::printf("ab: no significant pairs after BH correction\n");
    }
    if (args.has("ab-report")) {
      const std::string path = args.get("ab-report", "ab_report.json");
      errno = 0;
      std::ofstream ab_out(path, std::ios::out | std::ios::trunc);
      if (!ab_out) {
        throw std::system_error(errno != 0 ? errno : EIO,
                                std::generic_category(),
                                "cannot open '" + path + "'");
      }
      ab.write_json(ab_out);
    }
  }

  if (args.has("fleet-report")) {
    const std::string path = args.get("fleet-report", "fleet-report.json");
    errno = 0;
    std::ofstream report(path, std::ios::out | std::ios::trunc);
    if (!report) {
      throw std::system_error(errno != 0 ? errno : EIO,
                              std::generic_category(),
                              "cannot open '" + path + "'");
    }
    r.write_json(report);
  }
  if (spec.metrics != nullptr) {
    const std::string path = args.get("metrics-json", "metrics.json");
    errno = 0;
    std::ofstream metrics_out(path, std::ios::out | std::ios::trunc);
    if (!metrics_out) {
      throw std::system_error(errno != 0 ? errno : EIO,
                              std::generic_category(),
                              "cannot open '" + path + "'");
    }
    registry.write_json(metrics_out);
    metrics_out << "\n";
  }
  if (trace_sink) {
    trace_sink->flush();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::set<std::string> known = {
        "scheme", "title",  "genre",  "codec",  "chunk",        "cap",
        "duration", "seed", "traces", "trace-dir", "count",     "metric",
        "rtt",    "abandon", "csv",   "fault-csv", "list-schemes", "help",
        "scan-jsonl"};
    known.insert(tools::fault_flag_names().begin(),
                 tools::fault_flag_names().end());
    known.insert(tools::size_knowledge_flag_names().begin(),
                 tools::size_knowledge_flag_names().end());
    known.insert(tools::telemetry_flag_names().begin(),
                 tools::telemetry_flag_names().end());
    known.insert(tools::fleet_flag_names().begin(),
                 tools::fleet_flag_names().end());
    known.insert(tools::ab_flag_names().begin(),
                 tools::ab_flag_names().end());
    known.insert(tools::learned_flag_names().begin(),
                 tools::learned_flag_names().end());
    const tools::CliArgs args(argc, argv, known);

    if (args.has("help")) {
      std::printf("see the header of tools/vbrsim.cpp for flag docs\n");
      return 0;
    }
    if (args.has("list-schemes")) {
      for (const std::string& s : kSchemes) {
        std::printf("%s\n", s.c_str());
      }
      return 0;
    }
    if (args.has("scan-jsonl")) {
      // Standalone recovery: truncate a torn tail (the crash signature),
      // report interior corruption loudly, exit 0 only on a clean file.
      const std::string path = args.get("scan-jsonl", "");
      if (path.empty()) {
        std::fprintf(stderr, "vbrsim: --scan-jsonl needs a file path\n");
        return 1;
      }
      const obs::JsonlScanReport rep = obs::recover_checksummed_jsonl(path);
      std::printf("scan %s: %llu lines, %llu valid\n", path.c_str(),
                  static_cast<unsigned long long>(rep.total_lines),
                  static_cast<unsigned long long>(rep.valid_lines));
      if (rep.torn_tail) {
        std::printf("torn tail truncated; file now %llu bytes\n",
                    static_cast<unsigned long long>(rep.keep_bytes));
      }
      for (const std::uint64_t ln : rep.corrupt_interior_lines) {
        std::fprintf(stderr,
                     "vbrsim: CORRUPT interior line %llu (checksum "
                     "mismatch) — kept in place, inspect by hand\n",
                     static_cast<unsigned long long>(ln));
      }
      return rep.corrupt_interior_lines.empty() ? 0 : 2;
    }

    // Video.
    const video::Video v = video::make_video(
        args.get("title", "ED"), parse_genre(args.get("genre", "animation")),
        args.get("codec", "h264") == "h265" ? video::Codec::kH265
                                            : video::Codec::kH264,
        args.get_double("chunk", 2.0), args.get_double("cap", 2.0),
        args.get_size("seed", 42), args.get_double("duration", 600.0));

    // Traces.
    const std::string kind = args.get("traces", "lte");
    std::vector<net::Trace> traces;
    if (args.has("trace-dir")) {
      std::vector<std::string> paths;
      for (const auto& entry : std::filesystem::directory_iterator(
               args.get("trace-dir", "."))) {
        if (entry.path().extension() == ".trace") {
          paths.push_back(entry.path().string());
        }
      }
      if (paths.empty()) {
        std::fprintf(stderr, "no .trace files in %s\n",
                     args.get("trace-dir", ".").c_str());
        return 1;
      }
      traces = net::read_trace_files(paths);
    } else if (kind == "lte") {
      traces = bench::lte_traces(args.get_size("count", 50));
    } else if (kind == "fcc") {
      traces = bench::fcc_traces(args.get_size("count", 50));
    } else {
      std::fprintf(stderr, "unknown trace kind %s\n", kind.c_str());
      return 1;
    }

    const std::string metric_name =
        args.get("metric", kind == "fcc" ? "tv" : "phone");
    const video::QualityMetric metric =
        metric_name == "tv" ? video::QualityMetric::kVmafTv
                            : video::QualityMetric::kVmafPhone;

    const net::FaultConfig fault = tools::fault_config_from_args(args);
    const sim::RetryPolicy retry = tools::retry_policy_from_args(args);
    const bool faults_on = fault.any();
    const video::SizeKnowledgeConfig size_knowledge =
        tools::size_knowledge_config_from_args(args);
    const bool degraded_sizes =
        size_knowledge.mode != video::SizeKnowledge::kOracle ||
        size_knowledge.online_correction;

    if (args.has("ab-arms") && !args.has("fleet")) {
      throw std::invalid_argument(
          "--ab-arms needs --fleet (A/B experiments run on the fleet "
          "driver)");
    }
    if (args.has("fleet")) {
      return run_fleet_mode(args, traces, metric, fault, retry,
                            size_knowledge, degraded_sizes);
    }

    std::printf("video %s: %zu tracks, %zu chunks of %.1f s | %zu traces "
                "(%s) | metric VMAF-%s\n",
                v.name().c_str(), v.num_tracks(), v.num_chunks(),
                v.chunk_duration_s(), traces.size(), kind.c_str(),
                metric_name.c_str());
    if (degraded_sizes) {
      std::printf("size knowledge: %s (seed %llu)\n",
                  video::make_size_provider(size_knowledge)->name().c_str(),
                  static_cast<unsigned long long>(size_knowledge.seed));
    }
    if (faults_on) {
      std::printf("faults: connect %.3f, drop %.3f, timeout %.3f (seed "
                  "%llu) | retry max %zu, backoff %.2fs%s%s\n",
                  fault.connect_failure_prob, fault.mid_drop_prob,
                  fault.timeout_prob,
                  static_cast<unsigned long long>(fault.seed),
                  retry.max_attempts, retry.backoff_base_s,
                  retry.resume_partial ? ", resume" : "",
                  retry.downgrade_on_failure ? ", downgrade" : "");
      std::printf("%-18s %8s %8s %8s %9s %8s %8s %8s %8s\n", "scheme",
                  "Q4qual", "Q13qual", "low%", "rebuf(s)", "change", "MB",
                  "skip%", "att/chk");
    } else {
      std::printf("%-18s %8s %8s %8s %9s %8s %8s\n", "scheme", "Q4qual",
                  "Q13qual", "low%", "rebuf(s)", "change", "MB");
    }

    std::ofstream csv;
    bool csv_header = true;
    if (args.has("csv")) {
      csv.open(args.get("csv", "results.csv"), std::ios::app);
      if (!csv) {
        std::fprintf(stderr, "cannot open CSV output\n");
        return 1;
      }
      csv_header = csv.tellp() == 0;
    }
    // Telemetry sinks. JsonlTraceSink throws a std::system_error carrying
    // errno for unopenable paths, surfaced via the catch below.
    std::unique_ptr<obs::JsonlTraceSink> trace_sink;
    if (args.has("trace-jsonl")) {
      trace_sink = std::make_unique<obs::JsonlTraceSink>(
          args.get("trace-jsonl", "trace.jsonl"));
    }
    std::ofstream metrics_out;
    if (args.has("metrics-json")) {
      const std::string path = args.get("metrics-json", "metrics.json");
      errno = 0;
      metrics_out.open(path, std::ios::out | std::ios::trunc);
      if (!metrics_out) {
        throw std::system_error(errno != 0 ? errno : EIO,
                                std::generic_category(),
                                "cannot open '" + path + "'");
      }
    }

    std::ofstream fault_csv;
    bool fault_header = true;
    if (args.has("fault-csv")) {
      fault_csv.open(args.get("fault-csv", "faults.csv"), std::ios::app);
      if (!fault_csv) {
        std::fprintf(stderr, "cannot open fault CSV output\n");
        return 1;
      }
      fault_header = fault_csv.tellp() == 0;
    }

    bool first_scheme = true;
    if (metrics_out.is_open()) {
      metrics_out << "{";
    }
    SchemeResolver resolve(args);
    for (const std::string& name :
         split_csv(args.get("scheme", "CAVA"))) {
      obs::MetricsRegistry registry;
      sim::ExperimentSpec spec;
      spec.video = &v;
      spec.traces = traces;
      spec.make_scheme = resolve(name, metric);
      spec.metric = metric;
      spec.session.request_rtt_s = args.get_double("rtt", 0.0);
      spec.session.enable_abandonment = args.has("abandon");
      spec.session.fault = fault;
      spec.session.retry = retry;
      if (degraded_sizes) {
        spec.make_size_provider = [&size_knowledge] {
          return video::make_size_provider(size_knowledge);
        };
      }
      if (trace_sink) {
        spec.trace = trace_sink.get();
      }
      if (metrics_out.is_open()) {
        spec.metrics = &registry;
      }
      const sim::ExperimentResult r = sim::run_experiment(spec);
      if (metrics_out.is_open()) {
        if (!first_scheme) {
          metrics_out << ",";
        }
        metrics_out << "\"" << name << "\":";
        registry.write_json(metrics_out);
        first_scheme = false;
      }
      if (faults_on) {
        std::printf("%-18s %8.1f %8.1f %8.1f %9.2f %8.2f %8.1f %8.2f "
                    "%8.2f\n",
                    name.c_str(), r.mean_q4_quality, r.mean_q13_quality,
                    r.mean_low_quality_pct, r.mean_rebuffer_s,
                    r.mean_quality_change, r.mean_data_usage_mb,
                    r.mean_skipped_pct, r.mean_attempts_per_chunk);
      } else {
        std::printf("%-18s %8.1f %8.1f %8.1f %9.2f %8.2f %8.1f\n",
                    name.c_str(), r.mean_q4_quality, r.mean_q13_quality,
                    r.mean_low_quality_pct, r.mean_rebuffer_s,
                    r.mean_quality_change, r.mean_data_usage_mb);
      }
      if (csv.is_open()) {
        metrics::write_qoe_csv(csv, name, r.per_trace, csv_header);
        csv_header = false;
      }
      if (fault_csv.is_open()) {
        metrics::write_fault_csv(fault_csv, name, r.per_trace_faults,
                                 fault_header);
        fault_header = false;
      }
    }
    if (metrics_out.is_open()) {
      metrics_out << "}\n";
    }
    if (trace_sink) {
      trace_sink->flush();
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbrsim: %s\n", e.what());
    return 1;
  }
}
