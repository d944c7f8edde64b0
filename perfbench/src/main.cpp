// perfbench_ledger: the fleet performance ledger (see ../README.md).
//
//   perfbench_ledger --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR] [--provenance JSON]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that attributes time to layers. Both run every
// correctness check. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when
// every operation succeeded and every check held.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "decorators.h"
#include "exp/ab.h"
#include "fleet/checkpoint.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "replay.h"
#include "speed_probe.h"
#include "tracer.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

using vbr::fleet::FleetEngine;
using vbr::fleet::FleetResult;

/// Upper bound on spans kept for the span file; sessions are sampled by id
/// stride to stay under it (layer totals are exact regardless).
constexpr double kMaxKeptSpans = 300000.0;
/// Approximate spans per event in a traced fleet leg (estimate, decide,
/// two feedback calls, and a sink event when telemetry is on).
constexpr double kSpansPerEvent = 5.0;
/// Setup repetitions before the first leg, and after every pass of the
/// measured loop; setup_s is the median of all of them. Setup takes a few
/// milliseconds, so builds made in one burst all read the machine's speed
/// of that moment, which drifts over a run; spreading them over the run
/// samples it the way the legs do.
constexpr int kSetupReps = 40;
constexpr int kSetupRepsPerPass = 8;
/// T, the thread count of the parallel legs, is min(nproc, kMaxThreads).
/// On a shared 4-vCPU host, legs at 4 threads wait on whichever vCPU a
/// neighbour holds, and their median moved twice as much from run to run as
/// at 2 threads (see ../README.md).
constexpr unsigned kMaxThreads = 2;
/// Minimum measured legs per thread count.
constexpr int kMinLegs = 3;
/// Speed probes after every measured leg. The timing metrics of --trace 0
/// are scaled by the median probe time of the run (speed_probe.h).
constexpr int kProbesPerLeg = 2;
/// Fresh-process 1-thread legs whose memory high-water mark gives
/// peak_rss_mb. One thread, because at T threads the memory held at a
/// checkpoint barrier depends on the schedule.
constexpr int kRssProbes = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  unsigned threads = 0;
  std::string out_dir = ".bench_build/perfbench-run";
  std::string provenance = "{}";
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument(flag + ": missing value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
      have_seconds = o.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace: expected 0 or 1");
      }
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out") {
      o.out_dir = value;
    } else if (flag == "--provenance") {
      o.provenance = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "required: --workload NAME --seed N --seconds S (> 0) --trace 0|1");
  }
  o.threads = std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  return o;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Shortest round-trip form, so every measured digit reaches the output.
std::string num(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Resets the process's peak-RSS counter so the next reading covers one
/// leg (Linux: "5" to /proc/self/clear_refs). Free heap is returned to the
/// system first, so a leg does not inherit the previous leg's high-water
/// mark. False when the counter cannot be reset.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  return f.good();
}

/// VmHWM in MB, or the process-lifetime maximum when /proc is unavailable.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ns_per(std::int64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

struct LegConfig {
  unsigned threads = 1;
  bool traced = false;
  bool keep_spans = false;
  std::uint64_t span_stride = 1;
  bool keep_records = false;
  std::optional<FleetEngine> engine;
  std::optional<bool> stream;
  std::string tag = "leg";  ///< File stem of a durable leg's outputs.
  std::uint64_t kill_after = 0;
  bool resume = false;
};

LegConfig leg_config(unsigned threads, std::string tag) {
  LegConfig c;
  c.threads = threads;
  c.tag = std::move(tag);
  return c;
}

/// Output digests every leg of a workload must reproduce.
struct Digests {
  std::uint64_t report = 0;
  std::uint64_t jsonl = 0;
  std::uint64_t ab = 0;
};

struct Leg {
  double fleet_s = 0.0;    ///< run_fleet wall time.
  double analyze_s = 0.0;  ///< exp::analyze_ab wall time (durable only).
  std::uint64_t events = 0;
  std::uint64_t sessions = 0;
  /// VmHWM when the timed work ended, before the digests are computed.
  double peak_rss_mb = 0.0;
  Digests digests;
  std::uint64_t jsonl_bytes = 0;
  std::uint64_t sink_events = 0;
  std::string checkpoint_path;
  FleetResult result;  ///< Records dropped unless keep_records.
  Totals totals;       ///< Traced legs: spans inside run_fleet.
  std::int64_t fleet_t0_ns = 0;  ///< When run_fleet was called.
  std::int64_t fleet_ns = 0;

  /// The timed work of one operation: run_fleet, plus analyze_ab on the
  /// A/B workload.
  [[nodiscard]] double wall_s() const { return fleet_s + analyze_s; }
  [[nodiscard]] double events_per_s() const {
    return static_cast<double>(events) / wall_s();
  }
  [[nodiscard]] double sessions_per_s() const {
    return static_cast<double>(sessions) / wall_s();
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Ledger {
 public:
  explicit Ledger(Options opt)
      : opt_(std::move(opt)),
        w_(make_workload(opt_.workload, opt_.seed)),
        dir_(fs::path(opt_.out_dir) /
             (opt_.workload + "-" + std::to_string(::getpid()))) {
    fs::create_directories(dir_);
  }
  ~Ledger() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  int run() {
    time_setup(kSetupReps, true);
    std::vector<Metric> metrics =
        opt_.trace ? traced_run() : measured_run();
    print(metrics);
    return correct() ? 0 : 1;
  }

 private:
  // --- operations and checks -------------------------------------------
  [[nodiscard]] bool correct() const { return failed_ == 0; }

  /// Runs one operation; an exception or a failed check inside it makes it
  /// a failed operation.
  void op(const std::string& what, const std::function<void()>& fn) {
    ++attempted_;
    const std::size_t before = failures_.size();
    try {
      fn();
    } catch (const std::exception& e) {
      failures_.push_back(what + ": " + e.what());
    }
    if (failures_.size() > before) {
      ++failed_;
    }
  }

  void check(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
    }
  }

  /// Every leg of one workload must produce the same report bytes (and
  /// telemetry and A/B report bytes on the durable workload), whatever its
  /// thread count, engine, or tracing.
  void check_digests(const Digests& d, const std::string& what) {
    if (!reference_) {
      reference_ = d;
      return;
    }
    check(d.report == reference_->report,
          what + ": report JSON differs from the first leg");
    if (w_.durable) {
      check(d.jsonl == reference_->jsonl,
            what + ": JSONL telemetry differs from the first leg");
      check(d.ab == reference_->ab,
            what + ": A/B report differs from the first leg");
    }
  }

  // --- setup -------------------------------------------------------------
  /// Times `reps` builds of the inputs; with `keep` the last one becomes
  /// the inputs of the legs.
  void time_setup(int reps, bool keep) {
    for (int r = 0; r < reps; ++r) {
      Inputs in = build_inputs(w_);
      setup_s_.push_back(in.setup_s());
      trace_gen_s_.push_back(in.trace_gen_s);
      catalog_s_.push_back(in.catalog_build_s);
      if (keep) {
        in_ = std::move(in);
      }
    }
  }

  /// Times kProbesPerLeg runs of the speed probe, whose result must not
  /// change from one call to the next.
  void probe_speed() {
    op("speed-probe", [&] {
      for (int k = 0; k < kProbesPerLeg; ++k) {
        const ProbeResult p = run_speed_probe();
        probe_s_.push_back(p.seconds);
        if (!probe_checksum_) {
          probe_checksum_ = p.checksum;
        }
        check(p.checksum == *probe_checksum_,
              "speed probe: result differs from its first run");
      }
    });
  }

  // --- one fleet run -------------------------------------------------------
  Leg run_leg(const LegConfig& cfg) {
    Leg leg;
    vbr::fleet::FleetSpec spec = leg_spec(w_, in_, cfg.threads, cfg.traced);
    if (cfg.engine) {
      spec.engine = *cfg.engine;
    }
    if (cfg.stream) {
      spec.stream_aggregation = *cfg.stream;
    }
    const bool streaming = spec.stream_aggregation;
    const bool event_engine = spec.engine == FleetEngine::kEvent;

    std::unique_ptr<vbr::obs::JsonlTraceSink> jsonl;
    std::unique_ptr<TimedSink> timed_sink;
    vbr::obs::MetricsRegistry registry;
    const std::string jsonl_path = (dir_ / (cfg.tag + ".jsonl")).string();
    if (w_.durable) {
      leg.checkpoint_path = (dir_ / (cfg.tag + ".ckpt")).string();
      if (!cfg.resume) {
        fs::remove(leg.checkpoint_path);
      }
      jsonl = std::make_unique<vbr::obs::JsonlTraceSink>(jsonl_path);
      spec.trace = jsonl.get();
      if (cfg.traced) {
        timed_sink = std::make_unique<TimedSink>(*jsonl);
        spec.trace = timed_sink.get();
      }
      spec.metrics = &registry;
      spec.checkpoint_path = leg.checkpoint_path;
      spec.resume = cfg.resume;
      spec.kill.after_sessions = cfg.kill_after;
    }

    if (cfg.traced) {
      reset();
      root_id_ = next_id();
      begin_leg(root_id_, cfg.keep_spans, cfg.span_stride);
    }
    const std::int64_t t0 = now_ns();
    leg.result = vbr::fleet::run_fleet(spec);
    const std::int64_t t1 = now_ns();
    leg.fleet_t0_ns = t0;
    leg.fleet_ns = t1 - t0;
    leg.fleet_s = static_cast<double>(leg.fleet_ns) * 1e-9;
    if (cfg.traced) {
      leg.totals = collect();
      if (cfg.keep_spans) {
        root_span_ = {root_id_, t0, t1};
      }
    }
    if (timed_sink) {
      leg.sink_events = timed_sink->events();
    }
    jsonl.reset();  // flushes and closes the file

    if (w_.durable) {
      std::optional<ScopedSpan> span;
      if (cfg.traced) {
        span.emplace(SpanKind::kAnalyzeAb);
      }
      const std::int64_t a0 = now_ns();
      const vbr::exp::AbReport ab = vbr::exp::analyze_ab(leg.result);
      leg.analyze_s = static_cast<double>(now_ns() - a0) * 1e-9;
      std::ostringstream os;
      ab.write_json(os);
      leg.digests.ab = fnv1a(os.str());
    }
    leg.peak_rss_mb = peak_rss_mb();
    if (w_.durable) {
      const std::string bytes = read_file(jsonl_path);
      leg.jsonl_bytes = bytes.size();
      leg.digests.jsonl = fnv1a(bytes);
    }

    std::uint64_t chunk_sum = 0;
    for (const vbr::fleet::FleetSessionRecord& r : leg.result.sessions) {
      chunk_sum += r.chunks;
    }
    leg.events =
        streaming ? leg.result.engine_stats.events_processed : chunk_sum;
    leg.sessions = leg.result.total_sessions;
    check(leg.sessions == in_.arrivals.size(),
          cfg.tag + ": sessions run != arrivals generated");
    check(streaming || leg.result.sessions.size() == leg.sessions,
          cfg.tag + ": session records != sessions run");
    if (event_engine && !streaming) {
      check(chunk_sum == leg.result.engine_stats.events_processed,
            cfg.tag + ": sum of record chunks != engine events");
    }
    check(leg.events > 0, cfg.tag + ": no events");
    if (cfg.traced) {
      check(leg.totals.at(SpanKind::kDecide).calls == leg.events,
            cfg.tag + ": decide calls != events");
    }
    std::ostringstream os;
    leg.result.write_json(os);
    leg.digests.report = fnv1a(os.str());
    if (!cfg.keep_records) {
      leg.result.sessions.clear();
      leg.result.sessions.shrink_to_fit();
    }
    return leg;
  }

  /// Runs a leg as one operation and checks its digests.
  std::optional<Leg> leg_op(const LegConfig& cfg) {
    std::optional<Leg> out;
    op(cfg.tag, [&] {
      out = run_leg(cfg);
      check_digests(out->digests, cfg.tag);
      std::cout << "leg " << cfg.tag << " threads=" << cfg.threads
                << " wall_s=" << num(out->wall_s()) << " events=" << out->events
                << " events_per_s=" << num(out->events_per_s()) << "\n";
    });
    return out;
  }

  // --- --trace 0 -----------------------------------------------------------
  /// Runs one leg in a forked child and returns its memory high-water
  /// mark. Each child starts from the same state (the setup just built,
  /// before any leg ran), so the reading does not depend on how many legs
  /// this process ran before: glibc's dynamic mmap threshold makes the
  /// resident heap of a long-lived process creep up leg after leg. Must be
  /// called while this process has no other threads.
  double probe_peak_rss(unsigned threads) {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw std::runtime_error("rss probe: pipe failed");
    }
    std::cout.flush();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("rss probe: fork failed");
    }
    if (pid == 0) {
      ::close(fds[0]);
      double mb = -1.0;
      try {
        reset_peak_rss();
        const std::size_t before = failures_.size();
        mb = run_leg(leg_config(threads, "rss-probe")).peak_rss_mb;
        if (failures_.size() > before) {
          mb = -1.0;  // a check inside the leg failed
        }
      } catch (...) {
      }
      const ssize_t n = ::write(fds[1], &mb, sizeof mb);
      ::_exit(n == static_cast<ssize_t>(sizeof mb) ? 0 : 1);
    }
    ::close(fds[1]);
    double mb = -1.0;
    const ssize_t n = ::read(fds[0], &mb, sizeof mb);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (n != static_cast<ssize_t>(sizeof mb) || mb <= 0.0 ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("rss probe: the child leg failed");
    }
    return mb;
  }

  std::vector<Metric> measured_run() {
    const unsigned t = opt_.threads;
    std::vector<double> rss;
    rss_reset_ok_ = reset_peak_rss();
    for (int p = 0; p < kRssProbes; ++p) {
      op("rss-probe", [&] { rss.push_back(probe_peak_rss(1)); });
    }
    // Warm-up: lets lazy set-up, page faults and allocator pools settle at
    // both thread counts, and pins the reference digests.
    leg_op(leg_config(t, "warmup-Tt"));
    leg_op(leg_config(1, "warmup-1t"));
    std::vector<double> eps_t, eps_1, sps_t;
    const std::int64_t start = now_ns();
    while (static_cast<double>(now_ns() - start) * 1e-9 < opt_.seconds ||
           static_cast<int>(eps_1.size()) < kMinLegs ||
           static_cast<int>(eps_t.size()) < kMinLegs) {
      if (auto one = leg_op(leg_config(1, "measure-1t"))) {
        eps_1.push_back(one->events_per_s());
      }
      probe_speed();
      // Two legs at T threads per 1-thread leg: the parallel legs are short
      // and the more sensitive to machine noise, so they get more samples.
      for (int k = 0; k < 2; ++k) {
        if (auto many = leg_op(leg_config(t, "measure-Tt"))) {
          eps_t.push_back(many->events_per_s());
          sps_t.push_back(many->sessions_per_s());
        }
        probe_speed();
      }
      time_setup(kSetupRepsPerPass, false);
      if (!correct()) {
        break;
      }
    }
    // Tracing must not change a single output byte.
    LegConfig check_cfg = leg_config(1, "traced-check");
    check_cfg.traced = true;
    leg_op(check_cfg);
    // Wall-clock figures, then the same in reference seconds: a wall second
    // holds probe_s / kReferenceProbeS reference seconds.
    const double probe_s = median(probe_s_);
    const double scale = probe_s / kReferenceProbeS;
    std::cout << "speed probe: median " << num(probe_s) << " s over "
              << probe_s_.size() << " probes, scale " << num(scale) << "\n"
              << "wall clock: events_per_s = " << num(median(eps_t))
              << " events/s, events_per_s_1t = " << num(median(eps_1))
              << " events/s, sessions_per_s = " << num(median(sps_t))
              << " sessions/s, setup_s = " << num(median(setup_s_)) << " s\n";
    return {
        {"events_per_s", median(eps_t) * scale, "events/s"},
        {"events_per_s_1t", median(eps_1) * scale, "events/s"},
        {"sessions_per_s", median(sps_t) * scale, "sessions/s"},
        {"setup_s", median(setup_s_) / scale, "s"},
        {"peak_rss_mb", median(rss), "MB"},
    };
  }

  // --- --trace 1 -----------------------------------------------------------
  std::vector<Metric> traced_run() {
    const unsigned t = opt_.threads;
    const bool streaming = w_.spec.stream_aggregation;
    std::vector<Metric> m;

    // Reference leg: untraced, 1 thread, records kept for the replay.
    LegConfig base_cfg = leg_config(1, "base");
    base_cfg.keep_records = !streaming;
    std::optional<Leg> base = leg_op(base_cfg);
    if (!base) {
      return m;
    }
    walls_1t_.push_back(base->fleet_s);
    const std::uint64_t stride = static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(base->events) * kSpansPerEvent / kMaxKeptSpans));
    span_stride_ = std::max<std::uint64_t>(1, stride);

    std::vector<Leg> traced;
    std::vector<double> eps_1{base->events_per_s()}, eps_t, analyze{
                                                             base->analyze_s};
    const std::int64_t start = now_ns();
    while (traced.size() < 2 ||
           static_cast<double>(now_ns() - start) * 1e-9 < 0.5 * opt_.seconds) {
      LegConfig traced_cfg = leg_config(1, "traced-1t");
      traced_cfg.traced = true;
      traced_cfg.keep_spans = traced.empty();
      traced_cfg.span_stride = span_stride_;
      if (auto tr = leg_op(traced_cfg)) {
        if (traced.empty()) {
          kept_ = kept_spans();
        }
        traced.push_back(std::move(*tr));
      }
      if (auto one = leg_op(leg_config(1, "untraced-1t"))) {
        eps_1.push_back(one->events_per_s());
        analyze.push_back(one->analyze_s);
        walls_1t_.push_back(one->fleet_s);
      }
      if (auto many = leg_op(leg_config(t, "untraced-Tt"))) {
        eps_t.push_back(many->events_per_s());
      }
      if (!correct()) {
        return m;
      }
    }

    // Layer attribution from the traced leg with the median wall time.
    std::sort(traced.begin(), traced.end(), [](const Leg& a, const Leg& b) {
      return a.fleet_ns < b.fleet_ns;
    });
    const Leg& tl = traced[traced.size() / 2];
    const Totals& tt = tl.totals;
    const KindTotals& dec = tt.at(SpanKind::kDecide);
    const KindTotals& est = tt.at(SpanKind::kEstimate);
    const KindTotals& est_up = tt.at(SpanKind::kEstimatorUpdate);
    const KindTotals& sink = tt.at(SpanKind::kSink);
    const double fleet_ns = static_cast<double>(tl.fleet_ns);
    const std::int64_t fleet_self_ns = tl.fleet_ns - tt.top_level_ns;
    // fleet.self_s is the remainder, so the self times sum to the run_fleet
    // wall time by construction. It is a true self time only if every
    // top-level span lies inside the run_fleet call and no two of them
    // overlap (per thread they nest; across threads they must not meet).
    op("self-time-partition", [&] {
      check(fleet_self_ns >= 0, "traced-1t: run_fleet self time is negative");
      std::vector<Interval> tops = tt.top_level_by_thread;
      std::sort(tops.begin(), tops.end(),
                [](const Interval& a, const Interval& b) {
                  return a.start_ns < b.start_ns;
                });
      const std::int64_t fleet_t1_ns = tl.fleet_t0_ns + tl.fleet_ns;
      for (std::size_t i = 0; i < tops.size(); ++i) {
        check(tops[i].start_ns >= tl.fleet_t0_ns &&
                  tops[i].end_ns <= fleet_t1_ns,
              "traced-1t: a top-level span lies outside the run_fleet call");
        check(i == 0 || tops[i - 1].end_ns <= tops[i].start_ns,
              "traced-1t: top-level spans of two threads overlap");
      }
    });
    std::vector<double> eps_traced;
    for (const Leg& l : traced) {
      eps_traced.push_back(l.events_per_s());
    }

    auto tag_ns = [&](SchemeTag tag) {
      const KindTotals& k = tt.decide_by_tag[static_cast<std::size_t>(tag)];
      return ns_per(k.total_ns, k.calls);
    };
    m.push_back({"abr.decide_calls", static_cast<double>(dec.calls), "count"});
    m.push_back({"abr.decide_ns", ns_per(dec.total_ns, dec.calls), "ns/event"});
    m.push_back({"abr.decide_share",
                 static_cast<double>(dec.total_ns) / fleet_ns, "share"});
    m.push_back({"abr.cava.decide_ns", tag_ns(SchemeTag::kCava), "ns/event"});
    m.push_back({"abr.robust_mpc.decide_ns", tag_ns(SchemeTag::kRobustMpc),
                 "ns/event"});
    m.push_back({"abr.bola.decide_ns", tag_ns(SchemeTag::kBola), "ns/event"});
    m.push_back({"abr.schemes_built",
                 static_cast<double>(tt.at(SpanKind::kMakeScheme).calls),
                 "count"});
    m.push_back({"net.estimate_calls",
                 static_cast<double>(est.calls + est_up.calls), "count"});
    m.push_back({"net.estimate_ns",
                 ns_per(est.total_ns + est_up.total_ns, tl.events),
                 "ns/event"});
    m.push_back({"obs.sink_events", static_cast<double>(tl.sink_events),
                 "count"});
    m.push_back({"obs.sink_ns", ns_per(sink.total_ns, tl.sink_events),
                 "ns/event"});
    m.push_back({"obs.sink_share",
                 static_cast<double>(sink.total_ns) / fleet_ns, "share"});
    m.push_back({"obs.jsonl_bytes", static_cast<double>(base->jsonl_bytes),
                 "bytes"});
    m.push_back({"fleet.self_s", static_cast<double>(fleet_self_ns) * 1e-9,
                 "s"});
    m.push_back({"fleet.run_fleet_s", tl.fleet_s, "s"});
    m.push_back({"fleet.scaling", median(eps_t) / median(eps_1), "ratio"});
    m.push_back({"trace.overhead", median(eps_traced) / median(eps_1),
                 "ratio"});
    m.push_back({"exp.analyze_ab_s", median(analyze), "s"});
    m.push_back({"video.catalog_build_s", median(catalog_s_), "s"});
    m.push_back({"net.trace_gen_s", median(trace_gen_s_), "s"});

    const FleetResult& r = base->result;
    m.push_back({"fleet.edge_hit_ratio", r.cache.hit_ratio(), "share"});
    m.push_back({"fleet.upstream_fetch_ratio", r.upstream_fetch_ratio,
                 "ratio"});
    m.push_back({"fleet.cdn_coalesced", static_cast<double>(r.cdn.coalesced),
                 "count"});
    m.push_back({"fleet.cdn_shed", static_cast<double>(r.cdn.shed), "count"});
    m.push_back({"fleet.edge_evictions",
                 static_cast<double>(r.cache.evictions), "count"});
    // Engine comparison (not gated): the other engine at 1 thread in
    // materializing mode, untraced. The streaming workload's records come
    // from this leg, since its own runs keep none.
    double event_over_stepped = 0.0;
    const FleetResult* records = &base->result;
    // Engine counters come from whichever leg ran the event engine.
    const FleetResult* event_run =
        w_.spec.engine == FleetEngine::kEvent ? &base->result : nullptr;
    std::optional<Leg> other;
    if (!w_.durable) {
      const bool stepped = w_.spec.engine == FleetEngine::kStepped;
      LegConfig other_cfg = leg_config(1, "other-engine-1t");
      other_cfg.keep_records = true;
      other_cfg.engine = stepped ? FleetEngine::kEvent : FleetEngine::kStepped;
      other_cfg.stream = false;
      other = leg_op(other_cfg);
      if (other) {
        const double own = median(walls_1t_);
        event_over_stepped =
            stepped ? other->fleet_s / own : own / other->fleet_s;
        if (streaming) {
          records = &other->result;
        }
        if (stepped) {
          event_run = &other->result;
        }
      }
    }
    const vbr::fleet::FleetEngineStats es =
        event_run != nullptr ? event_run->engine_stats
                             : vbr::fleet::FleetEngineStats{};
    m.push_back({"fleet.engine.events",
                 static_cast<double>(es.events_processed), "count"});
    m.push_back({"fleet.engine.peak_in_flight",
                 static_cast<double>(es.peak_in_flight), "count"});
    m.push_back({"fleet.engine.max_heap",
                 static_cast<double>(es.max_heap_size), "count"});
    m.push_back({"fleet.engine.peak_resident_records",
                 static_cast<double>(es.peak_resident_records), "count"});
    m.push_back({"fleet.engine.event_over_stepped", event_over_stepped,
                 "ratio"});
    const std::size_t hot_count =
        busiest_title(*records, in_.catalog->num_titles()).second;
    m.push_back({"fleet.hot_title_share",
                 records->sessions.empty()
                     ? 0.0
                     : static_cast<double>(hot_count) /
                           static_cast<double>(records->sessions.size()),
                 "share"});

    replay_metrics(*records, m);
    checkpoint_metrics(*base, m);
    return m;
  }

  void replay_metrics(const FleetResult& records, std::vector<Metric>& m) {
    reset();
    root_id_ = next_id();
    begin_leg(root_id_, true, span_stride_);
    ReplayOutcome out;
    const std::int64_t t0 = now_ns();
    try {
      out = replay_busiest_title(w_, in_, records);
    } catch (const std::exception& e) {
      ++attempted_;
      ++failed_;
      failures_.push_back(std::string("replay: ") + e.what());
    }
    const std::int64_t t1 = now_ns();
    replay_root_ = {root_id_, t0, t1};
    attempted_ += out.sessions;
    failed_ += out.mismatched;
    if (out.mismatched > 0) {
      failures_.push_back("replay: " + std::to_string(out.mismatched) +
                          " sessions differ from their fleet records; " +
                          out.first_mismatch);
    }
    const Totals rt = collect();
    std::vector<SpanRecord> spans = kept_spans();
    kept_.insert(kept_.end(), spans.begin(), spans.end());
    const KindTotals& step = rt.at(SpanKind::kStep);
    const KindTotals& hook = rt.at(SpanKind::kDelivery);
    m.push_back({"sim.step_calls", static_cast<double>(step.calls), "count"});
    m.push_back({"sim.step_self_ns", ns_per(step.self_ns, step.calls),
                 "ns/event"});
    m.push_back({"fleet.delivery_calls", static_cast<double>(hook.calls),
                 "count"});
    m.push_back({"fleet.delivery_ns", ns_per(hook.total_ns, step.calls),
                 "ns/event"});
  }

  void checkpoint_metrics(const Leg& base, std::vector<Metric>& m) {
    double bytes = 0.0, save_s = 0.0, load_s = 0.0, resume_s = 0.0;
    if (w_.durable) {
      op("checkpoint-save-load", [&] {
        bytes = static_cast<double>(fs::file_size(base.checkpoint_path));
        const std::string copy = (dir_ / "copy.ckpt").string();
        std::vector<double> saves, loads;
        for (int r = 0; r < 3; ++r) {
          std::int64_t t0 = now_ns();
          const vbr::fleet::FleetCheckpoint ck =
              vbr::fleet::FleetCheckpoint::load(base.checkpoint_path);
          loads.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
          t0 = now_ns();
          ck.save(copy);
          saves.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        }
        check(read_file(copy) == read_file(base.checkpoint_path),
              "checkpoint: save(load(file)) != file");
        save_s = median(saves);
        load_s = median(loads);
      });
      // Cooperative kill at half the sessions, then resume: the resumed
      // run must reproduce the uninterrupted bytes.
      op("kill-at-half", [&] {
        try {
          LegConfig kill_cfg = leg_config(opt_.threads, "kill");
          kill_cfg.kill_after = in_.arrivals.size() / 2;
          (void)run_leg(kill_cfg);
          check(false, "kill-at-half: the kill schedule did not fire");
        } catch (const vbr::fleet::FleetKilled&) {
        }
      });
      LegConfig resume_cfg = leg_config(opt_.threads, "kill");
      resume_cfg.resume = true;
      if (auto resumed = leg_op(resume_cfg)) {
        resume_s = resumed->fleet_s;
      }
    }
    m.push_back({"fleet.checkpoint.bytes", bytes, "bytes"});
    m.push_back({"fleet.checkpoint.save_s", save_s, "s"});
    m.push_back({"fleet.checkpoint.load_s", load_s, "s"});
    m.push_back({"fleet.checkpoint.resume_s", resume_s, "s"});
  }

  // --- output ----------------------------------------------------------------
  void write_spans() const {
    const fs::path path =
        fs::path(opt_.out_dir) / ("spans-" + opt_.workload + ".json");
    std::ofstream out(path);
    out << "{\"provenance\":" << provenance_json() << ",\n\"roots\":[";
    out << "[" << root_span_.id << ",\"fleet.run_fleet\","
        << root_span_.start << "," << root_span_.end << "],";
    out << "[" << replay_root_.id << ",\"sim.replay\"," << replay_root_.start
        << "," << replay_root_.end << "]],\n\"session_stride\":"
        << span_stride_
        << ",\n\"columns\":[\"name\",\"id\",\"parent\",\"session\","
           "\"start_ns\",\"end_ns\"],\n\"spans\":[";
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const SpanRecord& s = kept_[i];
      out << (i == 0 ? "" : ",\n") << "[\"" << span_name(s.kind)
          << (s.kind == SpanKind::kDecide || s.kind == SpanKind::kMakeScheme
                  ? std::string(".") + scheme_tag_name(s.tag)
                  : std::string())
          << "\"," << s.id << "," << s.parent << "," << s.session << ","
          << s.start_ns << "," << s.end_ns << "]";
    }
    out << "]}\n";
    std::cout << "spans: " << path.string() << " (" << kept_.size()
              << " spans)\n";
  }

  /// The wrapper's host fields (commit, source digest, CPU, nproc) plus
  /// this run's own.
  std::string provenance_json() const {
    return "{\"host\":" + opt_.provenance +
           ",\"workload\":" + json_string(opt_.workload) +
           ",\"seed\":" + std::to_string(opt_.seed) +
           ",\"threads\":" + std::to_string(opt_.threads) +
           ",\"trace\":" + (opt_.trace ? "1" : "0") +
           ",\"compiler\":" + json_string(__VERSION__) +
           ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
           ",\"peak_rss\":" +
           json_string(rss_reset_ok_ ? "VmHWM of a fresh-process leg"
                                     : "process maximum of a fresh-process leg") +
           "}";
  }

  void print(const std::vector<Metric>& metrics) const {
    for (const std::string& f : failures_) {
      std::cout << "FAILED: " << f << "\n";
    }
    for (const Metric& m : metrics) {
      std::cout << "metric " << m.name << " = " << num(m.value) << " "
                << m.unit << "\n";
    }
    std::cout << "failure share: " << failed_ << "/" << attempted_ << "\n";
    if (opt_.trace) {
      write_spans();
    }
    std::cout << "{\"provenance\":" << provenance_json() << "}\n";
    std::cout << "{\"correct\":" << (correct() ? "true" : "false")
              << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
              << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::cout << (i == 0 ? "" : ",") << json_string(metrics[i].name)
                << ":{\"value\":" << num(metrics[i].value)
                << ",\"unit\":" << json_string(metrics[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
  }

  struct Root {
    std::uint64_t id = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  Options opt_;
  Workload w_;
  fs::path dir_;
  Inputs in_;
  std::vector<double> setup_s_, trace_gen_s_, catalog_s_;
  std::vector<double> walls_1t_;
  std::vector<double> probe_s_;
  std::optional<std::uint64_t> probe_checksum_;
  std::optional<Digests> reference_;
  bool rss_reset_ok_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::uint64_t root_id_ = 0;
  std::uint64_t span_stride_ = 1;
  Root root_span_, replay_root_;
  std::vector<SpanRecord> kept_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Ledger ledger(perfbench::parse_options(argc, argv));
    return ledger.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_ledger: " << e.what() << "\n";
    return 2;
  }
}
