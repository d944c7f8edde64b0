#include "fleet/checkpoint.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <climits>
#include <span>
#include <string_view>
#include <system_error>
#include <unordered_set>

#include "fleet/rng.h"
#include "obs/json_util.h"
#include "obs/jsonl_io.h"
#include "obs/trace_sink.h"

namespace vbr::fleet {

KillSchedule KillSchedule::random(std::uint64_t seed, std::uint64_t round,
                                  std::uint64_t num_sessions) {
  KillSchedule k;
  if (num_sessions > 0) {
    constexpr std::uint64_t kSaltKill = 0xc4a05;
    k.after_sessions =
        1 + static_cast<std::uint64_t>(
                detail::keyed_u01(seed, round, 0, kSaltKill) *
                static_cast<double>(num_sessions));
    k.after_sessions = std::min(k.after_sessions, num_sessions);
  }
  return k;
}

// ---------------------------------------------------------------------------
// Spec fingerprint.

namespace {

/// mix64-chained hasher over the workload-defining fields of a FleetSpec.
/// Doubles hash by bit pattern (exact), strings by content.
class SpecHasher {
 public:
  void u64(std::uint64_t v) { h_ = detail::mix64(h_ ^ v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void b(bool v) { u64(v ? 1 : 2); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h_ = detail::mix64(h_ ^ static_cast<unsigned char>(c));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x9e3779b97f4a7c15ULL;
};

void hash_fault(SpecHasher& h, const net::FaultConfig& f) {
  h.f64(f.connect_failure_prob);
  h.f64(f.mid_drop_prob);
  h.f64(f.timeout_prob);
  h.f64(f.connect_fail_delay_s);
  h.f64(f.timeout_s);
  h.u64(f.seed);
}

void hash_retry(SpecHasher& h, const sim::RetryPolicy& r) {
  h.u64(r.max_attempts);
  h.f64(r.backoff_base_s);
  h.f64(r.backoff_factor);
  h.f64(r.backoff_max_s);
  h.f64(r.backoff_jitter);
  h.f64(r.request_timeout_s);
  h.b(r.downgrade_on_failure);
  h.u64(r.downgrade_after);
  h.b(r.resume_partial);
}

void hash_class(SpecHasher& h, const FleetClientClass& c) {
  h.str(c.label);
  h.f64(c.weight);
  hash_fault(h, c.fault);
  hash_retry(h, c.retry);
  h.b(static_cast<bool>(c.make_estimator));
  h.b(static_cast<bool>(c.make_size_provider));
}

}  // namespace

std::uint64_t fleet_experiment_fingerprint(const FleetSpec& spec) {
  SpecHasher h;
  h.b(spec.experiment.enabled());
  h.u64(spec.experiment.seed);
  h.u64(spec.experiment.trace_strata);
  h.b(spec.experiment.score_qoe_models);
  h.u64(spec.experiment.arms.size());
  for (const FleetClientClass& c : spec.experiment.arms) {
    hash_class(h, c);
  }
  return h.value();
}

std::uint64_t fleet_spec_fingerprint(const FleetSpec& spec) {
  SpecHasher h;
  h.u64(FleetCheckpoint::kVersion);
  h.u64(spec.seed);
  h.u64(fleet_experiment_fingerprint(spec));

  h.u64(spec.catalog.num_titles);
  h.f64(spec.catalog.zipf_alpha);
  h.u64(spec.catalog.seed);
  h.f64(spec.catalog.title_duration_s);
  h.f64(spec.catalog.chunk_duration_s);
  h.f64(spec.catalog.cap_factor);
  h.u64(static_cast<std::uint64_t>(spec.catalog.codec));

  h.u64(static_cast<std::uint64_t>(spec.arrivals.kind));
  h.f64(spec.arrivals.rate_per_s);
  h.f64(spec.arrivals.horizon_s);
  h.u64(spec.arrivals.max_sessions);
  h.f64(spec.arrivals.burst_start_s);
  h.f64(spec.arrivals.burst_duration_s);
  h.f64(spec.arrivals.burst_multiplier);
  h.u64(spec.arrivals.seed);

  h.u64(spec.classes.size());
  for (const FleetClientClass& c : spec.classes) {
    hash_class(h, c);
  }

  h.f64(spec.watch.full_watch_prob);
  h.f64(spec.watch.mean_partial_s);
  h.f64(spec.watch.min_watch_s);

  h.b(spec.use_cache);
  h.f64(spec.cache.capacity_bits);
  h.f64(spec.cache.hit_latency_s);
  h.f64(spec.cache.miss_latency_s);
  h.f64(spec.cache.origin_rate_scale);
  h.f64(spec.cache.max_object_fraction);

  h.b(spec.cdn.enabled);
  h.b(spec.cdn.coalesce);
  h.f64(spec.cdn.backhaul_bps);
  h.u64(spec.cdn.seed);
  h.u64(spec.cdn.regional.nodes);
  h.f64(spec.cdn.regional.capacity_bits);
  h.f64(spec.cdn.regional.hit_latency_s);
  h.f64(spec.cdn.regional.rate_scale);
  h.u64(spec.cdn.regional.outages_per_node);
  h.f64(spec.cdn.regional.outage_duration_s);
  h.f64(spec.cdn.regional.failover_latency_s);
  h.f64(spec.cdn.brownout.start_s);
  h.f64(spec.cdn.brownout.duration_s);
  h.f64(spec.cdn.brownout.rate_scale);
  h.f64(spec.cdn.brownout.extra_latency_s);
  h.f64(spec.cdn.brownout.capacity_scale);
  h.f64(spec.cdn.shed.capacity_sessions);
  h.f64(spec.cdn.shed.active_session_s);
  h.f64(spec.cdn.shed.threshold);
  h.f64(spec.cdn.shed.max_shed_prob);
  h.f64(spec.cdn.shed.penalty_rate_scale);
  hash_retry(h, spec.cdn.retry);

  h.f64(spec.session.startup_latency_s);
  h.f64(spec.session.max_buffer_s);
  h.f64(spec.session.request_rtt_s);
  h.b(spec.session.enable_abandonment);
  h.f64(spec.session.abandon_check_fraction);
  hash_fault(h, spec.session.fault);
  hash_retry(h, spec.session.retry);
  h.f64(spec.session.watch_duration_s);
  h.u64(spec.session.watchdog_max_decisions);
  h.f64(spec.session.watchdog_max_sim_s);

  h.u64(static_cast<std::uint64_t>(spec.metric));
  h.f64(spec.qoe.low_quality_threshold);
  h.u64(spec.qoe.top_class);

  h.u64(spec.traces.size());
  for (const net::Trace& t : spec.traces) {
    h.str(t.name());
    h.f64(t.sample_period_s());
    h.u64(t.samples_bps().size());
    for (const double s : t.samples_bps()) {
      h.f64(s);
    }
  }

  // Telemetry collection is workload-defining for a checkpoint: a snapshot
  // taken without per-session events cannot resume a run that merges them.
  h.b(spec.trace != nullptr);
  h.b(spec.metrics != nullptr);
  return h.value();
}

// ---------------------------------------------------------------------------
// Serialization.

namespace {

constexpr std::string_view kMagic = "VBRFLEETCKPT";

void sp(std::string& s) { s += ' '; }

void put_u64(std::string& s, std::uint64_t v) {
  obs::detail::append_uint(s, v);
}

void put_f64(std::string& s, double v) { obs::detail::append_double(s, v); }

void put_stats_fields(std::string& s, const EdgeCacheStats& st) {
  put_u64(s, st.lookups);
  sp(s);
  put_u64(s, st.hits);
  sp(s);
  put_f64(s, st.hit_bits);
  sp(s);
  put_f64(s, st.miss_bits);
  sp(s);
  put_u64(s, st.evictions);
  sp(s);
  put_f64(s, st.evicted_bits);
  sp(s);
  put_u64(s, st.rejected);
}

void put_stats(std::string& s, const EdgeCacheStats& st) {
  s += "stats ";
  put_stats_fields(s, st);
  s += '\n';
}

void put_dvec(std::string& s, const char* tag,
              const std::vector<double>& v) {
  s += tag;
  sp(s);
  put_u64(s, v.size());
  for (const double x : v) {
    sp(s);
    put_f64(s, x);
  }
  s += '\n';
}

void put_uvec(std::string& s, const char* tag,
              const std::vector<std::uint64_t>& v) {
  s += tag;
  sp(s);
  put_u64(s, v.size());
  for (const std::uint64_t x : v) {
    sp(s);
    put_u64(s, x);
  }
  s += '\n';
}

/// Sequential line/token reader over one segment's payload. Every helper
/// throws CheckpointError naming the segment and line on any malformed
/// input, so load() can never silently misread a damaged file.
class Reader {
 public:
  Reader(std::string_view payload, std::uint64_t segment)
      : s_(payload), segment_(segment) {}

  [[nodiscard]] std::string_view next_line() {
    if (pos_ >= s_.size()) {
      fail("unexpected end of file");
    }
    const std::size_t nl = s_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      fail("unterminated line");
    }
    const std::string_view line = s_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    ++line_no_;
    return line;
  }

  /// Up to `n` next lines, without consuming them: those next_line() would
  /// return before it fails.
  [[nodiscard]] std::vector<std::string_view> peek_lines(
      std::uint64_t n) const {
    std::vector<std::string_view> lines;
    for (std::size_t at = pos_; lines.size() < n && at < s_.size();) {
      const std::size_t nl = s_.find('\n', at);
      if (nl == std::string_view::npos) {
        break;
      }
      lines.push_back(s_.substr(at, nl - at));
      at = nl + 1;
    }
    return lines;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= s_.size(); }

  [[noreturn]] void fail(const std::string& what) const {
    throw CheckpointError("checkpoint: segment " + std::to_string(segment_) +
                          ", line " + std::to_string(line_no_) + ": " + what);
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  std::uint64_t segment_;
  std::uint64_t line_no_ = 0;
};

/// Tokenizer over one line.
class Tokens {
 public:
  Tokens(std::string_view line, Reader& r) : s_(line), r_(&r) {}

  void expect(std::string_view tag) {
    if (word() != tag) {
      r_->fail("expected '" + std::string(tag) + "' record");
    }
  }

  [[nodiscard]] std::string_view word() {
    skip_space();
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ') {
      ++pos_;
    }
    if (start == pos_) {
      r_->fail("missing token");
    }
    return s_.substr(start, pos_ - start);
  }

  [[nodiscard]] std::uint64_t u64() {
    const std::string_view w = word();
    std::uint64_t v = 0;
    const auto r = std::from_chars(w.data(), w.data() + w.size(), v);
    if (r.ec != std::errc() || r.ptr != w.data() + w.size()) {
      r_->fail("expected unsigned integer");
    }
    return v;
  }

  [[nodiscard]] double f64() {
    const std::string_view w = word();
    double v = 0.0;
    const auto r = std::from_chars(w.data(), w.data() + w.size(), v);
    if (r.ec != std::errc() || r.ptr != w.data() + w.size()) {
      r_->fail("expected number");
    }
    return v;
  }

  [[nodiscard]] bool flag() {
    const std::uint64_t v = u64();
    if (v > 1) {
      r_->fail("expected 0/1 flag");
    }
    return v == 1;
  }

  /// JSON-quoted string (metric names may contain spaces).
  [[nodiscard]] std::string quoted() {
    skip_space();
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      r_->fail("expected quoted string");
    }
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) {
        break;
      }
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            r_->fail("truncated escape in string");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hx = s_[pos_++];
            code <<= 4;
            if (hx >= '0' && hx <= '9') {
              code |= static_cast<unsigned>(hx - '0');
            } else if (hx >= 'a' && hx <= 'f') {
              code |= static_cast<unsigned>(hx - 'a') + 10;
            } else {
              r_->fail("bad escape digit in string");
            }
          }
          out += static_cast<char>(code);
          break;
        }
        default:
          r_->fail("unknown string escape");
      }
    }
    r_->fail("unterminated quoted string");
  }

  void done() {
    skip_space();
    if (pos_ != s_.size()) {
      r_->fail("trailing tokens");
    }
  }

 private:
  void skip_space() {
    while (pos_ < s_.size() && s_[pos_] == ' ') {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  Reader* r_;
};

std::vector<double> read_dvec(Reader& r, const char* tag) {
  Tokens t(r.next_line(), r);
  t.expect(tag);
  const std::uint64_t n = t.u64();
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(t.f64());
  }
  t.done();
  return out;
}

std::vector<std::uint64_t> read_uvec(Reader& r, const char* tag) {
  Tokens t(r.next_line(), r);
  t.expect(tag);
  const std::uint64_t n = t.u64();
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(t.u64());
  }
  t.done();
  return out;
}

EdgeCacheStats read_stats(Reader& r, const char* tag = "stats") {
  Tokens t(r.next_line(), r);
  t.expect(tag);
  EdgeCacheStats st;
  st.lookups = t.u64();
  st.hits = t.u64();
  st.hit_bits = t.f64();
  st.miss_bits = t.f64();
  st.evictions = t.u64();
  st.evicted_bits = t.f64();
  st.rejected = t.u64();
  t.done();
  return st;
}

void put_entries(std::string& s, const char* tag,
                 const std::vector<EdgeCacheEntrySnapshot>& entries) {
  s += tag;
  sp(s);
  put_u64(s, entries.size());
  s += '\n';
  for (const EdgeCacheEntrySnapshot& e : entries) {
    s += "e ";
    put_u64(s, e.title);
    sp(s);
    put_u64(s, e.track);
    sp(s);
    put_u64(s, e.chunk);
    sp(s);
    put_f64(s, e.bits);
    s += '\n';
  }
}

std::vector<EdgeCacheEntrySnapshot> read_entries(Reader& r, const char* tag) {
  Tokens t(r.next_line(), r);
  t.expect(tag);
  const std::uint64_t n = t.u64();
  t.done();
  std::vector<EdgeCacheEntrySnapshot> out;
  out.reserve(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    Tokens e(r.next_line(), r);
    e.expect("e");
    EdgeCacheEntrySnapshot snap;
    snap.title = static_cast<std::uint32_t>(e.u64());
    snap.track = static_cast<std::uint32_t>(e.u64());
    snap.chunk = e.u64();
    snap.bits = e.f64();
    e.done();
    out.push_back(snap);
  }
  return out;
}

void put_registry(std::string& s, const obs::MetricsRegistry& reg) {
  using obs::detail::append_json_string;
  s += "counters ";
  put_u64(s, reg.counters().size());
  s += '\n';
  for (const auto& [name, c] : reg.counters()) {
    s += "c ";
    append_json_string(s, name);
    sp(s);
    put_f64(s, c.value());
    s += '\n';
  }
  s += "gauges ";
  put_u64(s, reg.gauges().size());
  s += '\n';
  for (const auto& [name, g] : reg.gauges()) {
    s += "g ";
    append_json_string(s, name);
    sp(s);
    put_u64(s, g.written() ? 1 : 0);
    sp(s);
    put_f64(s, g.value());
    s += '\n';
  }
  s += "hists ";
  put_u64(s, reg.histograms().size());
  s += '\n';
  for (const auto& [name, hh] : reg.histograms()) {
    s += "h ";
    append_json_string(s, name);
    sp(s);
    put_u64(s, hh.wall_clock() ? 1 : 0);
    sp(s);
    put_u64(s, hh.bounds().size());
    for (const double b : hh.bounds()) {
      sp(s);
      put_f64(s, b);
    }
    for (const std::uint64_t c : hh.counts()) {
      sp(s);
      put_u64(s, c);
    }
    sp(s);
    put_u64(s, hh.count());
    sp(s);
    put_f64(s, hh.sum());
    sp(s);
    put_f64(s, hh.min());
    sp(s);
    put_f64(s, hh.max());
    s += '\n';
  }
}

obs::MetricsRegistry read_registry(Reader& r) {
  obs::MetricsRegistry reg;
  {
    Tokens t(r.next_line(), r);
    t.expect("counters");
    const std::uint64_t n = t.u64();
    t.done();
    for (std::uint64_t i = 0; i < n; ++i) {
      Tokens ct(r.next_line(), r);
      ct.expect("c");
      const std::string name = ct.quoted();
      const double v = ct.f64();
      ct.done();
      reg.counter(name).add(v);
    }
  }
  {
    Tokens t(r.next_line(), r);
    t.expect("gauges");
    const std::uint64_t n = t.u64();
    t.done();
    for (std::uint64_t i = 0; i < n; ++i) {
      Tokens gt(r.next_line(), r);
      gt.expect("g");
      const std::string name = gt.quoted();
      const bool written = gt.flag();
      const double v = gt.f64();
      gt.done();
      obs::Gauge& g = reg.gauge(name);
      if (written) {
        g.set(v);
      }
    }
  }
  {
    Tokens t(r.next_line(), r);
    t.expect("hists");
    const std::uint64_t n = t.u64();
    t.done();
    for (std::uint64_t i = 0; i < n; ++i) {
      Tokens ht(r.next_line(), r);
      ht.expect("h");
      const std::string name = ht.quoted();
      const bool wall = ht.flag();
      const std::uint64_t nb = ht.u64();
      std::vector<double> bounds;
      bounds.reserve(nb);
      for (std::uint64_t j = 0; j < nb; ++j) {
        bounds.push_back(ht.f64());
      }
      std::vector<std::uint64_t> counts;
      counts.reserve(nb + 1);
      for (std::uint64_t j = 0; j < nb + 1; ++j) {
        counts.push_back(ht.u64());
      }
      const std::uint64_t count = ht.u64();
      const double sum = ht.f64();
      const double mn = ht.f64();
      const double mx = ht.f64();
      ht.done();
      try {
        reg.histogram(name, bounds, wall).restore(counts, count, sum, mn, mx);
      } catch (const std::invalid_argument& e) {
        r.fail(std::string("bad histogram record: ") + e.what());
      }
    }
  }
  return reg;
}


const char* engine_name(FleetEngine e) {
  return e == FleetEngine::kEvent ? "event" : "stepped";
}

/// The segment header line, the shared state, and the "sessions <n>" line
/// that the `num_sessions` session blocks follow.
void put_segment_head(std::string& s, const FleetCheckpoint::Segment& seg,
                      std::uint64_t number, std::size_t num_sessions) {
  s += kMagic;
  sp(s);
  put_u64(s, FleetCheckpoint::kVersion);
  s += " seg ";
  put_u64(s, number);
  s += " engine ";
  s += engine_name(seg.engine);
  s += " events ";
  put_u64(s, seg.events_done);
  s += " meta ";
  put_u64(s, seg.spec_fingerprint);
  sp(s);
  put_u64(s, seg.num_sessions);
  sp(s);
  put_u64(s, seg.num_titles);
  sp(s);
  put_u64(s, seg.max_tracks);
  sp(s);
  put_u64(s, seg.sessions_done);
  sp(s);
  put_u64(s, seg.experiment_fingerprint);
  s += '\n';

  s += "titles ";
  put_u64(s, seg.titles.size());
  s += '\n';
  for (const FleetCheckpoint::TitleState& ts : seg.titles) {
    s += "title ";
    put_u64(s, ts.index);
    sp(s);
    put_u64(s, ts.done);
    sp(s);
    put_u64(s, ts.total);
    sp(s);
    put_u64(s, ts.has_shard ? 1 : 0);
    s += '\n';
    put_stats(s, ts.stats);
    put_uvec(s, "hits", ts.track_hits);
    put_uvec(s, "tot", ts.track_total);
    put_entries(s, "entries", ts.shard_entries);
    // CDN hierarchy state: uniform — all zeros when the CDN is off.
    s += "cdn ";
    put_u64(s, ts.cdn_requests);
    sp(s);
    put_u64(s, ts.cdn_consecutive_sheds);
    sp(s);
    put_u64(s, ts.has_regional ? 1 : 0);
    s += '\n';
    s += "cstats ";
    put_u64(s, ts.cdn_stats.client_requests);
    sp(s);
    put_u64(s, ts.cdn_stats.edge_hits);
    sp(s);
    put_u64(s, ts.cdn_stats.regional_hits);
    sp(s);
    put_u64(s, ts.cdn_stats.origin_fetches);
    sp(s);
    put_u64(s, ts.cdn_stats.coalesced);
    sp(s);
    put_u64(s, ts.cdn_stats.shed);
    sp(s);
    put_u64(s, ts.cdn_stats.failovers);
    sp(s);
    put_u64(s, ts.cdn_stats.brownout_fetches);
    sp(s);
    put_f64(s, ts.cdn_stats.shed_wait_s);
    sp(s);
    put_f64(s, ts.cdn_stats.regional_hit_bits);
    sp(s);
    put_f64(s, ts.cdn_stats.origin_fetch_bits);
    s += '\n';
    s += "rstats ";
    put_stats_fields(s, ts.regional_stats);
    s += '\n';
    put_entries(s, "rentries", ts.regional_entries);
    s += "inflight ";
    put_u64(s, ts.inflight.size());
    s += '\n';
    for (const auto& [key, fl] : ts.inflight) {
      s += "if ";
      put_u64(s, key);
      sp(s);
      put_f64(s, fl.start_s);
      sp(s);
      put_f64(s, fl.ready_s);
      sp(s);
      put_u64(s, fl.tier);
      s += '\n';
    }
  }

  s += "sessions ";
  put_u64(s, num_sessions);
  s += '\n';
}

/// One session block. `events` / `metrics` are null when the spec does not
/// collect that stream. A template only so the loaded form (a vector) and
/// the live MemoryTraceSink (a deque) share this one serializer.
template <class Events>
void put_session(std::string& s, const FleetSessionRecord& rec,
                 const Events* events, const obs::MetricsRegistry* metrics) {
  s += "session ";
  put_u64(s, rec.session_id);
  sp(s);
  put_f64(s, rec.arrival_s);
  sp(s);
  put_u64(s, rec.title);
  sp(s);
  put_u64(s, rec.class_index);
  sp(s);
  put_u64(s, rec.trace_index);
  sp(s);
  put_f64(s, rec.watch_duration_s);
  sp(s);
  put_u64(s, rec.chunks);
  sp(s);
  put_u64(s, rec.edge_hits);
  sp(s);
  put_f64(s, rec.edge_hit_bits);
  sp(s);
  put_f64(s, rec.origin_bits);
  sp(s);
  put_u64(s, rec.regional_hits);
  sp(s);
  put_u64(s, rec.coalesced_chunks);
  sp(s);
  put_u64(s, rec.shed_chunks);
  sp(s);
  put_f64(s, rec.regional_bits);
  sp(s);
  put_u64(s, rec.watchdog_aborted ? 1 : 0);
  s += '\n';
  s += "qoe ";
  put_f64(s, rec.qoe.q4_quality_mean);
  sp(s);
  put_f64(s, rec.qoe.q4_quality_median);
  sp(s);
  put_f64(s, rec.qoe.q13_quality_mean);
  sp(s);
  put_f64(s, rec.qoe.all_quality_mean);
  sp(s);
  put_f64(s, rec.qoe.low_quality_pct);
  sp(s);
  put_f64(s, rec.qoe.rebuffer_s);
  sp(s);
  put_f64(s, rec.qoe.startup_delay_s);
  sp(s);
  put_f64(s, rec.qoe.avg_quality_change);
  sp(s);
  put_f64(s, rec.qoe.data_usage_mb);
  s += '\n';
  put_dvec(s, "qv4", rec.qoe.q4_qualities);
  put_dvec(s, "qv13", rec.qoe.q13_qualities);
  put_dvec(s, "qvall", rec.qoe.all_qualities);
  s += "faults ";
  put_u64(s, rec.faults.chunks);
  sp(s);
  put_u64(s, rec.faults.skipped);
  sp(s);
  put_u64(s, rec.faults.downgraded);
  sp(s);
  put_u64(s, rec.faults.attempts);
  sp(s);
  put_u64(s, rec.faults.connect_failures);
  sp(s);
  put_u64(s, rec.faults.mid_drops);
  sp(s);
  put_u64(s, rec.faults.timeouts);
  sp(s);
  put_f64(s, rec.faults.backoff_wait_s);
  sp(s);
  put_f64(s, rec.faults.resumed_mb);
  sp(s);
  put_f64(s, rec.faults.wasted_mb);
  s += '\n';
  // Experiment stratum + per-QoE-model scores (zero/empty outside
  // experiment runs, serialized unconditionally for a uniform format).
  s += "abx ";
  put_u64(s, rec.stratum);
  s += '\n';
  put_dvec(s, "scores", rec.qoe_scores);
  s += "events ";
  put_u64(s, events != nullptr ? 1 : 0);
  sp(s);
  put_u64(s, events != nullptr ? events->size() : 0);
  s += '\n';
  if (events != nullptr) {
    // Each event rides as a checksummed canonical JSONL line — the same
    // torn/corrupt detection as the durable trace sinks. The lines go down
    // with checksum slots that one batch call then fills.
    const std::size_t first = s.size();
    for (const obs::DecisionEvent& ev : *events) {
      obs::append_jsonl_with_checksum_slot(s, ev, ev.seq);
    }
    obs::fill_checksum_slots(s, first);
  }
  s += "metrics ";
  put_u64(s, metrics != nullptr ? 1 : 0);
  s += '\n';
  if (metrics != nullptr) {
    put_registry(s, *metrics);
  }
}

/// "end " + 8 hex digits + '\n'.
constexpr std::size_t kTrailerBytes = 13;

/// The "end <8hex>\n" trailer that closes a segment. `h` is the running
/// checksum over the segment's bytes; the trailer's own "end " prefix is
/// covered too (load() mirrors).
std::string trailer(std::uint32_t h) {
  std::string s = "end ";
  const std::uint32_t crc = obs::line_checksum(s, h);
  static const char* digits = "0123456789abcdef";
  for (int shift = 28; shift >= 0; shift -= 4) {
    s += digits[(crc >> shift) & 0xFu];
  }
  s += '\n';
  return s;
}

[[noreturn]] void throw_errno(int err, const std::string& what) {
  throw std::system_error(err != 0 ? err : EIO, std::generic_category(),
                          what);
}

/// Writes `pieces`, back to back, to `fd` at `offset` with positioned
/// vector writes, then fsyncs and closes fd; on failure closes fd and
/// throws naming `path`.
void write_all_at(int fd, const std::string& path,
                  std::span<const std::string_view> pieces, off_t offset,
                  const char* who) {
  std::vector<iovec> iov;
  iov.reserve(pieces.size());
  for (const std::string_view p : pieces) {
    if (!p.empty()) {
      iov.push_back({const_cast<char*>(p.data()), p.size()});
    }
  }
  std::size_t next = 0;
  while (next < iov.size()) {
    const int count =
        static_cast<int>(std::min<std::size_t>(iov.size() - next, IOV_MAX));
    const ssize_t nw = ::pwritev(fd, iov.data() + next, count, offset);
    if (nw < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int err = errno;
      ::close(fd);
      throw_errno(err, std::string(who) + ": write failed on '" + path + "'");
    }
    offset += static_cast<off_t>(nw);
    // Skip the pieces written whole; resume a partly written one.
    auto left = static_cast<std::size_t>(nw);
    while (next < iov.size() && left >= iov[next].iov_len) {
      left -= iov[next].iov_len;
      ++next;
    }
    if (left > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + left;
      iov[next].iov_len -= left;
    }
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw_errno(err, std::string(who) + ": fsync failed on '" + path + "'");
  }
  ::close(fd);
}

/// Atomic durable replace: temp + fsync + rename + directory fsync. A crash
/// at any byte of this sequence leaves either the old file or the new one —
/// never a torn file under the real name.
void write_atomically(const std::string& path,
                      std::span<const std::string_view> pieces,
                      const char* who) {
  const std::string tmp = path + ".tmp";
  errno = 0;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw_errno(errno, std::string(who) + ": cannot open '" + tmp + "'");
  }
  try {
    write_all_at(fd, tmp, pieces, 0, who);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw_errno(err, std::string(who) + ": cannot rename '" + tmp + "' to '" +
                         path + "'");
  }
  // Make the rename itself durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);  // best effort; some filesystems refuse dir fsync
    ::close(dfd);
  }
}

/// Durable append after the first `good_bytes` of `path`: whatever lies
/// beyond them (a torn segment from a crashed run) is truncated first, so
/// a new segment never lands behind a damaged one.
void append_after(const std::string& path, std::uint64_t good_bytes,
                  std::span<const std::string_view> pieces,
                  const char* who) {
  errno = 0;
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    throw_errno(errno, std::string(who) + ": cannot open '" + path + "'");
  }
  if (::ftruncate(fd, static_cast<off_t>(good_bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    throw_errno(err, std::string(who) + ": cannot truncate '" + path + "'");
  }
  write_all_at(fd, path, pieces, static_cast<off_t>(good_bytes), who);
}

std::string read_all(const std::string& path) {
  errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw_errno(errno, "FleetCheckpoint::load: cannot open '" + path + "'");
  }
  std::string data;
  char buf[1 << 16];
  while (true) {
    const ssize_t nr = ::read(fd, buf, sizeof buf);
    if (nr < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int err = errno;
      ::close(fd);
      throw_errno(err, "FleetCheckpoint::load: read failed on '" + path + "'");
    }
    if (nr == 0) {
      break;
    }
    data.append(buf, static_cast<std::size_t>(nr));
  }
  ::close(fd);
  return data;
}

/// The file's first line must carry the magic and this build's version.
/// Checked before any segment is parsed, so an old whole-file snapshot is
/// named by its version rather than reported as a damaged journal.
void check_format_line(const std::string& data) {
  if (data.empty()) {
    throw CheckpointError("checkpoint: empty file");
  }
  const std::string_view first(data.data(),
                               std::min(data.find('\n'), data.size()));
  const std::size_t space = first.find(' ');
  const std::string_view magic = first.substr(0, space);
  if (magic != kMagic) {
    throw CheckpointError("checkpoint: bad magic '" + std::string(magic) +
                          "'");
  }
  std::string_view rest = space == std::string_view::npos
                              ? std::string_view()
                              : first.substr(space + 1);
  rest = rest.substr(0, rest.find(' '));
  std::uint64_t version = 0;
  const auto r = std::from_chars(rest.data(), rest.data() + rest.size(),
                                 version);
  if (r.ec != std::errc() || r.ptr != rest.data() + rest.size()) {
    throw CheckpointError("checkpoint: malformed version field");
  }
  if (version == 3 || version == 4) {
    throw CheckpointError(
        "checkpoint: unsupported version " + std::to_string(version) +
        " (VBRFLEETCKPT " + std::to_string(version) +
        " is a whole-file snapshot from before the append-only journal; "
        "this build reads version " +
        std::to_string(FleetCheckpoint::kVersion) +
        " — finish the run with the build that wrote it or delete the file)");
  }
  if (version != FleetCheckpoint::kVersion) {
    throw CheckpointError("checkpoint: unsupported version " +
                          std::to_string(version) + " (expected " +
                          std::to_string(FleetCheckpoint::kVersion) + ")");
  }
}

/// Verifies the "end <8hex>" trailer at data[trailer_at, eol) against the
/// segment data[start, trailer_at + 4).
bool trailer_ok(const std::string& data, std::size_t start,
                std::size_t trailer_at, std::size_t eol) {
  if (eol - trailer_at != 12) {
    return false;
  }
  std::uint32_t stored = 0;
  for (std::size_t i = trailer_at + 4; i < eol; ++i) {
    const char c = data[i];
    std::uint32_t nib = 0;
    if (c >= '0' && c <= '9') {
      nib = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nib = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    stored = (stored << 4) | nib;
  }
  return obs::line_checksum(std::string_view(
             data.data() + start, trailer_at + 4 - start)) == stored;
}

FleetCheckpoint::TitleState read_title(Reader& r,
                                       const FleetCheckpoint::Segment& seg) {
  FleetCheckpoint::TitleState ts;
  Tokens tt(r.next_line(), r);
  tt.expect("title");
  ts.index = tt.u64();
  ts.done = tt.u64();
  ts.total = tt.u64();
  ts.has_shard = tt.flag();
  tt.done();
  if (ts.index >= seg.num_titles || ts.done > ts.total) {
    r.fail("inconsistent title record");
  }
  ts.stats = read_stats(r);
  ts.track_hits = read_uvec(r, "hits");
  ts.track_total = read_uvec(r, "tot");
  if (ts.track_hits.size() != seg.max_tracks ||
      ts.track_total.size() != seg.max_tracks) {
    r.fail("track vector size mismatch");
  }
  ts.shard_entries = read_entries(r, "entries");
  {
    Tokens ct(r.next_line(), r);
    ct.expect("cdn");
    ts.cdn_requests = ct.u64();
    ts.cdn_consecutive_sheds = ct.u64();
    ts.has_regional = ct.flag();
    ct.done();
  }
  {
    Tokens cs(r.next_line(), r);
    cs.expect("cstats");
    ts.cdn_stats.client_requests = cs.u64();
    ts.cdn_stats.edge_hits = cs.u64();
    ts.cdn_stats.regional_hits = cs.u64();
    ts.cdn_stats.origin_fetches = cs.u64();
    ts.cdn_stats.coalesced = cs.u64();
    ts.cdn_stats.shed = cs.u64();
    ts.cdn_stats.failovers = cs.u64();
    ts.cdn_stats.brownout_fetches = cs.u64();
    ts.cdn_stats.shed_wait_s = cs.f64();
    ts.cdn_stats.regional_hit_bits = cs.f64();
    ts.cdn_stats.origin_fetch_bits = cs.f64();
    cs.done();
  }
  ts.regional_stats = read_stats(r, "rstats");
  ts.regional_entries = read_entries(r, "rentries");
  Tokens it(r.next_line(), r);
  it.expect("inflight");
  const std::uint64_t ni = it.u64();
  it.done();
  ts.inflight.reserve(ni);
  for (std::uint64_t j = 0; j < ni; ++j) {
    Tokens f(r.next_line(), r);
    f.expect("if");
    const std::uint64_t key = f.u64();
    CdnInflight fl;
    fl.start_s = f.f64();
    fl.ready_s = f.f64();
    fl.tier = static_cast<std::uint32_t>(f.u64());
    f.done();
    if (fl.tier > 2) {
      r.fail("inflight tier out of range");
    }
    ts.inflight.emplace_back(key, fl);
  }
  return ts;
}

FleetCheckpoint::SessionState read_session(
    Reader& r, const FleetCheckpoint::Segment& seg) {
  FleetCheckpoint::SessionState ss;
  FleetSessionRecord& rec = ss.record;
  Tokens st(r.next_line(), r);
  st.expect("session");
  rec.session_id = st.u64();
  rec.arrival_s = st.f64();
  rec.title = st.u64();
  rec.class_index = st.u64();
  rec.trace_index = st.u64();
  rec.watch_duration_s = st.f64();
  rec.chunks = st.u64();
  rec.edge_hits = st.u64();
  rec.edge_hit_bits = st.f64();
  rec.origin_bits = st.f64();
  rec.regional_hits = st.u64();
  rec.coalesced_chunks = st.u64();
  rec.shed_chunks = st.u64();
  rec.regional_bits = st.f64();
  rec.watchdog_aborted = st.flag();
  st.done();
  if (rec.session_id >= seg.num_sessions) {
    r.fail("session id out of range");
  }
  Tokens qt(r.next_line(), r);
  qt.expect("qoe");
  rec.qoe.q4_quality_mean = qt.f64();
  rec.qoe.q4_quality_median = qt.f64();
  rec.qoe.q13_quality_mean = qt.f64();
  rec.qoe.all_quality_mean = qt.f64();
  rec.qoe.low_quality_pct = qt.f64();
  rec.qoe.rebuffer_s = qt.f64();
  rec.qoe.startup_delay_s = qt.f64();
  rec.qoe.avg_quality_change = qt.f64();
  rec.qoe.data_usage_mb = qt.f64();
  qt.done();
  rec.qoe.q4_qualities = read_dvec(r, "qv4");
  rec.qoe.q13_qualities = read_dvec(r, "qv13");
  rec.qoe.all_qualities = read_dvec(r, "qvall");
  Tokens ft(r.next_line(), r);
  ft.expect("faults");
  rec.faults.chunks = ft.u64();
  rec.faults.skipped = ft.u64();
  rec.faults.downgraded = ft.u64();
  rec.faults.attempts = ft.u64();
  rec.faults.connect_failures = ft.u64();
  rec.faults.mid_drops = ft.u64();
  rec.faults.timeouts = ft.u64();
  rec.faults.backoff_wait_s = ft.f64();
  rec.faults.resumed_mb = ft.f64();
  rec.faults.wasted_mb = ft.f64();
  ft.done();
  Tokens at(r.next_line(), r);
  at.expect("abx");
  rec.stratum = static_cast<std::uint32_t>(at.u64());
  at.done();
  rec.qoe_scores = read_dvec(r, "scores");
  Tokens evt(r.next_line(), r);
  evt.expect("events");
  ss.has_events = evt.flag();
  const std::uint64_t nev = evt.u64();
  evt.done();
  if (!ss.has_events && nev != 0) {
    r.fail("events listed for a session without an event stream");
  }
  // Verify the lines in one batch first; then walk them in order, so that
  // the first bad line (checksum, parse, or a missing line) is the one named.
  const std::vector<std::string_view> lines = r.peek_lines(nev);
  std::vector<std::string_view> payloads(lines.size());
  const std::size_t verified = obs::verify_checksummed_lines(lines, payloads);
  ss.events.reserve(lines.size());  // not nev: the file may overstate it
  for (std::uint64_t j = 0; j < nev; ++j) {
    (void)r.next_line();
    if (j >= verified) {
      r.fail("event line failed its checksum");
    }
    try {
      ss.events.push_back(obs::parse_jsonl(payloads[j]));
    } catch (const std::invalid_argument& e) {
      r.fail(std::string("bad event line: ") + e.what());
    }
  }
  Tokens mt(r.next_line(), r);
  mt.expect("metrics");
  ss.has_metrics = mt.flag();
  mt.done();
  if (ss.has_metrics) {
    ss.metrics = read_registry(r);
  }
  return ss;
}

/// Parses one checksum-verified segment payload (trailer excluded).
FleetCheckpoint::Segment read_segment(std::string_view payload,
                                      std::uint64_t number) {
  Reader r(payload, number);
  FleetCheckpoint::Segment seg;
  {
    Tokens t(r.next_line(), r);
    if (t.word() != kMagic) {
      r.fail("bad magic");
    }
    if (t.u64() != FleetCheckpoint::kVersion) {
      r.fail("version differs from the journal's");
    }
    t.expect("seg");
    if (t.u64() != number) {
      r.fail("out of order (the header names another segment number)");
    }
    t.expect("engine");
    const std::string_view engine = t.word();
    if (engine == "stepped") {
      seg.engine = FleetEngine::kStepped;
    } else if (engine == "event") {
      seg.engine = FleetEngine::kEvent;
    } else {
      r.fail("unknown engine '" + std::string(engine) + "'");
    }
    t.expect("events");
    seg.events_done = t.u64();
    t.expect("meta");
    seg.spec_fingerprint = t.u64();
    seg.num_sessions = t.u64();
    seg.num_titles = t.u64();
    seg.max_tracks = t.u64();
    seg.sessions_done = t.u64();
    seg.experiment_fingerprint = t.u64();
    t.done();
  }
  {
    Tokens t(r.next_line(), r);
    t.expect("titles");
    const std::uint64_t n = t.u64();
    t.done();
    seg.titles.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      seg.titles.push_back(read_title(r, seg));
    }
  }
  {
    Tokens t(r.next_line(), r);
    t.expect("sessions");
    const std::uint64_t n = t.u64();
    t.done();
    seg.sessions.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      seg.sessions.push_back(read_session(r, seg));
    }
  }
  if (!r.at_end()) {
    r.fail("trailing data after last session");
  }
  return seg;
}

/// Serializes one whole segment (head, sessions, trailer) onto `s`.
void put_segment(std::string& s, const FleetCheckpoint::Segment& seg,
                 std::uint64_t number) {
  const std::size_t start = s.size();
  put_segment_head(s, seg, number, seg.sessions.size());
  for (const FleetCheckpoint::SessionState& ss : seg.sessions) {
    put_session(s, ss.record, ss.has_events ? &ss.events : nullptr,
                ss.has_metrics ? &ss.metrics : nullptr);
  }
  s += trailer(obs::line_checksum(
      std::string_view(s.data() + start, s.size() - start)));
}

}  // namespace

void FleetCheckpoint::save(const std::string& path) const {
  std::string s;
  s.reserve(1 << 16);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    put_segment(s, segments[i], i + 1);
  }
  const std::string_view whole = s;
  write_atomically(path, {&whole, 1}, "FleetCheckpoint::save");
}

FleetCheckpoint FleetCheckpoint::load(const std::string& path) {
  const std::string data = read_all(path);
  check_format_line(data);

  FleetCheckpoint ck;
  std::unordered_set<std::uint64_t> seen;  // sized by the file, not a header
  std::uint64_t journaled = 0;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t number = ck.segments.size() + 1;
    const std::string where = "checkpoint: segment " + std::to_string(number);
    // A segment runs to the first trailer line after its header ("end " is
    // no other record's tag). No complete trailer: a torn final segment.
    const std::size_t nl_end = data.find("\nend ", pos);
    const std::size_t eol = nl_end == std::string::npos
                                ? std::string::npos
                                : data.find('\n', nl_end + 1);
    if (eol == std::string::npos) {
      if (number == 1) {
        throw CheckpointError(where +
                              ": incomplete (truncated file; no complete "
                              "segment)");
      }
      break;  // torn tail: dropped
    }
    const std::size_t trailer_at = nl_end + 1;
    const std::size_t end = eol + 1;
    if (!trailer_ok(data, pos, trailer_at, eol)) {
      if (end == data.size() && number > 1) {
        break;  // checksum-failing final segment: dropped like a torn tail
      }
      throw CheckpointError(
          where + ": trailer checksum mismatch (" +
          (end == data.size() ? "the only segment is corrupt"
                              : "corrupt interior segment") +
          ")");
    }

    Segment seg = read_segment(
        std::string_view(data.data() + pos, trailer_at - pos), number);
    if (number > 1) {
      const Segment& first = ck.segments.front();
      if (seg.engine != first.engine ||
          seg.spec_fingerprint != first.spec_fingerprint ||
          seg.experiment_fingerprint != first.experiment_fingerprint ||
          seg.num_sessions != first.num_sessions ||
          seg.num_titles != first.num_titles ||
          seg.max_tracks != first.max_tracks) {
        throw CheckpointError(where +
                              ": header disagrees with segment 1 (engine, "
                              "fingerprints, or geometry)");
      }
    }
    for (const SessionState& ss : seg.sessions) {
      if (!seen.insert(ss.record.session_id).second) {
        throw CheckpointError(where + ": session " +
                              std::to_string(ss.record.session_id) +
                              " is journaled twice");
      }
    }
    journaled += seg.sessions.size();
    if (journaled != seg.sessions_done) {
      throw CheckpointError(where +
                            ": sessions_done disagrees with the sessions "
                            "journaled so far");
    }
    ck.segments.push_back(std::move(seg));
    pos = end;
  }
  ck.good_bytes = pos;
  return ck;
}

CheckpointJournal::CheckpointJournal(std::string path,
                                     std::size_t num_sessions)
    : path_(std::move(path)),
      journaled_(num_sessions, 0),
      blocks_(num_sessions) {}

void CheckpointJournal::resume_from(const FleetCheckpoint& ck) {
  for (const FleetCheckpoint::Segment& seg : ck.segments) {
    for (const FleetCheckpoint::SessionState& ss : seg.sessions) {
      journaled_[static_cast<std::size_t>(ss.record.session_id)] = 1;
    }
  }
  segments_ = ck.segments.size();
  committed_ = segments_;
  bytes_ = ck.good_bytes;
}

void CheckpointJournal::encode(const FleetSessionRecord& rec,
                               const obs::MemoryTraceSink* events,
                               const obs::MetricsRegistry* metrics) {
  std::string& block = blocks_[static_cast<std::size_t>(rec.session_id)];
  block.clear();
  put_session(block, rec, events != nullptr ? &events->events() : nullptr,
              metrics);
}

CheckpointJournal::PendingSegment CheckpointJournal::capture(
    const FleetCheckpoint::Segment& head,
    const std::vector<std::size_t>& done_sids,
    std::chrono::steady_clock::time_point started) {
  std::vector<std::size_t> fresh;
  for (const std::size_t sid : done_sids) {
    if (journaled_[sid] == 0) {
      fresh.push_back(sid);
    }
  }
  std::sort(fresh.begin(), fresh.end());

  PendingSegment seg;
  seg.number_ = segments_ + 1;
  seg.offset_ = bytes_;
  put_segment_head(seg.head_, head, seg.number_, fresh.size());
  std::uint64_t length = seg.head_.size() + kTrailerBytes;
  seg.blocks_.reserve(fresh.size());
  for (const std::size_t sid : fresh) {
    if (blocks_[sid].empty()) {
      throw std::logic_error("CheckpointJournal::capture: session " +
                             std::to_string(sid) +
                             " is done but was never encoded");
    }
    length += blocks_[sid].size();
    seg.blocks_.push_back(std::move(blocks_[sid]));
    journaled_[sid] = 1;
  }
  segments_ = seg.number_;
  bytes_ += length;
  ++stats_.checkpoint_segments;
  stats_.checkpoint_bytes += length;
  stats_.checkpoint_capture_s += std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     started)
                                     .count();
  return seg;
}

void CheckpointJournal::commit(PendingSegment seg) {
  if (seg.number_ != committed_ + 1) {
    throw std::logic_error("CheckpointJournal::commit: segment " +
                           std::to_string(seg.number_) +
                           " committed out of order");
  }
  if (broken_) {
    committed_ = seg.number_;
    return;  // an earlier commit failed and carries the run's error
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t h = obs::line_checksum(seg.head_);
  for (const std::string& block : seg.blocks_) {
    h = obs::line_checksum(block, h);
  }
  const std::string end = trailer(h);
  std::vector<std::string_view> pieces;
  pieces.reserve(seg.blocks_.size() + 2);
  pieces.emplace_back(seg.head_);
  pieces.insert(pieces.end(), seg.blocks_.begin(), seg.blocks_.end());
  pieces.emplace_back(end);
  try {
    if (seg.number_ == 1) {
      write_atomically(path_, pieces, "CheckpointJournal::commit");
    } else {
      append_after(path_, seg.offset_, pieces, "CheckpointJournal::commit");
    }
  } catch (...) {
    broken_ = true;
    committed_ = seg.number_;
    throw;
  }
  committed_ = seg.number_;
  stats_.checkpoint_commit_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

}  // namespace vbr::fleet
