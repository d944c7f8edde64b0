#include "obs/trace_sink.h"

#include <cerrno>
#include <stdexcept>
#include <system_error>

#include "obs/json_util.h"

namespace vbr::obs {

bool TraceSink::encode(const DecisionEvent&, std::uint64_t,
                       std::string&) const {
  return false;
}

void TraceSink::write_encoded(std::string_view, std::uint64_t) {
  throw std::logic_error(
      "TraceSink::write_encoded: this sink does not encode");
}

void MemoryTraceSink::on_decision(const DecisionEvent& event) {
  ++received_;
  events_.push_back(event);
  if (capacity_ > 0 && events_.size() > capacity_) {
    events_.pop_front();
  }
}

void MemoryTraceSink::clear() {
  events_.clear();
  received_ = 0;
}

void append_jsonl(std::string& s, const DecisionEvent& e, std::uint64_t seq) {
  using detail::append_double;
  using detail::append_json_string;
  using detail::append_uint;

  s += "{\"session\":";
  append_uint(s, e.session_id);
  s += ",\"seq\":";
  append_uint(s, seq);
  s += ",\"chunk\":";
  append_uint(s, e.chunk_index);
  s += ",\"t_decide\":";
  append_double(s, e.decision_now_s);
  s += ",\"t\":";
  append_double(s, e.sim_now_s);
  s += ",\"scheme\":";
  append_json_string(s, e.scheme);
  s += ",\"size_mode\":";
  append_json_string(s, e.size_mode);
  s += ",\"track\":";
  append_uint(s, e.track);
  s += ",\"in_startup\":";
  s += e.in_startup ? "true" : "false";
  s += ",\"buffer_s\":";
  append_double(s, e.buffer_before_s);
  s += ",\"buffer_after_s\":";
  append_double(s, e.buffer_after_s);
  s += ",\"est_bw_bps\":";
  append_double(s, e.est_bandwidth_bps);
  s += ",\"size_bits\":";
  append_double(s, e.size_bits);
  s += ",\"wait_s\":";
  append_double(s, e.wait_s);
  s += ",\"download_s\":";
  append_double(s, e.download_s);
  s += ",\"stall_s\":";
  append_double(s, e.stall_s);
  s += ",\"cum_rebuffer_s\":";
  append_double(s, e.cum_rebuffer_s);
  s += ",\"attempts\":";
  append_uint(s, e.attempts);
  s += ",\"connect_failures\":";
  append_uint(s, e.connect_failures);
  s += ",\"mid_drops\":";
  append_uint(s, e.mid_drops);
  s += ",\"timeouts\":";
  append_uint(s, e.timeouts);
  s += ",\"backoff_s\":";
  append_double(s, e.backoff_wait_s);
  s += ",\"resumed_bits\":";
  append_double(s, e.resumed_bits);
  s += ",\"wasted_bits\":";
  append_double(s, e.wasted_bits);
  s += ",\"downgraded\":";
  s += e.downgraded ? "true" : "false";
  s += ",\"skipped\":";
  s += e.skipped ? "true" : "false";
  s += ",\"abandoned\":";
  s += e.abandoned_higher ? "true" : "false";
  if (e.controller.has_value()) {
    const ControllerInternals& c = *e.controller;
    s += ",\"cava\":{\"target_s\":";
    append_double(s, c.target_buffer_s);
    s += ",\"u\":";
    append_double(s, c.u);
    s += ",\"error_s\":";
    append_double(s, c.error_s);
    s += ",\"integral\":";
    append_double(s, c.integral);
    s += ",\"alpha\":";
    append_double(s, c.alpha);
    s += ",\"class\":";
    append_uint(s, c.complexity_class);
    s += ",\"complex\":";
    s += c.complex_chunk ? "true" : "false";
    s += "}";
  }
  if (e.edge.has_value()) {
    const DecisionEvent::EdgeInfo& g = *e.edge;
    s += ",\"edge\":{\"arrival_s\":";
    append_double(s, g.arrival_s);
    s += ",\"title\":";
    append_uint(s, g.title);
    s += ",\"hit\":";
    s += g.edge_hit ? "true" : "false";
    s += ",\"latency_s\":";
    append_double(s, g.edge_latency_s);
    if (g.tier != 0 || g.coalesced || g.shed) {
      // CDN-tier outcome: emitted only when non-default so flat edge-cache
      // streams serialize byte-identically to their pre-CDN form.
      s += ",\"tier\":";
      append_uint(s, g.tier);
      s += ",\"coalesced\":";
      s += g.coalesced ? "true" : "false";
      s += ",\"shed\":";
      s += g.shed ? "true" : "false";
    }
    s += "}";
  }
  if (e.arm.has_value()) {
    s += ",\"arm\":";
    append_uint(s, *e.arm);
  }
  if (e.policy.has_value()) {
    // Learned-policy provenance: emitted only when present so pre-learn
    // streams keep their bytes (same contract as "arm" and "cava").
    s += ",\"policy\":{\"id\":";
    append_json_string(s, e.policy->id);
    s += ",\"ver\":";
    append_uint(s, e.policy->version);
    s += "}";
  }
  s += "}";
}

std::string to_jsonl(const DecisionEvent& event) {
  std::string s;
  s.reserve(768);
  append_jsonl(s, event, event.seq);
  return s;
}

JsonlTraceSink::JsonlTraceSink(const std::string& path) {
  errno = 0;
  owned_.open(path, std::ios::out | std::ios::trunc);
  if (!owned_) {
    // Surface the OS reason (ENOENT, EACCES, EISDIR, ...) to the caller —
    // a telemetry run that silently logs nothing is worse than no run.
    throw std::system_error(errno != 0 ? errno : EIO,
                            std::generic_category(),
                            "JsonlTraceSink: cannot open '" + path + "'");
  }
  out_ = &owned_;
}

void JsonlTraceSink::on_decision(const DecisionEvent& event) {
  line_.clear();
  encode(event, event.seq, line_);
  write_encoded(line_, 1);
}

bool JsonlTraceSink::encode(const DecisionEvent& event, std::uint64_t seq,
                            std::string& out) const {
  append_jsonl(out, event, seq);
  out += '\n';
  return true;
}

void JsonlTraceSink::write_encoded(std::string_view bytes,
                                   std::uint64_t events) {
  out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  lines_ += events;
}

void JsonlTraceSink::flush() { out_->flush(); }

}  // namespace vbr::obs
