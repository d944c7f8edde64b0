#include "obs/jsonl_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "obs/json_util.h"

namespace vbr::obs {

std::uint32_t line_checksum(std::string_view payload) {
  // FNV-1a 32: tiny, table-free, and plenty for torn-line detection (this
  // is an integrity check against truncation and bit rot, not an adversary).
  return line_checksum(payload, 0x811c9dc5u);
}

std::uint32_t line_checksum(std::string_view more, std::uint32_t prior) {
  std::uint32_t h = prior;
  for (const char c : more) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x01000193u;
  }
  return h;
}

namespace {

constexpr char kSep = '\t';
/// The durable sink writes once this many bytes are buffered.
constexpr std::size_t kBufferBytes = std::size_t{1} << 16;

void append_hex8(std::string& out, std::uint32_t v) {
  static const char* digits = "0123456789abcdef";
  for (int shift = 28; shift >= 0; shift -= 4) {
    out += digits[(v >> shift) & 0xFu];
  }
}

}  // namespace

std::string checksummed_line(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 10);
  out.append(payload);
  out += kSep;
  append_hex8(out, line_checksum(payload));
  return out;
}

void append_checksummed_jsonl(std::string& out, const DecisionEvent& event,
                              std::uint64_t seq) {
  const std::size_t start = out.size();
  append_jsonl(out, event, seq);
  const std::uint32_t sum =
      line_checksum(std::string_view(out).substr(start));
  out += kSep;
  append_hex8(out, sum);
  out += '\n';
}

bool verify_checksummed_line(std::string_view line,
                             std::string_view& payload) {
  const std::size_t sep = line.rfind(kSep);
  if (sep == std::string_view::npos || line.size() - sep - 1 != 8) {
    return false;
  }
  std::uint32_t stored = 0;
  for (std::size_t i = sep + 1; i < line.size(); ++i) {
    const char c = line[i];
    std::uint32_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    stored = (stored << 4) | nibble;
  }
  const std::string_view body = line.substr(0, sep);
  if (line_checksum(body) != stored) {
    return false;
  }
  payload = body;
  return true;
}

// ---------------------------------------------------------------------------
// Canonical JSONL parsing (exact inverse of to_jsonl).

namespace {

/// Strict sequential reader over one canonical event line. to_jsonl writes
/// a fixed field order, so the parser expects literal key text and never
/// needs a generic JSON tokenizer — any deviation throws with the position.
class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}

  void expect(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) {
      fail(std::string("expected '") + std::string(lit) + "'");
    }
    pos_ += lit.size();
  }

  [[nodiscard]] bool try_consume(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) == 0) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  [[nodiscard]] std::uint64_t read_uint() {
    std::uint64_t v = 0;
    const char* begin = s_.data() + pos_;
    const char* end = s_.data() + s_.size();
    const std::from_chars_result r = std::from_chars(begin, end, v);
    if (r.ec != std::errc()) {
      fail("expected unsigned integer");
    }
    pos_ += static_cast<std::size_t>(r.ptr - begin);
    return v;
  }

  [[nodiscard]] double read_double() {
    double v = 0.0;
    const char* begin = s_.data() + pos_;
    const char* end = s_.data() + s_.size();
    const std::from_chars_result r = std::from_chars(begin, end, v);
    if (r.ec != std::errc()) {
      fail("expected number");
    }
    pos_ += static_cast<std::size_t>(r.ptr - begin);
    return v;
  }

  [[nodiscard]] bool read_bool() {
    if (try_consume("true")) {
      return true;
    }
    if (try_consume("false")) {
      return false;
    }
    fail("expected boolean");
  }

  [[nodiscard]] std::string read_string() {
    expect("\"");
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
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a') + 10;
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A') + 10;
            } else {
              fail("bad \\u escape digit");
            }
          }
          // The serializer only \u-escapes control bytes < 0x20.
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("unknown string escape");
      }
    }
    fail("unterminated string");
  }

  [[nodiscard]] bool at_end() const { return pos_ == s_.size(); }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("parse_jsonl: " + what + " at byte " +
                                std::to_string(pos_));
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

DecisionEvent parse_jsonl(std::string_view line) {
  Cursor c(line);
  DecisionEvent e;
  c.expect("{\"session\":");
  e.session_id = c.read_uint();
  c.expect(",\"seq\":");
  e.seq = c.read_uint();
  c.expect(",\"chunk\":");
  e.chunk_index = static_cast<std::size_t>(c.read_uint());
  c.expect(",\"t_decide\":");
  e.decision_now_s = c.read_double();
  c.expect(",\"t\":");
  e.sim_now_s = c.read_double();
  c.expect(",\"scheme\":");
  e.scheme = c.read_string();
  c.expect(",\"size_mode\":");
  e.size_mode = c.read_string();
  c.expect(",\"track\":");
  e.track = static_cast<std::size_t>(c.read_uint());
  c.expect(",\"in_startup\":");
  e.in_startup = c.read_bool();
  c.expect(",\"buffer_s\":");
  e.buffer_before_s = c.read_double();
  c.expect(",\"buffer_after_s\":");
  e.buffer_after_s = c.read_double();
  c.expect(",\"est_bw_bps\":");
  e.est_bandwidth_bps = c.read_double();
  c.expect(",\"size_bits\":");
  e.size_bits = c.read_double();
  c.expect(",\"wait_s\":");
  e.wait_s = c.read_double();
  c.expect(",\"download_s\":");
  e.download_s = c.read_double();
  c.expect(",\"stall_s\":");
  e.stall_s = c.read_double();
  c.expect(",\"cum_rebuffer_s\":");
  e.cum_rebuffer_s = c.read_double();
  c.expect(",\"attempts\":");
  e.attempts = static_cast<std::size_t>(c.read_uint());
  c.expect(",\"connect_failures\":");
  e.connect_failures = static_cast<std::size_t>(c.read_uint());
  c.expect(",\"mid_drops\":");
  e.mid_drops = static_cast<std::size_t>(c.read_uint());
  c.expect(",\"timeouts\":");
  e.timeouts = static_cast<std::size_t>(c.read_uint());
  c.expect(",\"backoff_s\":");
  e.backoff_wait_s = c.read_double();
  c.expect(",\"resumed_bits\":");
  e.resumed_bits = c.read_double();
  c.expect(",\"wasted_bits\":");
  e.wasted_bits = c.read_double();
  c.expect(",\"downgraded\":");
  e.downgraded = c.read_bool();
  c.expect(",\"skipped\":");
  e.skipped = c.read_bool();
  c.expect(",\"abandoned\":");
  e.abandoned_higher = c.read_bool();
  if (c.try_consume(",\"cava\":{\"target_s\":")) {
    ControllerInternals ci;
    ci.target_buffer_s = c.read_double();
    c.expect(",\"u\":");
    ci.u = c.read_double();
    c.expect(",\"error_s\":");
    ci.error_s = c.read_double();
    c.expect(",\"integral\":");
    ci.integral = c.read_double();
    c.expect(",\"alpha\":");
    ci.alpha = c.read_double();
    c.expect(",\"class\":");
    ci.complexity_class = static_cast<std::size_t>(c.read_uint());
    c.expect(",\"complex\":");
    ci.complex_chunk = c.read_bool();
    c.expect("}");
    e.controller = ci;
  }
  if (c.try_consume(",\"edge\":{\"arrival_s\":")) {
    DecisionEvent::EdgeInfo g;
    g.arrival_s = c.read_double();
    c.expect(",\"title\":");
    g.title = c.read_uint();
    c.expect(",\"hit\":");
    g.edge_hit = c.read_bool();
    c.expect(",\"latency_s\":");
    g.edge_latency_s = c.read_double();
    if (c.try_consume(",\"tier\":")) {
      g.tier = static_cast<std::uint32_t>(c.read_uint());
      c.expect(",\"coalesced\":");
      g.coalesced = c.read_bool();
      c.expect(",\"shed\":");
      g.shed = c.read_bool();
    }
    c.expect("}");
    e.edge = g;
  }
  if (c.try_consume(",\"arm\":")) {
    e.arm = static_cast<std::uint32_t>(c.read_uint());
  }
  if (c.try_consume(",\"policy\":{\"id\":")) {
    DecisionEvent::PolicyInfo p;
    p.id = c.read_string();
    c.expect(",\"ver\":");
    p.version = static_cast<std::uint32_t>(c.read_uint());
    c.expect("}");
    e.policy = p;
  }
  c.expect("}");
  if (!c.at_end()) {
    c.fail("trailing bytes after event object");
  }
  return e;
}

// ---------------------------------------------------------------------------
// Recovery scanner.

namespace {

JsonlScanReport scan_stream(std::istream& in) {
  JsonlScanReport report;
  std::string line;
  std::uint64_t offset = 0;
  while (std::getline(in, line)) {
    // getline strips the '\n'; eof() with a non-empty line means the final
    // line had no terminator — the torn-write signature.
    const bool terminated = !in.eof();
    ++report.total_lines;
    std::string_view payload;
    const bool ok = verify_checksummed_line(line, payload);
    const std::uint64_t line_bytes =
        static_cast<std::uint64_t>(line.size()) + (terminated ? 1 : 0);
    if (ok && terminated) {
      ++report.valid_lines;
      offset += line_bytes;
      report.keep_bytes = offset;
    } else if (!terminated || (!ok && in.peek() == std::char_traits<char>::eof())) {
      // Unterminated, or a checksum-failing very last line.
      report.torn_tail = true;
      break;
    } else {
      // A checksum failure with more data behind it: interior damage.
      report.corrupt_interior_lines.push_back(report.total_lines);
      offset += line_bytes;
    }
  }
  return report;
}

}  // namespace

JsonlScanReport scan_checksummed_jsonl(const std::string& path) {
  errno = 0;
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) {
    throw std::system_error(errno != 0 ? errno : EIO, std::generic_category(),
                            "scan_checksummed_jsonl: cannot open '" + path +
                                "'");
  }
  return scan_stream(in);
}

JsonlScanReport recover_checksummed_jsonl(const std::string& path) {
  const JsonlScanReport report = scan_checksummed_jsonl(path);
  if (!report.torn_tail) {
    return report;
  }
  // Interior damage stays in place: keep_bytes only ever trims the torn
  // tail, so no interior line — valid or corrupt — is silently dropped.
  std::uint64_t keep = report.keep_bytes;
  if (!report.corrupt_interior_lines.empty()) {
    // keep_bytes stops at the last *valid* line; extend it to cover the
    // interior region by rescanning byte offsets is unnecessary — interior
    // corrupt lines were already counted into the offset during the scan,
    // so keep_bytes includes them. (See scan_stream: corrupt interior lines
    // advance the kept offset.)
    keep = report.keep_bytes;
  }
  errno = 0;
  if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "recover_checksummed_jsonl: cannot truncate '" +
                                path + "'");
  }
  return report;
}

// ---------------------------------------------------------------------------
// Durable sink.

DurableJsonlTraceSink::DurableJsonlTraceSink(const std::string& path)
    : path_(path) {
  errno = 0;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw std::system_error(errno != 0 ? errno : EIO, std::generic_category(),
                            "DurableJsonlTraceSink: cannot open '" + path +
                                "'");
  }
  buffer_.reserve(kBufferBytes);
}

DurableJsonlTraceSink::~DurableJsonlTraceSink() {
  // Destructors must not throw; best-effort drain. Callers that care about
  // the ENOSPC/EIO verdict call flush() explicitly first.
  if (fd_ >= 0) {
    if (!buffer_.empty()) {
      (void)::write(fd_, buffer_.data(), buffer_.size());
    }
    (void)::close(fd_);
  }
}

void DurableJsonlTraceSink::write_all(const char* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd_, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::system_error(errno, std::generic_category(),
                              "DurableJsonlTraceSink: write failed on '" +
                                  path_ + "'");
    }
    done += static_cast<std::size_t>(n);
  }
}

void DurableJsonlTraceSink::drain() {
  if (!buffer_.empty()) {
    write_all(buffer_.data(), buffer_.size());
    buffer_.clear();
  }
}

void DurableJsonlTraceSink::on_decision(const DecisionEvent& event) {
  line_.clear();
  encode(event, event.seq, line_);
  write_encoded(line_, 1);
}

bool DurableJsonlTraceSink::encode(const DecisionEvent& event,
                                   std::uint64_t seq,
                                   std::string& out) const {
  append_checksummed_jsonl(out, event, seq);
  return true;
}

void DurableJsonlTraceSink::write_encoded(std::string_view bytes,
                                          std::uint64_t events) {
  lines_ += events;
  if (bytes.size() >= kBufferBytes) {
    drain();
    write_all(bytes.data(), bytes.size());
    return;
  }
  buffer_.append(bytes);
  if (buffer_.size() >= kBufferBytes) {
    drain();
  }
}

void DurableJsonlTraceSink::flush() {
  drain();
  if (::fsync(fd_) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "DurableJsonlTraceSink: fsync failed on '" +
                                path_ + "'");
  }
}

}  // namespace vbr::obs
