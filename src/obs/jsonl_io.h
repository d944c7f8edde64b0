// Crash-safe JSONL: checksummed lines, torn-tail recovery, and the event
// parser that closes the serialization loop.
//
// A long-running trace can die mid-write (SIGKILL, power loss, disk full),
// leaving a torn final line — and a torn line silently corrupts every
// downstream consumer that trains on or replays the stream. The durable
// format appends a per-line checksum:
//
//     <canonical json>\t<8 lowercase hex chars of FNV-1a 32>\n
//
// The JSON payload never contains a raw TAB (append_json_string escapes
// control characters), so the last TAB on a line splits payload from
// checksum unambiguously. The recovery scanner classifies every line:
//   - valid        payload matches its checksum;
//   - torn tail    the final line is incomplete (no newline) or fails its
//                  checksum — the expected crash signature, safe to truncate;
//   - interior     a non-final line fails its checksum — NOT a crash
//     corruption  artifact but real damage; surfaced loudly (line numbers in
//                  the report) and never silently dropped.
//
// parse_jsonl() inverts to_jsonl() exactly: doubles are shortest-round-trip
// (std::to_chars), so parse(serialize(e)) reproduces e bit for bit. The
// fleet checkpoint relies on this to carry per-session telemetry across a
// crash.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"
#include "obs/trace_sink.h"

namespace vbr::obs {

/// FNV-1a 32-bit checksum of `payload` (the per-line integrity check).
[[nodiscard]] std::uint32_t line_checksum(std::string_view payload);

/// Continues a checksum over more bytes: line_checksum(b, line_checksum(a))
/// == line_checksum(a + b), so a payload held in pieces needs no copy.
[[nodiscard]] std::uint32_t line_checksum(std::string_view more,
                                          std::uint32_t prior);

/// `payload` + TAB + 8 lowercase hex checksum chars (no trailing newline).
[[nodiscard]] std::string checksummed_line(std::string_view payload);

/// Appends the checksummed line of `event` with its seq replaced by `seq`,
/// plus '\n': checksummed_line(append_jsonl(...)) without the copies.
void append_checksummed_jsonl(std::string& out, const DecisionEvent& event,
                              std::uint64_t seq);

/// Splits a checksummed line and verifies it. Returns true and sets
/// `payload` on success; false on a missing separator, malformed checksum
/// field, or mismatch.
[[nodiscard]] bool verify_checksummed_line(std::string_view line,
                                           std::string_view& payload);

/// Parses one canonical to_jsonl() line back into a DecisionEvent.
/// Throws std::invalid_argument naming the offending field on any deviation
/// from the canonical form. Round-trip exact: for every event e,
/// parse_jsonl(to_jsonl(e)) serializes back to the same bytes.
[[nodiscard]] DecisionEvent parse_jsonl(std::string_view line);

/// What the recovery scanner found in one checksummed JSONL file.
struct JsonlScanReport {
  std::uint64_t total_lines = 0;  ///< Lines seen, torn tail included.
  std::uint64_t valid_lines = 0;  ///< Lines whose checksum verified.
  /// The file ends in a torn line: unterminated, or terminated but failing
  /// its checksum. Crash signature — recover_jsonl() truncates it.
  bool torn_tail = false;
  /// 1-based numbers of non-final lines that failed their checksum. Real
  /// corruption, not a crash artifact: surfaced, never auto-dropped.
  std::vector<std::uint64_t> corrupt_interior_lines;
  /// Byte length of the valid prefix (everything before the torn tail).
  std::uint64_t keep_bytes = 0;

  [[nodiscard]] bool clean() const {
    return !torn_tail && corrupt_interior_lines.empty();
  }
};

/// Scans a checksummed JSONL file without modifying it. Throws
/// std::system_error (carrying errno) when the file cannot be opened.
[[nodiscard]] JsonlScanReport scan_checksummed_jsonl(const std::string& path);

/// Scans and, if the file ends in a torn tail, truncates it to the valid
/// prefix. Interior corruption is returned in the report but never removed
/// — deciding what to do with damaged history is the caller's call. Throws
/// std::system_error on open/truncate failure.
JsonlScanReport recover_checksummed_jsonl(const std::string& path);

/// JSONL sink with per-line checksums and real durability: every line is
/// written via POSIX I/O, and flush() pushes it through the page cache with
/// fsync. Open, write, and sync failures all throw std::system_error
/// carrying errno (ENOSPC from a full disk surfaces at the failing write,
/// not as a silently empty trace).
class DurableJsonlTraceSink final : public TraceSink {
 public:
  /// Opens (truncates) `path`. Throws std::system_error on failure.
  explicit DurableJsonlTraceSink(const std::string& path);
  ~DurableJsonlTraceSink() override;

  DurableJsonlTraceSink(const DurableJsonlTraceSink&) = delete;
  DurableJsonlTraceSink& operator=(const DurableJsonlTraceSink&) = delete;

  void on_decision(const DecisionEvent& event) override;
  void flush() override;  ///< Drains the buffer and fsyncs.
  /// The append_checksummed_jsonl line.
  bool encode(const DecisionEvent& event, std::uint64_t seq,
              std::string& out) const override;
  /// Buffers short writes; a write of at least the buffer size goes to the
  /// file at once, after whatever is buffered.
  void write_encoded(std::string_view bytes, std::uint64_t events) override;

  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  void write_all(const char* data, std::size_t len);
  void drain();

  int fd_ = -1;
  std::string path_;
  std::string buffer_;  ///< Batches lines between flushes.
  std::string line_;    ///< on_decision's encode buffer, reused.
  std::uint64_t lines_ = 0;
};

}  // namespace vbr::obs
