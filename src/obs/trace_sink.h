// TraceSink: where DecisionEvents go.
//
// The session loops accept a nullable TraceSink*; a null pointer is the
// "null sink" and costs one predictable branch per chunk — nothing is
// allocated, formatted, or copied (enforced by the overhead regression
// test). Three concrete sinks:
//
//   - MemoryTraceSink:  in-memory ring (bounded or unbounded) for tests and
//                       programmatic analysis;
//   - JsonlTraceSink:   one canonical JSON object per line, to a file or a
//                       caller-owned stream. Serialization is deterministic
//                       (std::to_chars shortest round-trip doubles, fixed
//                       field order), so same-seed runs diff byte-for-byte;
//   - NullTraceSink:    a discarding object, for call sites that need a
//                       non-null sink.
//
// Sinks are NOT thread-safe by design: each concurrent session owns its own
// sink and the harness merges afterwards in a stable order (obs::fold_traces
// in obs/fold.h). A byte sink also exposes its encoder (encode, const and
// safe to call concurrently) and a raw writer (write_encoded), so the fold
// can encode sessions on several threads and write their bytes in order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"

namespace vbr::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_decision(const DecisionEvent& event) = 0;
  virtual void flush() {}

  /// Appends to `out` exactly the bytes on_decision would write for `event`
  /// with its seq replaced by `seq`, and returns true. Const and safe to
  /// call from several threads at once. The default appends nothing and
  /// returns false: the sink keeps events, so it is fed through
  /// on_decision.
  virtual bool encode(const DecisionEvent& event, std::uint64_t seq,
                      std::string& out) const;
  /// Writes `bytes` produced by encode(), holding `events` events. Only
  /// called on a sink whose encode() returns true; the default throws
  /// std::logic_error.
  virtual void write_encoded(std::string_view bytes, std::uint64_t events);
};

/// Discards everything (explicit-object variant of the null sink).
class NullTraceSink final : public TraceSink {
 public:
  void on_decision(const DecisionEvent& event) override { (void)event; }
};

/// Keeps the last `capacity` events in memory (0 = unbounded).
class MemoryTraceSink final : public TraceSink {
 public:
  explicit MemoryTraceSink(std::size_t capacity = 0) : capacity_(capacity) {}

  void on_decision(const DecisionEvent& event) override;

  [[nodiscard]] const std::deque<DecisionEvent>& events() const {
    return events_;
  }
  /// Total events ever received (>= events().size() once the ring wraps).
  [[nodiscard]] std::uint64_t total_received() const { return received_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  std::size_t capacity_;
  std::uint64_t received_ = 0;
  std::deque<DecisionEvent> events_;
};

/// Appends `event` as a canonical single-line JSON object, with its seq
/// replaced by `seq` (no trailing newline). Field order is fixed; doubles
/// use std::to_chars shortest round-trip form, so equal event streams
/// serialize byte-identically.
void append_jsonl(std::string& out, const DecisionEvent& event,
                  std::uint64_t seq);

/// append_jsonl of `event` (its own seq) into a fresh string.
[[nodiscard]] std::string to_jsonl(const DecisionEvent& event);

/// Writes each event as one JSONL line.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Opens (truncates) `path`. Throws std::system_error carrying errno when
  /// the file cannot be opened, so callers can surface the OS reason.
  explicit JsonlTraceSink(const std::string& path);
  /// Writes to a caller-owned stream (kept borrowed; must outlive the sink).
  explicit JsonlTraceSink(std::ostream& out) : out_(&out) {}

  void on_decision(const DecisionEvent& event) override;
  void flush() override;
  /// The append_jsonl line plus '\n'.
  bool encode(const DecisionEvent& event, std::uint64_t seq,
              std::string& out) const override;
  void write_encoded(std::string_view bytes, std::uint64_t events) override;

  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  std::ofstream owned_;
  std::ostream* out_ = nullptr;
  std::uint64_t lines_ = 0;
  std::string line_;  ///< on_decision's encode buffer, reused.
};

}  // namespace vbr::obs
