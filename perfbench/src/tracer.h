// Span recorder for the ledger's traced run.
//
// Every timed boundary opens a ScopedSpan on the calling thread. Closing a
// span adds its duration to the per-kind totals and subtracts it from the
// enclosing span's self time, so self times are exact even when spans are
// not kept. Spans of sampled sessions are also kept in memory (name, start,
// end, parent, session) and written as one JSON file when the run ends.
//
// The recorder is only consulted by the timing decorators, which are only
// installed on traced legs: untraced legs never touch it.
//
// Threading: each thread owns its own frame stack, totals and span buffer.
// collect() and reset() read or clear every thread's state and must only
// be called after the threads that recorded have been joined (run_fleet
// joins its workers before returning).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kMakeScheme,       ///< abr: SchemeFactory call.
  kDecide,           ///< abr: AbrScheme::decide.
  kSchemeUpdate,     ///< abr: AbrScheme::on_chunk_downloaded.
  kMakeEstimator,    ///< net: EstimatorFactory call.
  kEstimate,         ///< net: BandwidthEstimator::estimate_bps.
  kEstimatorUpdate,  ///< net: BandwidthEstimator::on_chunk_downloaded.
  kDelivery,         ///< fleet: DownloadPathHook request/delivered.
  kSink,             ///< obs: TraceSink::on_decision / flush.
  kStep,             ///< sim: SessionStepper::step (replay only).
  kAnalyzeAb,        ///< exp: analyze_ab.
};
inline constexpr std::size_t kSpanKinds = 10;

/// Scheme families told apart in the decide totals.
enum class SchemeTag : std::uint8_t { kCava, kRobustMpc, kBola, kOther };
inline constexpr std::size_t kSchemeTags = 4;

[[nodiscard]] const char* span_name(SpanKind kind);
[[nodiscard]] const char* scheme_tag_name(SchemeTag tag);

/// Monotonic clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

struct KindTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  ///< Sum of span durations.
  std::int64_t self_ns = 0;   ///< Durations minus nested child spans.
};

/// From the start of a thread's first top-level span to the end of its last.
struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct Totals {
  std::array<KindTotals, kSpanKinds> kinds{};
  std::array<KindTotals, kSchemeTags> decide_by_tag{};
  /// Sum of durations of spans opened with no enclosing span: the time
  /// attributed to children of the leg's root.
  std::int64_t top_level_ns = 0;
  /// One interval per thread that opened a top-level span (collect() only).
  std::vector<Interval> top_level_by_thread;

  [[nodiscard]] const KindTotals& at(SpanKind k) const {
    return kinds[static_cast<std::size_t>(k)];
  }
};

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< Enclosing span, or the leg root.
  std::uint64_t session = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::kDecide;
  SchemeTag tag = SchemeTag::kOther;
};

/// Leg control. Spans opened with no enclosing span name `root_id` as
/// their parent. Spans are kept only when `keep` is set and their session
/// is a multiple of `session_stride` (sessions are numbered by the
/// estimator decorator; spans outside a session use session 0).
void begin_leg(std::uint64_t root_id, bool keep, std::uint64_t session_stride);

/// Clears every thread's totals and kept spans.
void reset();

/// Sums every thread's totals.
[[nodiscard]] Totals collect();

/// Kept spans of every thread, ordered by start time.
[[nodiscard]] std::vector<SpanRecord> kept_spans();

/// Fresh span/session id (process-wide, never 0).
[[nodiscard]] std::uint64_t next_id();

/// Session that spans opened on this thread belong to.
void set_current_session(std::uint64_t session);

/// Times one call into a layer. Not copyable; lives on the stack.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, SchemeTag tag = SchemeTag::kOther);
  /// Span on behalf of an explicit session (0 = outside any session).
  ScopedSpan(SpanKind kind, std::uint64_t session);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

}  // namespace perfbench
