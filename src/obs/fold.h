// Event-order-invariant fold buffer.
//
// The fleet's aggregation discipline is "fold in session-id order, never
// worker order" — that is what makes every output byte invariant to the
// thread schedule. The per-session stepper gets this for free by folding
// after the workers join; the shared-virtual-time event engine completes
// sessions in virtual-time order instead, so its streaming-aggregation
// mode routes completions through an OrderedDrain: items are put() under
// their session id in any completion order, and pop() releases them in
// strict ascending id order. The fold downstream of the drain therefore
// sees exactly the order the materializing path would have used.
//
// fold_traces is the telemetry half of that discipline: it writes the
// per-session event streams to one destination sink in session order, with
// one monotone global seq.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/trace_sink.h"

namespace vbr::obs {

/// Writes the events of `sinks` to `dest` in index order (null entries
/// hold no events), renumbering seq from `first_seq`, and resets each sink
/// once its events are out. Returns the seq after the last event.
///
/// A sink that encodes (TraceSink::encode) gets bytes: session i's first
/// seq is first_seq plus the events of sessions below i, so every session
/// is encoded on its own — by min(threads, batches) encoder threads when
/// threads > 1, each claiming contiguous batches of sessions (a few hundred
/// KiB of output; at most 2 * threads batches in flight) — while the
/// calling thread writes the finished batches strictly in order through
/// write_encoded. The bytes are the same at any thread count. With one
/// thread the same loop runs inline. A sink that does not encode gets each
/// event, renumbered, through on_decision. Encoder threads are joined
/// before any exception leaves.
std::uint64_t fold_traces(std::span<std::unique_ptr<MemoryTraceSink>> sinks,
                          TraceSink& dest, unsigned threads,
                          std::uint64_t first_seq = 0);

/// Reorder buffer keyed by a dense ascending sequence (e.g. session id).
/// put() accepts keys in any order; pop() yields items in strict key
/// order, returning std::nullopt while the next key has not arrived.
/// Memory is bounded by the completion skew (peak_pending()), not the
/// total item count — the property the 100k-session smoke test pins.
template <typename T>
class OrderedDrain {
 public:
  /// `first` is the first key pop() will release (default 0).
  explicit OrderedDrain(std::uint64_t first = 0) : next_(first) {}

  /// Buffers `item` under `seq`. Keys below next() or already buffered are
  /// a caller bug (each session completes exactly once).
  void put(std::uint64_t seq, T item) {
    if (seq < next_ || !buf_.emplace(seq, std::move(item)).second) {
      throw std::logic_error("OrderedDrain: duplicate or out-of-window key");
    }
    peak_ = std::max(peak_, buf_.size());
  }

  /// Moves out the item keyed next(), if it has arrived, and advances.
  [[nodiscard]] std::optional<T> pop() {
    const auto it = buf_.find(next_);
    if (it == buf_.end()) {
      return std::nullopt;
    }
    T out = std::move(it->second);
    buf_.erase(it);
    ++next_;
    return out;
  }

  /// Next key pop() will release.
  [[nodiscard]] std::uint64_t next() const { return next_; }
  /// Items buffered right now (waiting on a lower key).
  [[nodiscard]] std::size_t pending() const { return buf_.size(); }
  /// High-water mark of pending() over the drain's lifetime.
  [[nodiscard]] std::size_t peak_pending() const { return peak_; }

 private:
  std::uint64_t next_;
  std::map<std::uint64_t, T> buf_;
  std::size_t peak_ = 0;
};

}  // namespace vbr::obs
