#include "obs/fold.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vbr::obs {

namespace {

/// Events per batch: ≈340 KiB of JSONL at ≈670 bytes a line.
constexpr std::uint64_t kBatchEvents = 512;

/// A contiguous run of sessions [begin, end) whose first event takes `seq`.
struct Batch {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t seq = 0;
  std::uint64_t events = 0;
};

/// Encodes the batch's events into `out` (cleared first) and frees each
/// session's sink as soon as it is encoded.
void encode_batch(const Batch& b,
                  std::span<std::unique_ptr<MemoryTraceSink>> sinks,
                  const TraceSink& dest, std::string& out) {
  out.clear();
  std::uint64_t seq = b.seq;
  for (std::size_t i = b.begin; i < b.end; ++i) {
    if (!sinks[i]) {
      continue;
    }
    for (const DecisionEvent& ev : sinks[i]->events()) {
      if (!dest.encode(ev, seq++, out)) {
        throw std::logic_error(
            "fold_traces: the destination stopped encoding mid-stream");
      }
    }
    sinks[i].reset();
  }
}

/// Encoder threads filling a window of 2 * workers batch buffers, drained
/// in batch order by the thread that calls write_all.
class ParallelFold {
 public:
  ParallelFold(const std::vector<Batch>& batches,
               std::span<std::unique_ptr<MemoryTraceSink>> sinks,
               TraceSink& dest, std::size_t workers)
      : batches_(batches),
        sinks_(sinks),
        dest_(dest),
        window_(2 * workers),
        slots_(window_),
        ready_(window_, 0) {
    threads_.reserve(workers);
    try {
      for (std::size_t w = 0; w < workers; ++w) {
        threads_.emplace_back([this] { encode_loop(); });
      }
    } catch (...) {
      stop_and_join();
      throw;
    }
  }

  ParallelFold(const ParallelFold&) = delete;
  ParallelFold& operator=(const ParallelFold&) = delete;
  ~ParallelFold() { stop_and_join(); }

  /// Writes every batch in order; rethrows an encoder's failure.
  void write_all() {
    for (std::size_t b = 0; b < batches_.size(); ++b) {
      const std::size_t slot = b % window_;
      {
        std::unique_lock<std::mutex> lk(mu_);
        ready_cv_.wait(lk, [&] { return stop_ || ready_[slot] != 0; });
        if (stop_) {
          break;
        }
      }
      dest_.write_encoded(slots_[slot], batches_[b].events);
      {
        std::lock_guard<std::mutex> g(mu_);
        ready_[slot] = 0;
        ++written_;
      }
      free_cv_.notify_all();
    }
    stop_and_join();
    if (error_) {
      std::rethrow_exception(error_);
    }
  }

 private:
  void encode_loop() {
    while (true) {
      std::size_t b = 0;
      {
        std::unique_lock<std::mutex> lk(mu_);
        // Batch b reuses the buffer of batch b - window, so it waits until
        // that one is written.
        free_cv_.wait(lk, [&] {
          return stop_ || next_ >= batches_.size() ||
                 next_ < written_ + window_;
        });
        if (stop_ || next_ >= batches_.size()) {
          return;
        }
        b = next_++;
      }
      const std::size_t slot = b % window_;
      try {
        encode_batch(batches_[b], sinks_, dest_, slots_[slot]);
      } catch (...) {
        {
          std::lock_guard<std::mutex> g(mu_);
          if (!error_) {
            error_ = std::current_exception();
          }
          stop_ = true;
        }
        ready_cv_.notify_all();
        free_cv_.notify_all();
        return;
      }
      {
        std::lock_guard<std::mutex> g(mu_);
        ready_[slot] = 1;
      }
      ready_cv_.notify_all();
    }
  }

  void stop_and_join() {
    {
      std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    free_cv_.notify_all();
    for (std::thread& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
  }

  const std::vector<Batch>& batches_;
  std::span<std::unique_ptr<MemoryTraceSink>> sinks_;
  TraceSink& dest_;
  const std::size_t window_;
  std::vector<std::string> slots_;  ///< Batch b encodes into b % window_.
  std::vector<char> ready_;         ///< Slot holds an unwritten batch.
  std::mutex mu_;
  std::condition_variable ready_cv_;  ///< Writer waits for a batch.
  std::condition_variable free_cv_;   ///< Encoders wait for a slot.
  std::size_t next_ = 0;     ///< Next batch to claim.
  std::size_t written_ = 0;  ///< Batches written so far.
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

}  // namespace

std::uint64_t fold_traces(std::span<std::unique_ptr<MemoryTraceSink>> sinks,
                          TraceSink& dest, unsigned threads,
                          std::uint64_t first_seq) {
  const DecisionEvent* first = nullptr;
  for (const std::unique_ptr<MemoryTraceSink>& s : sinks) {
    if (s && !s->events().empty()) {
      first = &s->events().front();
      break;
    }
  }
  std::uint64_t seq = first_seq;
  std::string buf;
  // Encoding the first event tells whether the destination takes bytes;
  // the batch loop below clears the buffer before it is used.
  if (first == nullptr || !dest.encode(*first, seq, buf)) {
    for (std::unique_ptr<MemoryTraceSink>& s : sinks) {
      if (!s) {
        continue;
      }
      for (const DecisionEvent& ev : s->events()) {
        DecisionEvent merged = ev;
        merged.seq = seq++;
        dest.on_decision(merged);
      }
      s.reset();
    }
    return seq;
  }

  // Each batch's first seq is the prefix sum of the event counts before it.
  std::vector<Batch> batches;
  Batch cur{0, 0, seq, 0};
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    cur.end = i + 1;
    cur.events += sinks[i] ? sinks[i]->events().size() : 0;
    if (cur.events >= kBatchEvents) {
      batches.push_back(cur);
      cur = Batch{i + 1, i + 1, cur.seq + cur.events, 0};
    }
  }
  if (cur.events > 0) {
    batches.push_back(cur);
  }
  const std::uint64_t end_seq = cur.seq + cur.events;

  const std::size_t workers = std::min<std::size_t>(threads, batches.size());
  if (workers <= 1) {
    for (const Batch& b : batches) {
      encode_batch(b, sinks, dest, buf);
      dest.write_encoded(buf, b.events);
    }
  } else {
    ParallelFold(batches, sinks, dest, workers).write_all();
  }
  // Sessions after the last event held none; drop their sinks too.
  for (std::unique_ptr<MemoryTraceSink>& s : sinks) {
    s.reset();
  }
  return end_seq;
}

}  // namespace vbr::obs
