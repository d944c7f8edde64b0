// Timing decorators over the library's public seams: SchemeFactory,
// EstimatorFactory, TraceSink and DownloadPathHook. Each forwards every
// call unchanged, so a decorated run produces the same bytes as an
// undecorated one (the ledger checks it), and times the calls into the
// layer behind it with a ScopedSpan.
#pragma once

#include "obs/trace_sink.h"
#include "sim/experiment.h"
#include "sim/session.h"
#include "tracer.h"

namespace perfbench {

/// Wraps every scheme the factory builds; the factory call itself is timed
/// as abr.make_scheme.
[[nodiscard]] vbr::sim::SchemeFactory timed_scheme_factory(
    vbr::sim::SchemeFactory inner, SchemeTag tag);

/// Wraps every estimator the factory builds and gives each one a fresh
/// session id. Building the estimator, and every estimate (asked at the
/// start of each chunk decision), mark the session that the following spans
/// on that thread belong to.
[[nodiscard]] vbr::sim::EstimatorFactory timed_estimator_factory(
    vbr::sim::EstimatorFactory inner);

class TimedSink final : public vbr::obs::TraceSink {
 public:
  explicit TimedSink(vbr::obs::TraceSink& inner) : inner_(&inner) {}
  void on_decision(const vbr::obs::DecisionEvent& event) override;
  void flush() override;

  /// Events received through on_decision.
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  vbr::obs::TraceSink* inner_;
  std::uint64_t events_ = 0;
};

class TimedHook final : public vbr::sim::DownloadPathHook {
 public:
  explicit TimedHook(vbr::sim::DownloadPathHook& inner) : inner_(&inner) {}
  [[nodiscard]] vbr::sim::FetchPlan on_chunk_request(
      const vbr::video::Video& video, std::size_t track, std::size_t index,
      double size_bits, double now_s) override;
  void on_chunk_delivered(const vbr::video::Video& video, std::size_t track,
                          std::size_t index, double size_bits,
                          double now_s) override;

 private:
  vbr::sim::DownloadPathHook* inner_;
};

}  // namespace perfbench
