#include "decorators.h"

#include <memory>
#include <utility>

namespace perfbench {
namespace {

using vbr::abr::AbrScheme;
using vbr::abr::Decision;
using vbr::abr::StreamContext;
using vbr::net::BandwidthEstimator;

class TimedScheme final : public AbrScheme {
 public:
  TimedScheme(std::unique_ptr<AbrScheme> inner, SchemeTag tag)
      : inner_(std::move(inner)), tag_(tag) {}

  Decision decide(const StreamContext& ctx) override {
    const ScopedSpan span(SpanKind::kDecide, tag_);
    return inner_->decide(ctx);
  }
  void on_chunk_downloaded(const StreamContext& ctx, std::size_t track,
                           double download_s) override {
    const ScopedSpan span(SpanKind::kSchemeUpdate, tag_);
    inner_->on_chunk_downloaded(ctx, track, download_s);
  }
  void reset() override { inner_->reset(); }
  void annotate_event(vbr::obs::DecisionEvent& event) const override {
    inner_->annotate_event(event);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<AbrScheme> inner_;
  SchemeTag tag_;
};

class TimedEstimator final : public BandwidthEstimator {
 public:
  explicit TimedEstimator(std::unique_ptr<BandwidthEstimator> inner)
      : inner_(std::move(inner)), session_(next_id()) {
    // The session's first step may open spans before the first estimate.
    set_current_session(session_);
  }

  void on_chunk_downloaded(double bits, double duration_s,
                           double now_s) override {
    const ScopedSpan span(SpanKind::kEstimatorUpdate);
    inner_->on_chunk_downloaded(bits, duration_s, now_s);
  }
  double estimate_bps(double now_s) const override {
    set_current_session(session_);
    const ScopedSpan span(SpanKind::kEstimate);
    return inner_->estimate_bps(now_s);
  }
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<BandwidthEstimator> inner_;
  std::uint64_t session_;
};

}  // namespace

vbr::sim::SchemeFactory timed_scheme_factory(vbr::sim::SchemeFactory inner,
                                             SchemeTag tag) {
  return [inner = std::move(inner), tag]() -> std::unique_ptr<AbrScheme> {
    const ScopedSpan span(SpanKind::kMakeScheme, tag);
    return std::make_unique<TimedScheme>(inner(), tag);
  };
}

vbr::sim::EstimatorFactory timed_estimator_factory(
    vbr::sim::EstimatorFactory inner) {
  return [inner = std::move(inner)](const vbr::net::Trace& trace)
             -> std::unique_ptr<BandwidthEstimator> {
    const ScopedSpan span(SpanKind::kMakeEstimator);
    return std::make_unique<TimedEstimator>(inner(trace));
  };
}

void TimedSink::on_decision(const vbr::obs::DecisionEvent& event) {
  const ScopedSpan span(SpanKind::kSink, std::uint64_t{0});
  ++events_;
  inner_->on_decision(event);
}

void TimedSink::flush() {
  const ScopedSpan span(SpanKind::kSink, std::uint64_t{0});
  inner_->flush();
}

vbr::sim::FetchPlan TimedHook::on_chunk_request(
    const vbr::video::Video& video, std::size_t track, std::size_t index,
    double size_bits, double now_s) {
  const ScopedSpan span(SpanKind::kDelivery);
  return inner_->on_chunk_request(video, track, index, size_bits, now_s);
}

void TimedHook::on_chunk_delivered(const vbr::video::Video& video,
                                   std::size_t track, std::size_t index,
                                   double size_bits, double now_s) {
  const ScopedSpan span(SpanKind::kDelivery);
  inner_->on_chunk_delivered(video, track, index, size_bits, now_s);
}

}  // namespace perfbench
