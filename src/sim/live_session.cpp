#include "sim/live_session.h"

#include <algorithm>
#include <stdexcept>

#include "sim/stepper.h"

namespace vbr::sim {

LiveSessionResult run_live_session(const video::Video& video,
                                   const net::Trace& trace,
                                   abr::AbrScheme& scheme,
                                   net::BandwidthEstimator& estimator,
                                   const LiveSessionConfig& config) {
  const double chunk_s = video.chunk_duration_s();
  if (config.startup_latency_s <= 0.0 ||
      config.startup_latency_s > config.max_buffer_s) {
    throw std::invalid_argument(
        "run_live_session: startup latency must be in (0, max_buffer]");
  }
  if (config.join_latency_s < chunk_s + config.encoder_delay_s) {
    throw std::invalid_argument(
        "run_live_session: join latency below one chunk + encoder delay");
  }
  if (config.encoder_delay_s < 0.0) {
    throw std::invalid_argument("run_live_session: negative encoder delay");
  }

  SessionConfig session;
  session.startup_latency_s = config.startup_latency_s;
  session.max_buffer_s = config.max_buffer_s;
  session.fault = config.fault;
  session.retry = config.retry;
  session.size_provider = config.size_provider;
  session.trace = config.trace;
  session.metrics = config.metrics;
  session.session_id = config.session_id;
  // The player joins `join_latency_s` after the stream origin and starts
  // fetching from chunk 0 as each chunk is released.
  SessionTimeline timeline;
  timeline.driver = "run_live_session";
  timeline.start_s = config.join_latency_s;
  timeline.encoder_delay_s = config.encoder_delay_s;
  SessionStepper stepper(video, trace, scheme, estimator, session, timeline);
  while (stepper.step()) {
  }
  LiveSessionResult result;
  result.edge_wait_s = stepper.release_wait_s();
  result.session = stepper.finish();

  // Latency accounting: chunk i starts playing at
  //   P(0) = playback start, P(i) = max(P(i-1) + chunk_s, F(i)),
  // where F(i) is its download-finish time; its live latency is P(i) minus
  // its content timestamp i * chunk_s. A skipped chunk is jumped over: its
  // content time passes without the playhead waiting on a download.
  double play = config.join_latency_s + result.session.startup_delay_s;
  double lat_sum = 0.0;
  std::size_t delivered = 0;
  bool first = true;
  for (std::size_t i = 0; i < result.session.chunks.size(); ++i) {
    const ChunkRecord& rec = result.session.chunks[i];
    if (rec.skipped) {
      if (!first) {
        play += chunk_s;
      }
      continue;
    }
    const double finish = rec.download_start_s + rec.download_s;
    play = first ? std::max(play, finish)
                 : std::max(play + chunk_s, finish);
    first = false;
    const double latency = play - static_cast<double>(i) * chunk_s;
    lat_sum += latency;
    result.max_latency_s = std::max(result.max_latency_s, latency);
    ++delivered;
  }
  if (delivered > 0) {
    result.mean_latency_s = lat_sum / static_cast<double>(delivered);
  }
  return result;
}

}  // namespace vbr::sim
