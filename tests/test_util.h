// Shared fixtures for the test suite: tiny hand-built videos with known
// chunk sizes, flat traces, and convenience wrappers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "abr/scheme.h"
#include "net/trace.h"
#include "video/video.h"

namespace vbr::testutil {

/// A video whose track `l` has every chunk at `bitrates_bps[l]` except where
/// `spikes` boosts specific chunk indices by a multiplicative factor
/// (applied to every track, preserving cross-track consistency).
/// Quality is synthesized as a simple increasing function of the track.
inline video::Video make_flat_video(
    std::vector<double> bitrates_bps, std::size_t num_chunks,
    double chunk_duration_s = 2.0,
    const std::vector<std::pair<std::size_t, double>>& spikes = {}) {
  std::vector<video::Track> tracks;
  for (std::size_t l = 0; l < bitrates_bps.size(); ++l) {
    std::vector<video::Chunk> chunks(num_chunks);
    for (std::size_t i = 0; i < num_chunks; ++i) {
      double rate = bitrates_bps[l];
      for (const auto& [idx, factor] : spikes) {
        if (idx == i) {
          rate *= factor;
        }
      }
      chunks[i].size_bits = rate * chunk_duration_s;
      chunks[i].duration_s = chunk_duration_s;
      const double q = 20.0 + 14.0 * static_cast<double>(l);
      chunks[i].quality = video::ChunkQuality{
          .psnr_db = 25.0 + 4.0 * static_cast<double>(l),
          .ssim = 0.7 + 0.05 * static_cast<double>(l),
          .vmaf_tv = q,
          .vmaf_phone = q,
      };
    }
    tracks.emplace_back(static_cast<int>(l),
                        video::standard_ladder()[l % 6], video::Codec::kH264,
                        std::move(chunks));
  }
  return video::Video("flat", video::Genre::kAnimation, std::move(tracks),
                      std::vector<video::SceneInfo>(num_chunks));
}

/// The default six-rung flat video used across scheme tests.
inline video::Video default_flat_video(std::size_t num_chunks = 60) {
  return make_flat_video({2e5, 4e5, 8e5, 1.6e6, 3.2e6, 6.4e6}, num_chunks);
}

/// A constant-bandwidth trace.
inline net::Trace flat_trace(double bps, double duration_s = 1800.0) {
  const std::size_t n = static_cast<std::size_t>(duration_s);
  return net::Trace("flat", 1.0, std::vector<double>(n, bps));
}

/// A StreamContext with sensible defaults for unit-testing decide().
inline abr::StreamContext make_context(const video::Video& v,
                                       std::size_t next_chunk,
                                       double buffer_s, double est_bps,
                                       int prev_track = -1,
                                       double now_s = 0.0) {
  abr::StreamContext ctx;
  ctx.video = &v;
  ctx.next_chunk = next_chunk;
  ctx.buffer_s = buffer_s;
  ctx.est_bandwidth_bps = est_bps;
  ctx.prev_track = prev_track;
  ctx.now_s = now_s;
  return ctx;
}

/// A scheme that asks to idle for -1 s before every download. Every session
/// driver must reject its first decision.
class NegativeWaitScheme final : public abr::AbrScheme {
 public:
  [[nodiscard]] abr::Decision decide(const abr::StreamContext&) override {
    return abr::Decision{.track = 0, .wait_s = -1.0};
  }
  [[nodiscard]] std::string name() const override { return "negative-wait"; }
};

/// A scheme factory used as a gtest parameter, with a fixed label.
/// gtest prints a bare function pointer as its address, and ctest's
/// discovered test names embed that printed value; ASLR moves the address
/// on every build, so those names would change from build to build. The
/// label pins the name. Suites keep the labels their instances were first
/// recorded under, so recorded test ids keep naming the same (scheme, case).
struct LabeledMaker {
  const char* label;
  std::unique_ptr<abr::AbrScheme> (*make)();
  std::unique_ptr<abr::AbrScheme> operator()() const { return make(); }
};

inline void PrintTo(const LabeledMaker& m, std::ostream* os) {
  *os << m.label;
}

/// FNV-1a-64 of `bytes` as 16 lowercase hex digits: the digest the byte
/// pins (session goldens, A/B reports, checkpoint journals) compare.
inline std::string fnv1a64_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace vbr::testutil
