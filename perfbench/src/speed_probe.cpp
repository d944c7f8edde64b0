#include "speed_probe.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "tracer.h"

namespace perfbench {
namespace {

constexpr int kLevels = 6;
constexpr int kHorizon = 5;
constexpr int kRounds = 12;
constexpr std::size_t kTableSize = std::size_t{1} << 15;
constexpr std::size_t kMask = kTableSize - 1;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// Chunk-size factors in [0.5, 1.5), built once.
const std::vector<double>& table() {
  static const std::vector<double> t = [] {
    std::vector<double> v(kTableSize);
    std::uint64_t s = 0x2545f4914f6cdd1dULL;
    for (double& x : v) {
      x = 0.5 + static_cast<double>(xorshift(s) >> 11) * 0x1.0p-53;
    }
    return v;
  }();
  return t;
}

}  // namespace

ProbeResult run_speed_probe() {
  const std::vector<double>& t = table();
  constexpr std::array<double, kLevels> kRate = {0.3, 0.75, 1.2,
                                                 1.85, 2.85, 4.3};
  std::array<double, kLevels> log_rate{};
  for (int l = 0; l < kLevels; ++l) {
    log_rate[l] = std::log(kRate[l]);
  }
  int combos = 1;
  for (int h = 0; h < kHorizon; ++h) {
    combos *= kLevels;
  }
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < kRounds; ++r) {
    const std::size_t idx = xorshift(s) & kMask;
    const double bw = 0.5 + 3.0 * t[(idx * 31) & kMask];
    const double b0 = 4.0 + 20.0 * t[(idx * 17) & kMask];
    double best = -1e300;
    for (int c0 = 0; c0 < combos; ++c0) {
      int c = c0;
      double buf = b0, q = 0.0, prev = log_rate[0];
      for (int h = 0; h < kHorizon; ++h) {
        const int l = c % kLevels;
        c /= kLevels;
        const std::size_t at = idx + 4099u * static_cast<std::size_t>(h) +
                               613u * static_cast<std::size_t>(c0) +
                               static_cast<std::size_t>(l);
        const double download = 2.0 * kRate[l] * t[at & kMask] / bw;
        const double rebuffer = std::max(0.0, download - buf);
        buf = std::max(buf - download, 0.0) + 2.0;
        q += log_rate[l] - 4.3 * rebuffer - std::abs(log_rate[l] - prev);
        prev = log_rate[l];
      }
      best = std::max(best, q);
    }
    acc += best;
  }
  ProbeResult p;
  p.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  std::memcpy(&p.checksum, &acc, sizeof acc);
  return p;
}

}  // namespace perfbench
