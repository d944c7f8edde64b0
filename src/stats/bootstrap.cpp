#include "stats/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/inference.h"
#include "stats/remainder.h"

namespace vbr::stats {
namespace {

constexpr std::uint64_t kSaltOneSample = 0xab000001u;
constexpr std::uint64_t kSaltDiffA = 0xab0000a0u;
constexpr std::uint64_t kSaltDiffB = 0xab0000b0u;

// splitmix64 finalizer — the same integer-only construction the fleet layer
// uses for its keyed draws, kept local so the stats library has no upward
// dependency.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The part of a resample's draws that depends only on (seed, salt,
// resample): computed once per resample, not once per position.
std::uint64_t resample_key(std::uint64_t seed, std::uint64_t salt,
                           std::size_t r) {
  return mix64(seed ^ mix64(salt + 0x9e3779b97f4a7c15ull * (r + 1)));
}

// Index drawn for position j of the resample keyed by `key`: with the key,
// a pure function of (seed, salt, resample, position). `mod_n` is x % n.
std::size_t draw_index(std::uint64_t key, std::size_t j,
                       const ExactRemainder& mod_n) {
  return static_cast<std::size_t>(
      mod_n(mix64(key + 0xbf58476d1ce4e5b9ull * (j + 1))));
}

double span_mean(std::span<const double> xs) {
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

// Equal-length columns packed row-major (rows[j * k + c] is position j of
// column c), so that one drawn index reads every column from one row.
struct PackedColumns {
  std::size_t n = 0;  ///< Observations per column.
  std::size_t k = 0;  ///< Columns.
  std::vector<double> rows;
};

PackedColumns pack_columns(std::span<const std::span<const double>> columns,
                           const std::string& who) {
  if (columns.empty()) {
    throw std::invalid_argument(who + ": no columns");
  }
  PackedColumns p;
  p.n = columns[0].size();
  p.k = columns.size();
  if (p.n == 0) {
    throw std::invalid_argument(who + ": empty sample");
  }
  for (std::size_t c = 1; c < p.k; ++c) {
    if (columns[c].size() != p.n) {
      throw std::invalid_argument(
          who + ": column " + std::to_string(c) + " has " +
          std::to_string(columns[c].size()) + " values but column 0 has " +
          std::to_string(p.n) + " (columns must share one length)");
    }
  }
  p.rows.resize(p.n * p.k);
  for (std::size_t c = 0; c < p.k; ++c) {
    for (std::size_t j = 0; j < p.n; ++j) {
      p.rows[j * p.k + c] = columns[c][j];
    }
  }
  return p;
}

// Resampled means of columns [c0, c0 + B) for the W resamples whose drawn
// rows are in `offsets` (offsets[j * W + w]: where position j of resample w
// reads): out[c * stride + w] is the mean of resample w of column c. The
// W x B accumulators stay in registers, and each sums its column's values
// in position order, as a pass over that resample and column alone would.
template <std::size_t W, std::size_t B>
void sum_columns(const PackedColumns& p, const std::size_t* offsets,
                 std::size_t c0, double* out, std::size_t stride) {
  double acc[W][B] = {};
  const double* base = p.rows.data() + c0;
  for (std::size_t j = 0; j < p.n; ++j) {
    for (std::size_t w = 0; w < W; ++w) {
      const double* row = base + offsets[j * W + w];
      for (std::size_t b = 0; b < B; ++b) {
        acc[w][b] += row[b];
      }
    }
  }
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t w = 0; w < W; ++w) {
      out[(c0 + b) * stride + w] = acc[w][b] / static_cast<double>(p.n);
    }
  }
}

// Means of resamples r0 .. r0 + W - 1 of every column: out[c * stride + w]
// for resample r0 + w. All W resamples are drawn first, then summed column
// block by column block, so that the W resamples advance together as
// independent chains.
template <std::size_t W>
void resample_means(const PackedColumns& p, const ExactRemainder& mod_n,
                    std::uint64_t seed, std::uint64_t salt, std::size_t r0,
                    std::vector<std::size_t>& offsets, double* out,
                    std::size_t stride) {
  constexpr std::size_t kBlock = 4;  // columns per register block
  for (std::size_t w = 0; w < W; ++w) {
    const std::uint64_t key = resample_key(seed, salt, r0 + w);
    for (std::size_t j = 0; j < p.n; ++j) {
      offsets[j * W + w] = draw_index(key, j, mod_n) * p.k;
    }
  }
  std::size_t c = 0;
  for (; c + kBlock <= p.k; c += kBlock) {
    sum_columns<W, kBlock>(p, offsets.data(), c, out, stride);
  }
  for (; c < p.k; ++c) {
    sum_columns<W, 1>(p, offsets.data(), c, out, stride);
  }
}

// Every resampled mean of every column: out[c * resamples + r] is the mean
// of resample r of column c. kLanes resamples per pass, then one at a time.
std::vector<double> all_resample_means(const PackedColumns& p,
                                       std::uint64_t seed, std::uint64_t salt,
                                       std::size_t resamples) {
  constexpr std::size_t kLanes = 4;
  const ExactRemainder mod_n(p.n);
  std::vector<double> out(p.k * resamples);
  std::vector<std::size_t> offsets(p.n * kLanes);
  std::size_t r = 0;
  for (; r + kLanes <= resamples; r += kLanes) {
    resample_means<kLanes>(p, mod_n, seed, salt, r, offsets, out.data() + r,
                           resamples);
  }
  for (; r < resamples; ++r) {
    resample_means<1>(p, mod_n, seed, salt, r, offsets, out.data() + r,
                      resamples);
  }
  return out;
}

// Type-7 (linear interpolation) quantile, selected in place: the order
// statistics a sorted copy would hold at floor(pos) and the next position,
// without sorting the rest.
double select_quantile(std::span<double> v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(v.begin(), v.begin() + lo, v.end());
  const double x_lo = v[lo];
  const double x_hi =
      hi == lo ? x_lo : *std::min_element(v.begin() + hi, v.end());
  return x_lo + frac * (x_hi - x_lo);
}

void validate_config(const BootstrapConfig& cfg) {
  if (cfg.resamples == 0) {
    throw std::invalid_argument("bootstrap: resamples must be positive");
  }
  if (!(cfg.confidence > 0.0 && cfg.confidence < 1.0)) {
    throw std::invalid_argument("bootstrap: confidence must be in (0, 1)");
  }
}

// Jackknife acceleration constant from leave-one-out statistic values.
double acceleration(const std::vector<double>& jack) {
  double mean = 0.0;
  for (double v : jack) mean += v;
  mean /= static_cast<double>(jack.size());
  double num = 0.0;
  double den = 0.0;
  for (double v : jack) {
    const double d = mean - v;
    num += d * d * d;
    den += d * d;
  }
  if (den == 0.0) return 0.0;
  return num / (6.0 * std::pow(den, 1.5));
}

// Interval from the resampled statistics. `thetas` is reordered in place;
// nothing below depends on its order.
BootstrapCi interval_from_resamples(double point, std::span<double> thetas,
                                    const std::vector<double>& jack,
                                    const BootstrapConfig& cfg) {
  BootstrapCi ci;
  ci.point = point;
  const auto [min_it, max_it] =
      std::minmax_element(thetas.begin(), thetas.end());
  if (*min_it == *max_it) {
    ci.lo = ci.hi = *min_it;
    return ci;
  }
  const double alpha = 1.0 - cfg.confidence;
  double q_lo = 0.5 * alpha;
  double q_hi = 1.0 - 0.5 * alpha;
  if (cfg.kind == BootstrapKind::kBca) {
    const double b = static_cast<double>(thetas.size());
    // Halves and small integers: the count is exact in any order.
    double below = 0.0;
    for (double v : thetas) {
      if (v < point) below += 1.0;
      else if (v == point) below += 0.5;
    }
    const double frac =
        std::clamp(below / b, 0.5 / b, 1.0 - 0.5 / b);
    const double z0 = normal_ppf(frac);
    const double a = jack.size() >= 2 ? acceleration(jack) : 0.0;
    const double z_lo = normal_ppf(q_lo);
    const double z_hi = normal_ppf(q_hi);
    q_lo = normal_cdf(z0 + (z0 + z_lo) / (1.0 - a * (z0 + z_lo)));
    q_hi = normal_cdf(z0 + (z0 + z_hi) / (1.0 - a * (z0 + z_hi)));
    if (q_lo > q_hi) std::swap(q_lo, q_hi);
  }
  ci.lo = select_quantile(thetas, q_lo);
  ci.hi = select_quantile(thetas, q_hi);
  return ci;
}

}  // namespace

std::vector<BootstrapCi> bootstrap_mean_cis(
    std::span<const std::span<const double>> columns,
    const BootstrapConfig& cfg) {
  validate_config(cfg);
  const PackedColumns p = pack_columns(columns, "bootstrap_mean_cis");
  const std::size_t resamples = cfg.resamples;
  std::vector<double> thetas =
      all_resample_means(p, cfg.seed, kSaltOneSample, resamples);
  std::vector<BootstrapCi> cis;
  cis.reserve(p.k);
  std::vector<double> jack;
  for (std::size_t c = 0; c < p.k; ++c) {
    const std::span<const double> xs = columns[c];
    const double point = span_mean(xs);
    jack.clear();
    if (xs.size() >= 2) {
      const double total = point * static_cast<double>(xs.size());
      for (std::size_t i = 0; i < xs.size(); ++i) {
        jack.push_back((total - xs[i]) / static_cast<double>(xs.size() - 1));
      }
    }
    cis.push_back(interval_from_resamples(
        point, std::span<double>(thetas).subspan(c * resamples, resamples), jack, cfg));
  }
  return cis;
}

std::vector<BootstrapCi> bootstrap_mean_diff_cis(
    std::span<const std::span<const double>> columns_a,
    std::span<const std::span<const double>> columns_b,
    const BootstrapConfig& cfg) {
  validate_config(cfg);
  if (columns_a.size() != columns_b.size()) {
    throw std::invalid_argument(
        "bootstrap_mean_diff_cis: columns_a has " +
        std::to_string(columns_a.size()) + " columns but columns_b has " +
        std::to_string(columns_b.size()));
  }
  const PackedColumns pa =
      pack_columns(columns_a, "bootstrap_mean_diff_cis: columns_a");
  const PackedColumns pb =
      pack_columns(columns_b, "bootstrap_mean_diff_cis: columns_b");
  const std::size_t resamples = cfg.resamples;
  std::vector<double> thetas =
      all_resample_means(pa, cfg.seed, kSaltDiffA, resamples);
  const std::vector<double> means_b =
      all_resample_means(pb, cfg.seed, kSaltDiffB, resamples);
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    thetas[i] -= means_b[i];
  }
  std::vector<BootstrapCi> cis;
  cis.reserve(pa.k);
  std::vector<double> jack;
  for (std::size_t c = 0; c < pa.k; ++c) {
    const std::span<const double> a = columns_a[c];
    const std::span<const double> b = columns_b[c];
    const double mean_a = span_mean(a);
    const double mean_b = span_mean(b);
    // Leave-one-out over every observation of both samples.
    jack.clear();
    if (a.size() >= 2) {
      const double total = mean_a * static_cast<double>(a.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        jack.push_back((total - a[i]) / static_cast<double>(a.size() - 1) -
                       mean_b);
      }
    }
    if (b.size() >= 2) {
      const double total = mean_b * static_cast<double>(b.size());
      for (std::size_t i = 0; i < b.size(); ++i) {
        jack.push_back(mean_a -
                       (total - b[i]) / static_cast<double>(b.size() - 1));
      }
    }
    cis.push_back(interval_from_resamples(
        mean_a - mean_b, std::span<double>(thetas).subspan(c * resamples, resamples), jack,
        cfg));
  }
  return cis;
}

BootstrapCi bootstrap_mean_ci(std::span<const double> xs,
                              const BootstrapConfig& cfg) {
  return bootstrap_mean_cis({&xs, 1}, cfg).front();
}

BootstrapCi bootstrap_mean_diff_ci(std::span<const double> a,
                                   std::span<const double> b,
                                   const BootstrapConfig& cfg) {
  return bootstrap_mean_diff_cis({&a, 1}, {&b, 1}, cfg).front();
}

}  // namespace vbr::stats
