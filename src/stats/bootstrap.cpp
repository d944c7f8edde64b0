#include "stats/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/inference.h"

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
// a pure function of (seed, salt, resample, position).
std::size_t draw_index(std::uint64_t key, std::size_t j, std::size_t n) {
  return static_cast<std::size_t>(
      mix64(key + 0xbf58476d1ce4e5b9ull * (j + 1)) % n);
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

// Mean of resample r of every column into means[c]. Each position's index
// is drawn once and added to every column's own accumulator, in position
// order, so each mean is the one a single-column pass would compute.
void resample_means(const PackedColumns& p, std::uint64_t seed,
                    std::uint64_t salt, std::size_t r,
                    std::vector<double>& means) {
  std::fill(means.begin(), means.end(), 0.0);
  const std::uint64_t key = resample_key(seed, salt, r);
  for (std::size_t j = 0; j < p.n; ++j) {
    const double* row = p.rows.data() + draw_index(key, j, p.n) * p.k;
    for (std::size_t c = 0; c < p.k; ++c) {
      means[c] += row[c];
    }
  }
  for (double& m : means) {
    m /= static_cast<double>(p.n);
  }
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
  // thetas[c * resamples + r]: resample r of column c.
  std::vector<double> thetas(p.k * resamples);
  std::vector<double> means(p.k);
  for (std::size_t r = 0; r < resamples; ++r) {
    resample_means(p, cfg.seed, kSaltOneSample, r, means);
    for (std::size_t c = 0; c < p.k; ++c) {
      thetas[c * resamples + r] = means[c];
    }
  }
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
  std::vector<double> thetas(pa.k * resamples);
  std::vector<double> means_a(pa.k);
  std::vector<double> means_b(pb.k);
  for (std::size_t r = 0; r < resamples; ++r) {
    resample_means(pa, cfg.seed, kSaltDiffA, r, means_a);
    resample_means(pb, cfg.seed, kSaltDiffB, r, means_b);
    for (std::size_t c = 0; c < pa.k; ++c) {
      thetas[c * resamples + r] = means_a[c] - means_b[c];
    }
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
