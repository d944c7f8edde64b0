// Seeded, counter-based bootstrap confidence intervals for sample means and
// mean differences. Resample indices are pure functions of
// (seed, resample, position), so results are bit-identical across runs,
// platforms, and thread counts — no RNG stream is shared or advanced.
//
// The index sequence of a resample does not depend on the values, so the
// column functions draw it once and accumulate it into every column of
// equal length (say, every metric recorded for the same sessions). Each
// column keeps its own accumulator and sums in position order, so its
// interval equals the one-column result bit for bit; the one-column
// functions are the column functions over a single column.
//
// Two interval kinds:
//   - kPercentile: plain percentile interval of the resampled statistic
//     (type-7 linear-interpolated quantiles of the resamples).
//   - kBca: bias-corrected and accelerated (Efron). Bias correction z0 from
//     the fraction of resamples below the point estimate (ties counted at
//     half weight, fraction clamped to [0.5/B, 1 - 0.5/B]); acceleration
//     from the jackknife skewness of the statistic (leave-one-out over every
//     observation, both samples for the two-sample difference).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vbr::stats {

enum class BootstrapKind { kPercentile, kBca };

struct BootstrapConfig {
  std::size_t resamples = 2000;
  double confidence = 0.95;  ///< Two-sided coverage, in (0, 1).
  std::uint64_t seed = 0x5eedab00u;
  BootstrapKind kind = BootstrapKind::kBca;
};

struct BootstrapCi {
  double point = 0.0;  ///< Statistic on the original sample(s).
  double lo = 0.0;
  double hi = 0.0;
};

/// Confidence interval for the mean of each column, in column order. The
/// columns must be non-empty and share one length. Throws
/// std::invalid_argument on no columns, an empty or ragged column, zero
/// resamples, or confidence outside (0, 1). Singleton columns yield the
/// degenerate interval [x, x].
std::vector<BootstrapCi> bootstrap_mean_cis(
    std::span<const std::span<const double>> columns,
    const BootstrapConfig& cfg = {});

/// Confidence interval for mean(columns_a[i]) - mean(columns_b[i]) for each
/// i, resampling each side independently (distinct counter salts per side).
/// Both sides need the same number of columns; within a side the columns
/// must share one length, as for bootstrap_mean_cis.
std::vector<BootstrapCi> bootstrap_mean_diff_cis(
    std::span<const std::span<const double>> columns_a,
    std::span<const std::span<const double>> columns_b,
    const BootstrapConfig& cfg = {});

/// bootstrap_mean_cis over the one column `xs`.
BootstrapCi bootstrap_mean_ci(std::span<const double> xs,
                              const BootstrapConfig& cfg = {});

/// bootstrap_mean_diff_cis over the one pair of columns (a, b).
BootstrapCi bootstrap_mean_diff_ci(std::span<const double> a,
                                   std::span<const double> b,
                                   const BootstrapConfig& cfg = {});

}  // namespace vbr::stats
