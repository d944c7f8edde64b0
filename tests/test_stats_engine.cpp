// The statistics engine pinned against independently generated oracle
// fixtures (tools/gen_stats_fixtures.py: Gauss-Legendre quadrature of the
// Student-t density, a genuinely different algorithm from the library's
// continued-fraction path), plus closed-form anchors and property tests
// that hold for every fixture sample: p-values in [0, 1], sign symmetry,
// U1 + U2 = n1*n2, BH monotonicity/idempotence, and bit-exact bootstrap
// seed-determinism. The column bootstrap is pinned bit for bit against the
// one-column calls and against a sort-based reference of the resampling
// scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <fstream>
#include <map>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "stats/bootstrap.h"
#include "stats/inference.h"
#include "stats/remainder.h"

namespace vbr {
namespace {

constexpr const char* kDataDir = VBR_TEST_DATA_DIR;
constexpr double kOracleTol = 1e-9;

struct TTestCase {
  std::string name;
  std::vector<double> a;
  std::vector<double> b;
  std::map<std::string, double> expect;  // welch_t/df/p, mwu_u1/z/p
};

std::vector<double> read_vec(std::istringstream& iss) {
  std::size_t n = 0;
  iss >> n;
  std::vector<double> v(n);
  for (double& x : v) {
    iss >> x;
  }
  return v;
}

std::vector<TTestCase> load_ttest_cases() {
  std::ifstream in(std::string(kDataDir) + "/stats/ttest_cases.txt");
  EXPECT_TRUE(in.is_open());
  std::vector<TTestCase> cases;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream iss(line);
    std::string tag;
    iss >> tag;
    if (tag == "case") {
      cases.emplace_back();
      iss >> cases.back().name;
    } else if (tag == "a") {
      cases.back().a = read_vec(iss);
    } else if (tag == "b") {
      cases.back().b = read_vec(iss);
    } else {
      double v = 0.0;
      iss >> v;
      cases.back().expect[tag] = v;
    }
  }
  return cases;
}

TEST(StatsEngine, WelchMatchesOracleFixtures) {
  const std::vector<TTestCase> cases = load_ttest_cases();
  ASSERT_GE(cases.size(), 6u);
  for (const TTestCase& c : cases) {
    const stats::TTestResult r = stats::welch_t_test(c.a, c.b);
    EXPECT_NEAR(r.t, c.expect.at("welch_t"), kOracleTol) << c.name;
    EXPECT_NEAR(r.df, c.expect.at("welch_df"), 1e-8) << c.name;
    EXPECT_NEAR(r.p, c.expect.at("welch_p"), kOracleTol) << c.name;
  }
}

TEST(StatsEngine, MannWhitneyMatchesOracleFixtures) {
  const std::vector<TTestCase> cases = load_ttest_cases();
  for (const TTestCase& c : cases) {
    const stats::MannWhitneyResult r = stats::mann_whitney_u(c.a, c.b);
    EXPECT_NEAR(r.u1, c.expect.at("mwu_u1"), 1e-9) << c.name;
    EXPECT_NEAR(r.z, c.expect.at("mwu_z"), 1e-9) << c.name;
    EXPECT_NEAR(r.p, c.expect.at("mwu_p"), kOracleTol) << c.name;
  }
}

// Symmetry and range properties over every fixture sample pair.
TEST(StatsEngine, TestProperties) {
  const std::vector<TTestCase> cases = load_ttest_cases();
  for (const TTestCase& c : cases) {
    const stats::TTestResult ab = stats::welch_t_test(c.a, c.b);
    const stats::TTestResult ba = stats::welch_t_test(c.b, c.a);
    EXPECT_GE(ab.p, 0.0);
    EXPECT_LE(ab.p, 1.0);
    EXPECT_NEAR(ab.t, -ba.t, 1e-12) << c.name;   // sign symmetry
    EXPECT_NEAR(ab.p, ba.p, 1e-12) << c.name;    // p symmetric
    EXPECT_NEAR(ab.df, ba.df, 1e-12) << c.name;

    const stats::MannWhitneyResult mab = stats::mann_whitney_u(c.a, c.b);
    const stats::MannWhitneyResult mba = stats::mann_whitney_u(c.b, c.a);
    const double n1n2 =
        static_cast<double>(c.a.size()) * static_cast<double>(c.b.size());
    EXPECT_NEAR(mab.u1 + mba.u1, n1n2, 1e-9) << c.name;  // U1 + U2 = n1 n2
    EXPECT_NEAR(mab.p, mba.p, 1e-12) << c.name;
    EXPECT_GE(mab.p, 0.0);
    EXPECT_LE(mab.p, 1.0);
  }
}

TEST(StatsEngine, WelchClosedFormAnchors) {
  // Identical constant samples: degenerate, p = 1.
  const std::vector<double> c1 = {5.0, 5.0, 5.0};
  const std::vector<double> c2 = {5.0, 5.0, 5.0, 5.0};
  const stats::TTestResult same = stats::welch_t_test(c1, c2);
  EXPECT_EQ(same.t, 0.0);
  EXPECT_EQ(same.p, 1.0);
  // Distinct constants: infinitely significant.
  const std::vector<double> c3 = {6.0, 6.0, 6.0};
  EXPECT_EQ(stats::welch_t_test(c1, c3).p, 0.0);
  // n < 2 throws.
  const std::vector<double> single = {1.0};
  EXPECT_THROW((void)stats::welch_t_test(single, c1), std::invalid_argument);
}

TEST(StatsEngine, StudentTSpecialFixtures) {
  std::ifstream in(std::string(kDataDir) + "/stats/special_cases.txt");
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t checked = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream iss(line);
    std::string tag;
    iss >> tag;
    if (tag == "tsf") {
      double t = 0.0, df = 0.0, want = 0.0;
      iss >> t >> df >> want;
      EXPECT_NEAR(stats::student_t_sf(t, df), want,
                  std::max(kOracleTol, std::abs(want) * 1e-9))
          << "tsf(" << t << ", " << df << ")";
    } else if (tag == "ppf") {
      double p = 0.0, want = 0.0;
      iss >> p >> want;
      EXPECT_NEAR(stats::normal_ppf(p), want, 1e-9) << "ppf(" << p << ")";
    } else if (tag == "ibeta") {
      double a = 0.0, b = 0.0, x = 0.0, want = 0.0;
      iss >> a >> b >> x >> want;
      EXPECT_NEAR(stats::incomplete_beta(a, b, x), want, kOracleTol)
          << "ibeta(" << a << ", " << b << ", " << x << ")";
    }
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

TEST(StatsEngine, StudentTClosedForms) {
  // df = 1 is the Cauchy distribution: sf(t) = 1/2 - atan(t)/pi.
  for (const double t : {0.0, 0.5, 1.0, 2.5, -1.5}) {
    const double want = 0.5 - std::atan(t) / std::numbers::pi;
    EXPECT_NEAR(stats::student_t_sf(t, 1.0), want, 1e-13) << t;
  }
  // df = 2: sf(t) = 1/2 - t / (2 sqrt(t^2 + 2)).
  for (const double t : {0.0, 1.0, 2.0, -0.7}) {
    const double want = 0.5 - t / (2.0 * std::sqrt(t * t + 2.0));
    EXPECT_NEAR(stats::student_t_sf(t, 2.0), want, 1e-13) << t;
  }
  // Normal CDF / quantile round trip.
  for (const double p : {0.01, 0.25, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(stats::normal_cdf(stats::normal_ppf(p)), p, 1e-12) << p;
  }
  EXPECT_THROW((void)stats::normal_ppf(0.0), std::invalid_argument);
  EXPECT_THROW((void)stats::normal_ppf(1.0), std::invalid_argument);
}

TEST(StatsEngine, BenjaminiHochbergMatchesOracleFixtures) {
  std::ifstream in(std::string(kDataDir) + "/stats/bh_cases.txt");
  ASSERT_TRUE(in.is_open());
  std::string line, name;
  std::vector<double> p, adj;
  std::size_t cases = 0;
  auto check = [&] {
    if (p.empty()) {
      return;
    }
    const std::vector<double> got = stats::benjamini_hochberg(p);
    ASSERT_EQ(got.size(), adj.size()) << name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], adj[i], kOracleTol) << name << "[" << i << "]";
    }
    ++cases;
  };
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream iss(line);
    std::string tag;
    iss >> tag;
    if (tag == "case") {
      check();
      p.clear();
      adj.clear();
      iss >> name;
    } else if (tag == "p") {
      p = read_vec(iss);
    } else if (tag == "adj") {
      adj = read_vec(iss);
    }
  }
  check();
  EXPECT_GE(cases, 4u);
}

TEST(StatsEngine, BenjaminiHochbergProperties) {
  const std::vector<double> p = {0.001, 0.2, 0.04, 0.9, 0.015, 0.5};
  const std::vector<double> adj = stats::benjamini_hochberg(p);
  ASSERT_EQ(adj.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    // Adjustment only raises p-values, never past 1.
    EXPECT_GE(adj[i], p[i]);
    EXPECT_LE(adj[i], 1.0);
    for (std::size_t j = 0; j < p.size(); ++j) {
      // Order-preserving: a smaller raw p never gets a larger adjusted p.
      if (p[i] < p[j]) {
        EXPECT_LE(adj[i], adj[j]);
      }
    }
  }
  // Idempotent on an already-flat vector; empty input stays empty.
  const std::vector<double> flat = {0.5, 0.5, 0.5};
  EXPECT_EQ(stats::benjamini_hochberg(flat), flat);
  EXPECT_TRUE(stats::benjamini_hochberg(std::vector<double>{}).empty());
  const std::vector<double> bad = {0.5, 1.5};
  EXPECT_THROW((void)stats::benjamini_hochberg(bad), std::invalid_argument);
}

TEST(StatsEngine, BootstrapSeedDeterminism) {
  std::vector<double> xs;
  for (int i = 0; i < 40; ++i) {
    xs.push_back(std::sin(0.7 * i) * 10.0 + i * 0.3);
  }
  stats::BootstrapConfig cfg;
  cfg.resamples = 500;
  const stats::BootstrapCi a = stats::bootstrap_mean_ci(xs, cfg);
  const stats::BootstrapCi b = stats::bootstrap_mean_ci(xs, cfg);
  // Counter-based resampling: bit-identical, not merely close.
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.point, b.point);
  // A different seed moves the interval (extremely unlikely to collide).
  cfg.seed ^= 0xdeadbeef;
  const stats::BootstrapCi c = stats::bootstrap_mean_ci(xs, cfg);
  EXPECT_TRUE(c.lo != a.lo || c.hi != a.hi);
}

TEST(StatsEngine, BootstrapIntervalSanity) {
  std::vector<double> xs;
  for (int i = 0; i < 60; ++i) {
    xs.push_back(50.0 + 5.0 * std::cos(1.3 * i));
  }
  double mean = 0.0;
  for (const double v : xs) {
    mean += v;
  }
  mean /= static_cast<double>(xs.size());
  for (const stats::BootstrapKind kind :
       {stats::BootstrapKind::kPercentile, stats::BootstrapKind::kBca}) {
    stats::BootstrapConfig cfg;
    cfg.resamples = 1000;
    cfg.kind = kind;
    const stats::BootstrapCi ci = stats::bootstrap_mean_ci(xs, cfg);
    EXPECT_NEAR(ci.point, mean, 1e-12);
    EXPECT_LE(ci.lo, ci.point);
    EXPECT_GE(ci.hi, ci.point);
    EXPECT_LT(ci.hi - ci.lo, 6.0);  // not absurdly wide for sd ~3.5, n=60
    // Wider confidence -> wider interval.
    stats::BootstrapConfig wide = cfg;
    wide.confidence = 0.99;
    const stats::BootstrapCi w = stats::bootstrap_mean_ci(xs, wide);
    EXPECT_LE(w.lo, ci.lo + 1e-12);
    EXPECT_GE(w.hi, ci.hi - 1e-12);
  }
  // Degenerate inputs.
  const std::vector<double> one = {3.0};
  const stats::BootstrapCi s = stats::bootstrap_mean_ci(one);
  EXPECT_EQ(s.lo, 3.0);
  EXPECT_EQ(s.hi, 3.0);
  EXPECT_THROW((void)stats::bootstrap_mean_ci(std::vector<double>{}),
               std::invalid_argument);
}

TEST(StatsEngine, BootstrapDiffCoversTrueShift) {
  // b = a + 2: the difference CI must cover -2 (mean(a) - mean(b)) and the
  // one-sample CI arithmetic must be consistent with the point estimate.
  std::vector<double> a, b;
  for (int i = 0; i < 50; ++i) {
    const double base = 10.0 + 3.0 * std::sin(0.9 * i);
    a.push_back(base);
    b.push_back(base + 2.0);
  }
  const stats::BootstrapCi ci = stats::bootstrap_mean_diff_ci(a, b);
  EXPECT_NEAR(ci.point, -2.0, 1e-12);
  EXPECT_LE(ci.lo, -2.0);
  EXPECT_GE(ci.hi, -2.0);
  // Deterministic too.
  const stats::BootstrapCi ci2 = stats::bootstrap_mean_diff_ci(a, b);
  EXPECT_EQ(ci.lo, ci2.lo);
  EXPECT_EQ(ci.hi, ci2.hi);
}


// ----------------------------------------------------- column bootstrap --

/// `k` columns of length `n` with assorted shapes: smooth, heavily tied
/// (three values), constant, and one outlier.
std::vector<std::vector<double>> make_columns(std::size_t k, std::size_t n,
                                              double shift) {
  std::vector<std::vector<double>> cols(k, std::vector<double>(n));
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < n; ++j) {
      const double x = static_cast<double>(j);
      switch (c % 4) {
        case 0:
          cols[c][j] = shift + std::sin(0.7 * x + c) * 10.0 + 0.3 * x;
          break;
        case 1:
          cols[c][j] = shift + static_cast<double>((j * 7 + c) % 3);
          break;
        case 2:
          cols[c][j] = 4.25;
          break;
        default:
          cols[c][j] = j == n / 2 ? 1e6 : shift + 0.01 * x;
          break;
      }
    }
  }
  return cols;
}

std::vector<std::span<const double>> spans_of(
    const std::vector<std::vector<double>>& cols) {
  return {cols.begin(), cols.end()};
}

TEST(StatsEngine, BootstrapColumnsMatchOneColumnCalls) {
  const std::size_t ns[] = {1, 2, 3, 37, 500};
  for (const std::size_t n : ns) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{8}}) {
      const auto a = make_columns(k, n, 0.0);
      // The B side of a difference has its own length.
      const auto b = make_columns(k, n == 500 ? 37 : n + 1, 1.5);
      for (const stats::BootstrapKind kind :
           {stats::BootstrapKind::kPercentile, stats::BootstrapKind::kBca}) {
        for (const std::size_t resamples :
             {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
              std::size_t{7}, std::size_t{2000}, std::size_t{2001}}) {
          stats::BootstrapConfig cfg;
          cfg.kind = kind;
          cfg.resamples = resamples;
          const auto cis = stats::bootstrap_mean_cis(spans_of(a), cfg);
          const auto diffs =
              stats::bootstrap_mean_diff_cis(spans_of(a), spans_of(b), cfg);
          ASSERT_EQ(cis.size(), k);
          ASSERT_EQ(diffs.size(), k);
          for (std::size_t c = 0; c < k; ++c) {
            SCOPED_TRACE("n " + std::to_string(n) + " k " +
                         std::to_string(k) + " column " + std::to_string(c) +
                         " resamples " + std::to_string(resamples));
            const stats::BootstrapCi one = stats::bootstrap_mean_ci(a[c], cfg);
            EXPECT_EQ(cis[c].point, one.point);
            EXPECT_EQ(cis[c].lo, one.lo);
            EXPECT_EQ(cis[c].hi, one.hi);
            const stats::BootstrapCi d =
                stats::bootstrap_mean_diff_ci(a[c], b[c], cfg);
            EXPECT_EQ(diffs[c].point, d.point);
            EXPECT_EQ(diffs[c].lo, d.lo);
            EXPECT_EQ(diffs[c].hi, d.hi);
          }
        }
      }
    }
  }
}

/// The resampling scheme restated the direct way, as an oracle: every
/// position draws its index from (seed, salt, resample, position), the
/// resampled means are fully sorted, and type-7 quantiles interpolate the
/// sorted vector.
class SortedReference {
 public:
  explicit SortedReference(const stats::BootstrapConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] stats::BootstrapCi mean_ci(
      const std::vector<double>& xs) const {
    std::vector<double> thetas(cfg_.resamples);
    for (std::size_t r = 0; r < cfg_.resamples; ++r) {
      thetas[r] = resample_mean(xs, 0xab000001u, r);
    }
    const double point = mean(xs);
    std::vector<double> jack;
    for (std::size_t i = 0; xs.size() >= 2 && i < xs.size(); ++i) {
      jack.push_back((point * static_cast<double>(xs.size()) - xs[i]) /
                     static_cast<double>(xs.size() - 1));
    }
    return interval(point, std::move(thetas), jack);
  }

  [[nodiscard]] stats::BootstrapCi diff_ci(
      const std::vector<double>& a, const std::vector<double>& b) const {
    std::vector<double> thetas(cfg_.resamples);
    for (std::size_t r = 0; r < cfg_.resamples; ++r) {
      thetas[r] =
          resample_mean(a, 0xab0000a0u, r) - resample_mean(b, 0xab0000b0u, r);
    }
    const double ma = mean(a);
    const double mb = mean(b);
    std::vector<double> jack;
    for (std::size_t i = 0; a.size() >= 2 && i < a.size(); ++i) {
      jack.push_back((ma * static_cast<double>(a.size()) - a[i]) /
                         static_cast<double>(a.size() - 1) -
                     mb);
    }
    for (std::size_t i = 0; b.size() >= 2 && i < b.size(); ++i) {
      jack.push_back(ma - (mb * static_cast<double>(b.size()) - b[i]) /
                              static_cast<double>(b.size() - 1));
    }
    return interval(ma - mb, std::move(thetas), jack);
  }

 private:
  static std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  static double mean(const std::vector<double>& xs) {
    double acc = 0.0;
    for (const double x : xs) {
      acc += x;
    }
    return acc / static_cast<double>(xs.size());
  }

  [[nodiscard]] double resample_mean(const std::vector<double>& xs,
                                     std::uint64_t salt,
                                     std::size_t r) const {
    double acc = 0.0;
    for (std::size_t j = 0; j < xs.size(); ++j) {
      const std::uint64_t key =
          mix64(cfg_.seed ^ mix64(salt + 0x9e3779b97f4a7c15ull * (r + 1)));
      acc += xs[mix64(key + 0xbf58476d1ce4e5b9ull * (j + 1)) % xs.size()];
    }
    return acc / static_cast<double>(xs.size());
  }

  static double quantile(const std::vector<double>& sorted, double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }

  [[nodiscard]] stats::BootstrapCi interval(
      double point, std::vector<double> thetas,
      const std::vector<double>& jack) const {
    std::sort(thetas.begin(), thetas.end());
    stats::BootstrapCi ci;
    ci.point = point;
    if (thetas.front() == thetas.back()) {
      ci.lo = ci.hi = thetas.front();
      return ci;
    }
    double q_lo = 0.5 * (1.0 - cfg_.confidence);
    double q_hi = 1.0 - 0.5 * (1.0 - cfg_.confidence);
    if (cfg_.kind == stats::BootstrapKind::kBca) {
      const double b = static_cast<double>(thetas.size());
      double below = 0.0;
      for (const double v : thetas) {
        below += v < point ? 1.0 : v == point ? 0.5 : 0.0;
      }
      const double z0 =
          stats::normal_ppf(std::clamp(below / b, 0.5 / b, 1.0 - 0.5 / b));
      double acc = 0.0;
      if (jack.size() >= 2) {
        double m = 0.0;
        for (const double v : jack) {
          m += v;
        }
        m /= static_cast<double>(jack.size());
        double num = 0.0;
        double den = 0.0;
        for (const double v : jack) {
          num += (m - v) * (m - v) * (m - v);
          den += (m - v) * (m - v);
        }
        acc = den == 0.0 ? 0.0 : num / (6.0 * std::pow(den, 1.5));
      }
      const double z_lo = stats::normal_ppf(q_lo);
      const double z_hi = stats::normal_ppf(q_hi);
      q_lo = stats::normal_cdf(z0 + (z0 + z_lo) / (1.0 - acc * (z0 + z_lo)));
      q_hi = stats::normal_cdf(z0 + (z0 + z_hi) / (1.0 - acc * (z0 + z_hi)));
      if (q_lo > q_hi) {
        std::swap(q_lo, q_hi);
      }
    }
    ci.lo = quantile(thetas, q_lo);
    ci.hi = quantile(thetas, q_hi);
    return ci;
  }

  stats::BootstrapConfig cfg_;
};

TEST(StatsEngine, BootstrapQuantilesMatchSortedReference) {
  // Confidence near 0 puts both quantiles at the median; near 1 it puts
  // them on the extreme order statistics (and BCa can push a quantile to
  // exactly 0 or 1). The two-valued samples make the resamples heavily
  // tied, so the selected order statistics sit inside runs of equal values.
  std::vector<std::vector<double>> samples = {
      make_columns(1, 37, 0.0)[0], make_columns(4, 500, 2.0)[3],
      {0.0, 1.0},                  {0.0, 0.0, 0.0, 0.0, 0.0, 1.0},
      {2.0, 2.0, 3.0},             make_columns(2, 40, 0.0)[1]};
  for (const double confidence : {1e-9, 1e-3, 0.5, 0.95, 0.999, 1 - 1e-9}) {
    for (const stats::BootstrapKind kind :
         {stats::BootstrapKind::kPercentile, stats::BootstrapKind::kBca}) {
      for (const std::size_t resamples :
           {std::size_t{2}, std::size_t{3}, std::size_t{5}, std::size_t{7},
            std::size_t{2000}}) {
        stats::BootstrapConfig cfg;
        cfg.confidence = confidence;
        cfg.kind = kind;
        cfg.resamples = resamples;
        const SortedReference ref(cfg);
        for (std::size_t i = 0; i < samples.size(); ++i) {
          SCOPED_TRACE("sample " + std::to_string(i) + " confidence " +
                       std::to_string(confidence) + " resamples " +
                       std::to_string(resamples));
          const stats::BootstrapCi got =
              stats::bootstrap_mean_ci(samples[i], cfg);
          const stats::BootstrapCi want = ref.mean_ci(samples[i]);
          EXPECT_EQ(got.point, want.point);
          EXPECT_EQ(got.lo, want.lo);
          EXPECT_EQ(got.hi, want.hi);
          const std::vector<double>& other = samples[(i + 1) % samples.size()];
          const stats::BootstrapCi got_d =
              stats::bootstrap_mean_diff_ci(samples[i], other, cfg);
          const stats::BootstrapCi want_d = ref.diff_ci(samples[i], other);
          EXPECT_EQ(got_d.point, want_d.point);
          EXPECT_EQ(got_d.lo, want_d.lo);
          EXPECT_EQ(got_d.hi, want_d.hi);
        }
      }
    }
  }
}

TEST(ExactRemainder, MatchesModuloOnEdgesAndDraws) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t ns[] = {1,
                              2,
                              3,
                              7,
                              500,
                              (std::uint64_t{1} << 32) - 1,
                              (std::uint64_t{1} << 32) + 1,
                              (std::uint64_t{1} << 63) + 1,
                              kMax};
  for (const std::uint64_t n : ns) {
    const stats::ExactRemainder rem(n);
    // Multiples of n (wrapping past 2^64 is just another x to check).
    std::vector<std::uint64_t> xs = {0, 1, n - 1, n, kMax};
    for (const std::uint64_t k :
         {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{1000},
          std::uint64_t{1} << 32, kMax / n}) {
      xs.push_back(k * n - 1);
      xs.push_back(k * n);
      xs.push_back(k * n + 1);
    }
    for (const std::uint64_t x : xs) {
      EXPECT_EQ(rem(x), x % n) << "x " << x << " n " << n;
    }
  }
  // Seeded splitmix draws against every divisor above, and against a fresh
  // drawn divisor for each one.
  std::uint64_t state = 0xd1f2e3u;
  const auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<stats::ExactRemainder> rems;
  for (const std::uint64_t n : ns) {
    rems.emplace_back(n);
  }
  std::size_t mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t x = next();
    for (std::size_t d = 0; d < rems.size(); ++d) {
      mismatches += rems[d](x) != x % ns[d] ? 1 : 0;
    }
    // Drawn divisors, from small to full width.
    const std::uint64_t n = std::max<std::uint64_t>(next() >> (i % 64), 1);
    mismatches += stats::ExactRemainder(n)(x) != x % n ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(StatsEngine, BootstrapColumnsRejectRaggedOrEmpty) {
  const auto expect_error = [](const auto& call, const std::string& needle) {
    try {
      (void)call();
      FAIL() << "expected invalid_argument mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  };
  const std::vector<double> three = {1.0, 2.0, 3.0};
  const std::vector<double> two = {1.0, 2.0};
  const std::vector<double> none;
  const std::vector<std::span<const double>> ragged = {three, two};
  const std::vector<std::span<const double>> with_empty = {none, none};
  const std::vector<std::span<const double>> ok = {three, three};
  const std::vector<std::span<const double>> one = {two};
  const std::vector<std::span<const double>> no_columns;

  expect_error([&] { return stats::bootstrap_mean_cis(no_columns); },
               "bootstrap_mean_cis: no columns");
  expect_error([&] { return stats::bootstrap_mean_cis(with_empty); },
               "bootstrap_mean_cis: empty sample");
  expect_error([&] { return stats::bootstrap_mean_cis(ragged); },
               "column 1 has 2 values but column 0 has 3");
  expect_error(
      [&] { return stats::bootstrap_mean_diff_cis(ok, one); },
      "columns_a has 2 columns but columns_b has 1");
  expect_error(
      [&] { return stats::bootstrap_mean_diff_cis(ragged, ragged); },
      "columns_a: column 1 has 2 values");
  expect_error(
      [&] { return stats::bootstrap_mean_diff_cis(ok, ragged); },
      "columns_b: column 1 has 2 values");
  expect_error(
      [&] { return stats::bootstrap_mean_diff_cis(ok, with_empty); },
      "columns_b: empty sample");
  expect_error(
      [&] { return stats::bootstrap_mean_diff_cis(no_columns, no_columns); },
      "columns_a: no columns");
  // The config is checked first, as for the one-column calls.
  stats::BootstrapConfig bad;
  bad.resamples = 0;
  expect_error([&] { return stats::bootstrap_mean_cis(ok, bad); },
               "resamples must be positive");
}

}  // namespace
}  // namespace vbr
