#include "exp/ab.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_util.h"

namespace vbr::exp {

namespace {

// Fixed session-outcome metrics appended after the QoE-model scores.
constexpr const char* kFixedMetrics[] = {
    "rebuffer_s",
    "all_quality_mean",
    "startup_delay_s",
    "data_usage_mb",
};

double fixed_metric_value(const fleet::FleetSessionRecord& rec,
                          std::size_t which) {
  switch (which) {
    case 0:
      return rec.qoe.rebuffer_s;
    case 1:
      return rec.qoe.all_quality_mean;
    case 2:
      return rec.qoe.startup_delay_s;
    default:
      return rec.qoe.data_usage_mb;
  }
}

// Session values of one cell (an arm, or an arm within a stratum), one
// column per metric; every column holds the same sessions in session-id
// (arrival) order, so every downstream statistic folds deterministically.
using Cell = std::vector<std::vector<double>>;

std::vector<std::span<const double>> column_spans(const Cell& cell) {
  return {cell.begin(), cell.end()};
}

// Per-metric point estimates for one cell. With at least `min_n_for_ci`
// sessions, one bootstrap over all the metric columns adds the CIs.
std::vector<AbEstimate> estimate_cell(const Cell& cell,
                                      const stats::BootstrapConfig& b,
                                      std::size_t min_n_for_ci) {
  std::vector<AbEstimate> out(cell.size());
  for (std::size_t m = 0; m < cell.size(); ++m) {
    const std::vector<double>& xs = cell[m];
    double sum = 0.0;
    for (double v : xs) {
      sum += v;
    }
    out[m].n = xs.size();
    out[m].mean = xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
  }
  const std::size_t n = cell.front().size();
  if (n >= min_n_for_ci && n > 0) {
    const std::vector<stats::BootstrapCi> cis =
        stats::bootstrap_mean_cis(column_spans(cell), b);
    for (std::size_t m = 0; m < cell.size(); ++m) {
      out[m].has_ci = true;
      out[m].lo = cis[m].lo;
      out[m].hi = cis[m].hi;
    }
  }
  return out;
}

void append_estimate(std::string& s, const AbEstimate& e) {
  using obs::detail::append_double;
  using obs::detail::append_uint;
  s += "{\"n\":";
  append_uint(s, e.n);
  s += ",\"mean\":";
  append_double(s, e.mean);
  if (e.has_ci) {
    s += ",\"lo\":";
    append_double(s, e.lo);
    s += ",\"hi\":";
    append_double(s, e.hi);
  }
  s += "}";
}

}  // namespace

void AbAnalysisConfig::validate() const {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    throw std::invalid_argument(
        "AbAnalysisConfig.alpha: must be in (0, 1)");
  }
  if (bootstrap.resamples == 0) {
    throw std::invalid_argument(
        "AbAnalysisConfig.bootstrap.resamples: must be >= 1");
  }
  if (!(bootstrap.confidence > 0.0 && bootstrap.confidence < 1.0)) {
    throw std::invalid_argument(
        "AbAnalysisConfig.bootstrap.confidence: must be in (0, 1)");
  }
  if (min_stratum_sessions < 2) {
    throw std::invalid_argument(
        "AbAnalysisConfig.min_stratum_sessions: must be >= 2 (the bootstrap "
        "needs at least two observations)");
  }
}

bool AbReport::any_significant() const {
  for (const AbMetricReport& m : metrics) {
    for (const AbPairTest& p : m.pairs) {
      if (p.significant) {
        return true;
      }
    }
  }
  return false;
}

AbReport analyze_ab(const fleet::FleetResult& result,
                    const AbAnalysisConfig& cfg) {
  cfg.validate();
  if (!result.experiment_enabled) {
    throw std::invalid_argument(
        "analyze_ab: FleetResult.experiment_enabled is false — the fleet run "
        "had no FleetSpec.experiment block");
  }
  const std::size_t num_arms = result.per_class.size();
  const std::size_t num_qoe = result.qoe_model_names.size();
  const std::size_t num_fixed = std::size(kFixedMetrics);
  const std::size_t num_metrics = num_qoe + num_fixed;

  AbReport report;
  report.alpha = cfg.alpha;
  report.arm_labels.reserve(num_arms);
  for (const fleet::FleetSchemeReport& r : result.per_class) {
    report.arm_labels.push_back(r.label);
  }
  report.metric_names = result.qoe_model_names;
  for (const char* name : kFixedMetrics) {
    report.metric_names.emplace_back(name);
  }

  // values[arm][metric], and the same per stratum (std::map = ascending
  // stratum order).
  std::vector<Cell> values(num_arms, Cell(num_metrics));
  std::map<std::uint32_t, std::vector<Cell>> stratum_values;
  for (const fleet::FleetSessionRecord& rec : result.sessions) {
    if (rec.class_index >= num_arms) {
      continue;
    }
    auto it = stratum_values.find(rec.stratum);
    if (it == stratum_values.end()) {
      it = stratum_values
               .emplace(rec.stratum,
                        std::vector<Cell>(num_arms, Cell(num_metrics)))
               .first;
    }
    for (std::size_t m = 0; m < num_metrics; ++m) {
      double v = 0.0;
      if (m < num_qoe) {
        v = m < rec.qoe_scores.size() ? rec.qoe_scores[m] : 0.0;
      } else {
        v = fixed_metric_value(rec, m - num_qoe);
      }
      values[rec.class_index][m].push_back(v);
      it->second[rec.class_index][m].push_back(v);
    }
  }
  for (std::size_t a = 0; a < num_arms; ++a) {
    if (values[a][0].size() < 2) {
      throw std::invalid_argument(
          "analyze_ab: arm \"" + report.arm_labels[a] +
          "\" has fewer than 2 sessions — the tests need n >= 2 per arm");
    }
  }

  // One column bootstrap per arm and per arm pair serves every metric.
  std::vector<std::vector<AbEstimate>> arm_estimates;
  arm_estimates.reserve(num_arms);
  for (std::size_t a = 0; a < num_arms; ++a) {
    arm_estimates.push_back(estimate_cell(values[a], cfg.bootstrap, 2));
  }
  std::vector<std::vector<stats::BootstrapCi>> pair_diffs;
  for (std::size_t a = 0; a < num_arms; ++a) {
    for (std::size_t b = a + 1; b < num_arms; ++b) {
      pair_diffs.push_back(stats::bootstrap_mean_diff_cis(
          column_spans(values[a]), column_spans(values[b]), cfg.bootstrap));
    }
  }

  // Build every metric report, collecting raw p-values into one flat family
  // ordered (metric, pair, {welch, mwu}) for a single BH correction.
  std::vector<double> family;
  family.reserve(num_metrics * num_arms * num_arms);
  report.metrics.resize(num_metrics);
  for (std::size_t m = 0; m < num_metrics; ++m) {
    AbMetricReport& mr = report.metrics[m];
    mr.metric = report.metric_names[m];
    mr.arms.reserve(num_arms);
    for (std::size_t a = 0; a < num_arms; ++a) {
      mr.arms.push_back(arm_estimates[a][m]);
    }
    std::size_t pair = 0;
    for (std::size_t a = 0; a < num_arms; ++a) {
      for (std::size_t b = a + 1; b < num_arms; ++b) {
        AbPairTest pt;
        pt.arm_a = a;
        pt.arm_b = b;
        pt.welch = stats::welch_t_test(values[a][m], values[b][m]);
        pt.mwu = stats::mann_whitney_u(values[a][m], values[b][m]);
        pt.diff = pair_diffs[pair++][m];
        family.push_back(pt.welch.p);
        family.push_back(pt.mwu.p);
        mr.pairs.push_back(std::move(pt));
      }
    }
  }
  report.hypotheses = family.size();
  const std::vector<double> adjusted = stats::benjamini_hochberg(family);
  std::size_t k = 0;
  for (AbMetricReport& mr : report.metrics) {
    for (AbPairTest& pt : mr.pairs) {
      pt.welch_p_adj = adjusted[k++];
      pt.mwu_p_adj = adjusted[k++];
      pt.significant =
          std::min(pt.welch_p_adj, pt.mwu_p_adj) < cfg.alpha;
    }
  }

  // Per-stratum breakdown: point estimates always, CIs only with enough
  // sessions in the cell.
  report.strata.reserve(stratum_values.size());
  for (const auto& [stratum, cells] : stratum_values) {
    AbStratumReport sr;
    sr.stratum = stratum;
    sr.cells.assign(num_metrics, std::vector<AbEstimate>(num_arms));
    for (std::size_t a = 0; a < num_arms; ++a) {
      const std::vector<AbEstimate> est =
          estimate_cell(cells[a], cfg.bootstrap, cfg.min_stratum_sessions);
      for (std::size_t m = 0; m < num_metrics; ++m) {
        sr.cells[m][a] = est[m];
      }
    }
    report.strata.push_back(std::move(sr));
  }
  return report;
}

void AbReport::write_json(std::ostream& out) const {
  using obs::detail::append_double;
  using obs::detail::append_json_string;
  using obs::detail::append_uint;

  std::string s;
  s.reserve(4096);
  s += "{\"arms\":[";
  for (std::size_t a = 0; a < arm_labels.size(); ++a) {
    if (a > 0) {
      s += ',';
    }
    append_json_string(s, arm_labels[a]);
  }
  s += "],\"alpha\":";
  append_double(s, alpha);
  s += ",\"hypotheses\":";
  append_uint(s, hypotheses);
  s += ",\"metrics\":[";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    const AbMetricReport& mr = metrics[m];
    if (m > 0) {
      s += ',';
    }
    s += "{\"metric\":";
    append_json_string(s, mr.metric);
    s += ",\"arms\":[";
    for (std::size_t a = 0; a < mr.arms.size(); ++a) {
      if (a > 0) {
        s += ',';
      }
      append_estimate(s, mr.arms[a]);
    }
    s += "],\"pairs\":[";
    for (std::size_t p = 0; p < mr.pairs.size(); ++p) {
      const AbPairTest& pt = mr.pairs[p];
      if (p > 0) {
        s += ',';
      }
      s += "{\"a\":";
      append_uint(s, pt.arm_a);
      s += ",\"b\":";
      append_uint(s, pt.arm_b);
      s += ",\"welch_t\":";
      append_double(s, pt.welch.t);
      s += ",\"welch_df\":";
      append_double(s, pt.welch.df);
      s += ",\"welch_p\":";
      append_double(s, pt.welch.p);
      s += ",\"welch_p_adj\":";
      append_double(s, pt.welch_p_adj);
      s += ",\"mwu_u1\":";
      append_double(s, pt.mwu.u1);
      s += ",\"mwu_p\":";
      append_double(s, pt.mwu.p);
      s += ",\"mwu_p_adj\":";
      append_double(s, pt.mwu_p_adj);
      s += ",\"diff\":";
      append_double(s, pt.diff.point);
      s += ",\"diff_lo\":";
      append_double(s, pt.diff.lo);
      s += ",\"diff_hi\":";
      append_double(s, pt.diff.hi);
      s += ",\"significant\":";
      s += pt.significant ? "true" : "false";
      s += "}";
    }
    // Square significant-pair matrix (row-major, self-pairs false).
    s += "],\"significant_matrix\":[";
    const std::size_t n = arm_labels.size();
    std::vector<bool> sig(n * n, false);
    for (const AbPairTest& pt : mr.pairs) {
      if (pt.significant) {
        sig[pt.arm_a * n + pt.arm_b] = true;
        sig[pt.arm_b * n + pt.arm_a] = true;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) {
        s += ',';
      }
      s += '[';
      for (std::size_t j = 0; j < n; ++j) {
        if (j > 0) {
          s += ',';
        }
        s += sig[i * n + j] ? "true" : "false";
      }
      s += ']';
    }
    s += "]}";
  }
  s += "],\"strata\":[";
  for (std::size_t si = 0; si < strata.size(); ++si) {
    const AbStratumReport& sr = strata[si];
    if (si > 0) {
      s += ',';
    }
    s += "{\"stratum\":";
    append_uint(s, sr.stratum);
    s += ",\"cells\":[";
    for (std::size_t m = 0; m < sr.cells.size(); ++m) {
      if (m > 0) {
        s += ',';
      }
      s += '[';
      for (std::size_t a = 0; a < sr.cells[m].size(); ++a) {
        if (a > 0) {
          s += ',';
        }
        append_estimate(s, sr.cells[m][a]);
      }
      s += ']';
    }
    s += "]}";
  }
  s += "]}";
  out << s << '\n';
}

}  // namespace vbr::exp
