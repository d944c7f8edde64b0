// In-situ A/B experimentation harness: stratified permuted-block balance,
// thread/title_batch invariance of the assignment and the full ab_report
// JSON, the A/A invariance property (identical arms must not light up after
// BH correction), a real handicapped-arm detection, spec / config / input
// validation with field-named errors, and FNV-1a-64 pins of the report
// bytes that hold across commits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "abr/bba.h"
#include "abr/scheme.h"
#include "exp/ab.h"
#include "fleet/fleet.h"
#include "test_util.h"

namespace vbr {
namespace {

fleet::FleetClientClass make_arm(const std::string& label,
                                 sim::SchemeFactory factory) {
  fleet::FleetClientClass c;
  c.label = label;
  c.make_scheme = std::move(factory);
  return c;
}

std::vector<net::Trace> ab_traces() {
  std::vector<net::Trace> traces;
  traces.push_back(testutil::flat_trace(5e6, 600.0));
  traces.push_back(testutil::flat_trace(2.5e6, 600.0));
  traces.push_back(testutil::flat_trace(1.2e6, 600.0));
  return traces;
}

/// A small experiment fleet: ~`sessions` arrivals over 6 short titles,
/// three traces spanning distinct bandwidth strata.
fleet::FleetSpec ab_spec(const std::vector<net::Trace>& traces,
                         std::size_t sessions = 90) {
  fleet::FleetSpec spec;
  spec.catalog.num_titles = 6;
  spec.catalog.title_duration_s = 40.0;
  spec.catalog.chunk_duration_s = 2.0;
  spec.arrivals.rate_per_s = 0.6;
  spec.arrivals.horizon_s = 400.0;
  spec.arrivals.max_sessions = sessions;
  spec.traces = traces;
  spec.cache.capacity_bits = 1.2e9;
  spec.watch.full_watch_prob = 0.7;
  spec.watch.mean_partial_s = 20.0;
  spec.watch.min_watch_s = 4.0;
  spec.session.startup_latency_s = 4.0;
  spec.experiment.trace_strata = 3;
  return spec;
}

void add_three_arms(fleet::FleetSpec& spec) {
  spec.experiment.arms.push_back(make_arm(
      "bba", [] { return std::make_unique<abr::Bba>(); }));
  spec.experiment.arms.push_back(make_arm(
      "fixed-lo", [] { return std::make_unique<abr::FixedTrackScheme>(0); }));
  spec.experiment.arms.push_back(make_arm(
      "fixed-hi", [] { return std::make_unique<abr::FixedTrackScheme>(2); }));
}

/// Full serialized observation of one experiment run: the per-session
/// assignment table (arm + stratum + per-model scores) plus the complete
/// ab_report.json. Any schedule- or batch-dependence shows up as a byte
/// difference.
std::string run_and_serialize_ab(fleet::FleetSpec spec, unsigned threads,
                                 std::size_t title_batch) {
  spec.threads = threads;
  spec.title_batch = title_batch;
  const fleet::FleetResult result = fleet::run_fleet(spec);
  exp::AbAnalysisConfig cfg;
  cfg.bootstrap.resamples = 300;
  const exp::AbReport report = exp::analyze_ab(result, cfg);
  std::ostringstream out;
  for (const fleet::FleetSessionRecord& r : result.sessions) {
    out << r.session_id << ' ' << r.class_index << ' ' << r.stratum;
    for (const double s : r.qoe_scores) {
      out << ' ' << s;
    }
    out << '\n';
  }
  result.write_json(out);
  out << '\n';
  report.write_json(out);
  return out.str();
}

TEST(AbExperiment, PerStratumArmCountsBalanced) {
  const std::vector<net::Trace> traces = ab_traces();
  fleet::FleetSpec spec = ab_spec(traces);
  add_three_arms(spec);
  const fleet::FleetResult result = fleet::run_fleet(spec);
  ASSERT_TRUE(result.experiment_enabled);
  ASSERT_EQ(result.per_class.size(), 3u);

  // Permuted blocks: within every stratum the arm counts differ by <= 1.
  std::map<std::uint32_t, std::vector<std::size_t>> counts;
  for (const fleet::FleetSessionRecord& r : result.sessions) {
    auto& c = counts[r.stratum];
    c.resize(3, 0);
    ASSERT_LT(r.class_index, 3u);
    ++c[r.class_index];
  }
  EXPECT_GT(counts.size(), 1u);  // the strata actually spread
  for (const auto& [stratum, c] : counts) {
    const std::size_t lo = std::min({c[0], c[1], c[2]});
    const std::size_t hi = std::max({c[0], c[1], c[2]});
    EXPECT_LE(hi - lo, 1u) << "stratum " << stratum << " unbalanced: "
                           << c[0] << '/' << c[1] << '/' << c[2];
  }
}

TEST(AbExperiment, AssignmentAndReportByteIdenticalAcrossSchedules) {
  const std::vector<net::Trace> traces = ab_traces();
  fleet::FleetSpec spec = ab_spec(traces, 60);
  add_three_arms(spec);
  const std::string base = run_and_serialize_ab(spec, 1, 4);
  EXPECT_GT(base.size(), 2000u);
  EXPECT_EQ(base, run_and_serialize_ab(spec, 2, 4));
  EXPECT_EQ(base, run_and_serialize_ab(spec, 8, 4));
  // title_batch is a work-claiming knob, never an assignment input.
  EXPECT_EQ(base, run_and_serialize_ab(spec, 8, 1));
  EXPECT_EQ(base, run_and_serialize_ab(spec, 2, 9));
}

TEST(AbExperiment, ReRandomizationMovesAssignmentOnly) {
  const std::vector<net::Trace> traces = ab_traces();
  fleet::FleetSpec spec = ab_spec(traces, 60);
  add_three_arms(spec);
  const fleet::FleetResult a = fleet::run_fleet(spec);
  spec.experiment.seed = 4242;
  const fleet::FleetResult b = fleet::run_fleet(spec);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  bool any_moved = false;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    // The workload draw (title, trace, stratum) is pinned by spec.seed and
    // must survive re-randomization; only the arm may move.
    EXPECT_EQ(a.sessions[i].title, b.sessions[i].title);
    EXPECT_EQ(a.sessions[i].trace_index, b.sessions[i].trace_index);
    EXPECT_EQ(a.sessions[i].stratum, b.sessions[i].stratum);
    any_moved |= a.sessions[i].class_index != b.sessions[i].class_index;
  }
  EXPECT_TRUE(any_moved);
}

TEST(AbExperiment, AaIdenticalArmsNeverSignificantAcrossSeeds) {
  // The A/A property: with byte-identical arms the outcome population is
  // fixed and the assignment is a balanced random split, so after BH
  // correction no (metric, pair) hypothesis may reach significance — for
  // every re-randomization seed. Everything is counter-based, so this is a
  // deterministic pin, not a flaky sampling test.
  const std::vector<net::Trace> traces = ab_traces();
  exp::AbAnalysisConfig cfg;
  cfg.bootstrap.resamples = 100;  // CIs are not under test here
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    fleet::FleetSpec spec = ab_spec(traces, 70);
    spec.experiment.arms.push_back(make_arm(
        "a", [] { return std::make_unique<abr::Bba>(); }));
    spec.experiment.arms.push_back(make_arm(
        "b", [] { return std::make_unique<abr::Bba>(); }));
    spec.experiment.seed = seed;
    const fleet::FleetResult result = fleet::run_fleet(spec);
    const exp::AbReport report = exp::analyze_ab(result, cfg);
    EXPECT_FALSE(report.any_significant())
        << "A/A run lit up at experiment seed " << seed;
  }
}

TEST(AbExperiment, ThreeArmReportStructure) {
  const std::vector<net::Trace> traces = ab_traces();
  fleet::FleetSpec spec = ab_spec(traces);
  add_three_arms(spec);
  const fleet::FleetResult result = fleet::run_fleet(spec);
  exp::AbAnalysisConfig cfg;
  cfg.bootstrap.resamples = 300;
  const exp::AbReport report = exp::analyze_ab(result, cfg);

  ASSERT_EQ(report.arm_labels.size(), 3u);
  EXPECT_EQ(report.arm_labels[0], "bba");
  // Metrics: the four pluggable QoE models first, then the fixed outcomes.
  ASSERT_EQ(result.qoe_model_names.size(), 4u);
  ASSERT_EQ(report.metric_names.size(), 8u);
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(report.metric_names[m], result.qoe_model_names[m]);
  }
  EXPECT_EQ(report.metric_names[4], "rebuffer_s");
  EXPECT_EQ(report.hypotheses, 8u * 3u * 2u);  // metrics * pairs * 2 tests

  ASSERT_EQ(report.metrics.size(), 8u);
  for (const exp::AbMetricReport& m : report.metrics) {
    ASSERT_EQ(m.arms.size(), 3u);
    std::size_t total = 0;
    for (const exp::AbEstimate& e : m.arms) {
      EXPECT_GE(e.n, 2u);
      total += e.n;
      if (e.has_ci) {
        EXPECT_LE(e.lo, e.mean);
        EXPECT_GE(e.hi, e.mean);
      }
    }
    EXPECT_EQ(total, result.sessions.size());
    ASSERT_EQ(m.pairs.size(), 3u);  // (0,1), (0,2), (1,2)
    for (const exp::AbPairTest& p : m.pairs) {
      EXPECT_LT(p.arm_a, p.arm_b);
      EXPECT_GE(p.welch_p_adj, p.welch.p - 1e-15);  // BH only raises
      EXPECT_GE(p.mwu_p_adj, p.mwu.p - 1e-15);
      EXPECT_LE(p.diff.lo, p.diff.point);
      EXPECT_GE(p.diff.hi, p.diff.point);
    }
  }

  // Per-stratum breakdown exists, is sorted, and cells line up.
  ASSERT_FALSE(report.strata.empty());
  for (std::size_t i = 1; i < report.strata.size(); ++i) {
    EXPECT_LT(report.strata[i - 1].stratum, report.strata[i].stratum);
  }
  for (const exp::AbStratumReport& s : report.strata) {
    ASSERT_EQ(s.cells.size(), 8u);
    for (const auto& arms : s.cells) {
      EXPECT_EQ(arms.size(), 3u);
    }
  }

  // The serialized report carries the matrix and the per-stratum cells.
  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"significant_matrix\""), std::string::npos);
  EXPECT_NE(json.find("\"strata\""), std::string::npos);
  EXPECT_NE(json.find("\"hypotheses\":48"), std::string::npos);
  EXPECT_NE(json.find("\"pos_rebuffer_phone\""), std::string::npos);
}

TEST(AbExperiment, HandicappedArmIsDetected) {
  // Lowest track vs highest track on mostly-comfortable bandwidth: the
  // quality gap is enormous and must survive BH correction.
  const std::vector<net::Trace> traces = ab_traces();
  fleet::FleetSpec spec = ab_spec(traces);
  spec.experiment.arms.push_back(make_arm(
      "floor", [] { return std::make_unique<abr::FixedTrackScheme>(0); }));
  spec.experiment.arms.push_back(make_arm(
      "ceiling", [] { return std::make_unique<abr::FixedTrackScheme>(2); }));
  const fleet::FleetResult result = fleet::run_fleet(spec);
  exp::AbAnalysisConfig cfg;
  cfg.bootstrap.resamples = 300;
  const exp::AbReport report = exp::analyze_ab(result, cfg);
  ASSERT_TRUE(report.any_significant());

  bool quality_significant = false;
  for (const exp::AbMetricReport& m : report.metrics) {
    if (m.metric != "all_quality_mean") {
      continue;
    }
    ASSERT_EQ(m.pairs.size(), 1u);
    quality_significant = m.pairs[0].significant;
    // diff = mean(floor) - mean(ceiling): the floor arm watches worse video.
    EXPECT_LT(m.pairs[0].diff.point, 0.0);
    EXPECT_LT(m.pairs[0].diff.hi, 0.0);  // the whole CI is below zero
  }
  EXPECT_TRUE(quality_significant);
}

TEST(AbExperiment, SpecValidationNamesTheField) {
  const std::vector<net::Trace> traces = ab_traces();
  const auto expect_validate_error = [&](fleet::FleetSpec& spec,
                                         const std::string& needle) {
    try {
      spec.validate();
      FAIL() << "expected invalid_argument mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  };

  {  // classes and arms are mutually exclusive
    fleet::FleetSpec spec = ab_spec(traces);
    add_three_arms(spec);
    spec.classes.push_back(make_arm(
        "extra", [] { return std::make_unique<abr::Bba>(); }));
    expect_validate_error(spec, "leave FleetSpec.classes empty");
  }
  {  // one arm is not an experiment
    fleet::FleetSpec spec = ab_spec(traces);
    spec.experiment.arms.push_back(make_arm(
        "only", [] { return std::make_unique<abr::Bba>(); }));
    expect_validate_error(spec, "at least two");
  }
  {  // arm cap
    fleet::FleetSpec spec = ab_spec(traces);
    for (int i = 0; i < 65; ++i) {
      spec.experiment.arms.push_back(make_arm(
          "arm" + std::to_string(i),
          [] { return std::make_unique<abr::Bba>(); }));
    }
    expect_validate_error(spec, "at most 64 arms");
  }
  {  // trace_strata range
    fleet::FleetSpec spec = ab_spec(traces);
    add_three_arms(spec);
    spec.experiment.trace_strata = 0;
    expect_validate_error(spec, "FleetSpec.experiment.trace_strata");
    spec.experiment.trace_strata = 65;
    expect_validate_error(spec, "FleetSpec.experiment.trace_strata");
  }
  {  // labels are mandatory and unique
    fleet::FleetSpec spec = ab_spec(traces);
    add_three_arms(spec);
    spec.experiment.arms[1].label.clear();
    expect_validate_error(spec, "arms[1].label");
    spec.experiment.arms[1].label = "bba";
    expect_validate_error(spec, "duplicate label 'bba'");
  }
}

TEST(AbExperiment, AnalyzeRejectsBadInput) {
  const std::vector<net::Trace> traces = ab_traces();

  // A plain (non-experiment) fleet result is not analyzable.
  fleet::FleetSpec plain = ab_spec(traces);
  plain.classes.push_back(make_arm(
      "bba", [] { return std::make_unique<abr::Bba>(); }));
  const fleet::FleetResult plain_result = fleet::run_fleet(plain);
  EXPECT_THROW((void)exp::analyze_ab(plain_result), std::invalid_argument);

  // An arm with fewer than two sessions cannot be tested: 3 sessions over
  // 2 arms always leaves one side with n <= 1.
  fleet::FleetSpec tiny = ab_spec(traces, 3);
  tiny.experiment.arms.push_back(make_arm(
      "a", [] { return std::make_unique<abr::Bba>(); }));
  tiny.experiment.arms.push_back(make_arm(
      "b", [] { return std::make_unique<abr::Bba>(); }));
  const fleet::FleetResult tiny_result = fleet::run_fleet(tiny);
  try {
    (void)exp::analyze_ab(tiny_result);
    FAIL() << "expected n < 2 rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fewer than 2 sessions"),
              std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(AbExperiment, AnalysisConfigValidation) {
  const auto expect_cfg_error = [](exp::AbAnalysisConfig cfg,
                                   const std::string& needle) {
    try {
      cfg.validate();
      FAIL() << "expected invalid_argument mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  };
  exp::AbAnalysisConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.alpha = 0.0;
  expect_cfg_error(cfg, "AbAnalysisConfig.alpha");
  cfg.alpha = 1.0;
  expect_cfg_error(cfg, "AbAnalysisConfig.alpha");
  cfg = exp::AbAnalysisConfig();
  cfg.bootstrap.resamples = 0;
  expect_cfg_error(cfg, "AbAnalysisConfig.bootstrap.resamples");
  cfg = exp::AbAnalysisConfig();
  cfg.bootstrap.confidence = 1.0;
  expect_cfg_error(cfg, "AbAnalysisConfig.bootstrap.confidence");
  cfg = exp::AbAnalysisConfig();
  cfg.min_stratum_sessions = 1;
  expect_cfg_error(cfg, "AbAnalysisConfig.min_stratum_sessions");
}

// ------------------------------------------------------------ report pins --

enum class Arms { kTwo, kThree };

struct ReportCase {
  const char* name;
  Arms arms;
  std::size_t sessions;
  stats::BootstrapKind kind;
  std::size_t min_stratum_sessions;
  const char* pin;
};

// The 90-session fleets leave most strata with a handful of sessions per
// arm: at the default floor of 8 every stratum cell is a bare point
// estimate; at a floor of 2 the cells split into CIs, sub-floor singletons
// and empty cells (an arm that never reached the stratum). Neither bba nor
// fixed-lo ever rebuffers, so in the 2-arm fleets rebuffer_s is 0 for every
// session: its arm intervals and their difference are degenerate.
const ReportCase kReportCases[] = {
    {"2 arms bca", Arms::kTwo, 90, stats::BootstrapKind::kBca, 8,
     "c6b277b1ac0e6503"},
    {"2 arms percentile", Arms::kTwo, 90, stats::BootstrapKind::kPercentile,
     8, "c27e1d1e4019716b"},
    {"3 arms bca", Arms::kThree, 90, stats::BootstrapKind::kBca, 8,
     "48ca424a9717712f"},
    {"3 arms percentile", Arms::kThree, 90,
     stats::BootstrapKind::kPercentile, 8, "d04367beeb800baf"},
    {"3 arms bca floor 2", Arms::kThree, 90, stats::BootstrapKind::kBca, 2,
     "17d35d814de36dde"},
    {"3 arms percentile floor 2", Arms::kThree, 90,
     stats::BootstrapKind::kPercentile, 2, "bde8878bdb25e9c5"},
};

/// What the pinned reports exercise, summed over all cases.
struct ReportCoverage {
  std::size_t sub_floor_cells = 0;  ///< n > 0 but no CI.
  std::size_t empty_cells = 0;      ///< n == 0.
  std::size_t stratum_cis = 0;
  std::size_t degenerate_cis = 0;  ///< lo == hi over n >= 2 sessions.
  std::size_t degenerate_diffs = 0;  ///< Both arms constant.
};

std::string run_report_case(const ReportCase& c, ReportCoverage* cov) {
  const std::vector<net::Trace> traces = ab_traces();
  fleet::FleetSpec spec = ab_spec(traces, c.sessions);
  if (c.arms == Arms::kThree) {
    add_three_arms(spec);
  } else {
    spec.experiment.arms.push_back(make_arm(
        "bba", [] { return std::make_unique<abr::Bba>(); }));
    spec.experiment.arms.push_back(make_arm(
        "fixed-lo",
        [] { return std::make_unique<abr::FixedTrackScheme>(0); }));
  }
  const fleet::FleetResult result = fleet::run_fleet(spec);
  exp::AbAnalysisConfig cfg;
  cfg.bootstrap.kind = c.kind;
  cfg.min_stratum_sessions = c.min_stratum_sessions;
  const exp::AbReport report = exp::analyze_ab(result, cfg);

  for (const exp::AbMetricReport& m : report.metrics) {
    for (const exp::AbEstimate& e : m.arms) {
      if (e.has_ci && e.n >= 2 && e.lo == e.hi) {
        ++cov->degenerate_cis;
      }
    }
    for (const exp::AbPairTest& p : m.pairs) {
      cov->degenerate_diffs += p.diff.lo == p.diff.hi ? 1 : 0;
    }
  }
  for (const exp::AbStratumReport& s : report.strata) {
    for (const auto& arms : s.cells) {
      for (const exp::AbEstimate& e : arms) {
        cov->empty_cells += e.n == 0 ? 1 : 0;
        cov->sub_floor_cells += e.n > 0 && !e.has_ci ? 1 : 0;
        cov->stratum_cis += e.has_ci ? 1 : 0;
      }
    }
  }
  std::ostringstream out;
  report.write_json(out);
  return testutil::fnv1a64_hex(out.str());
}

TEST(AbExperiment, ReportMatchesPins) {
  ReportCoverage cov;
  for (const ReportCase& c : kReportCases) {
    EXPECT_EQ(run_report_case(c, &cov), c.pin) << c.name;
  }
  // The pins see every branch of the estimate and interval code.
  EXPECT_GT(cov.sub_floor_cells, 0u);
  EXPECT_GT(cov.empty_cells, 0u);
  EXPECT_GT(cov.stratum_cis, 0u);
  EXPECT_GT(cov.degenerate_cis, 0u);
  EXPECT_GT(cov.degenerate_diffs, 0u);
}

}  // namespace
}  // namespace vbr
