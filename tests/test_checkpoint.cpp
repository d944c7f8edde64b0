// Crash-safe fleet checkpoints (fleet/checkpoint.h): kill-at-any-point
// resume-to-byte-identical-output across thread counts, save/load
// exactness, stale/corrupt checkpoint rejection with named errors, and
// errno-carrying save failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "abr/bba.h"
#include "abr/scheme.h"
#include "exp/ab.h"
#include "fleet/arrivals.h"
#include "fleet/checkpoint.h"
#include "fleet/fleet.h"
#include "obs/jsonl_io.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "test_util.h"

namespace vbr {
namespace {

std::vector<net::Trace> two_traces() {
  std::vector<net::Trace> traces;
  traces.push_back(testutil::flat_trace(4e6, 600.0));
  traces.push_back(testutil::flat_trace(1.5e6, 600.0));
  return traces;
}

/// The checkpoint test fleet: ~40 mixed-scheme sessions over 6 titles with
/// an eviction-prone cache, telemetry on, periodic checkpoints every 8
/// sessions.
fleet::FleetSpec ck_spec(const std::vector<net::Trace>& traces,
                         const std::string& checkpoint_path) {
  fleet::FleetSpec spec;
  spec.catalog.num_titles = 6;
  spec.catalog.title_duration_s = 40.0;
  spec.arrivals.rate_per_s = 0.3;
  spec.arrivals.horizon_s = 150.0;
  spec.arrivals.max_sessions = 40;
  spec.classes.resize(2);
  spec.classes[0].label = "bba";
  spec.classes[0].make_scheme = [] { return std::make_unique<abr::Bba>(); };
  spec.classes[1].label = "fixed1";
  spec.classes[1].make_scheme = [] {
    return std::make_unique<abr::FixedTrackScheme>(1);
  };
  spec.traces = traces;
  spec.cache.capacity_bits = 1.2e9;
  spec.watch.full_watch_prob = 0.5;
  spec.watch.mean_partial_s = 20.0;
  spec.watch.min_watch_s = 4.0;
  spec.session.startup_latency_s = 4.0;
  spec.checkpoint_path = checkpoint_path;
  spec.checkpoint_every = 8;
  return spec;
}

/// Full serialized observation of one completed run: merged events,
/// deterministic metrics fingerprint, report JSON, per-session table.
std::string run_and_serialize(fleet::FleetSpec spec, unsigned threads) {
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry registry;
  spec.trace = &sink;
  spec.metrics = &registry;
  spec.threads = threads;
  const fleet::FleetResult result = fleet::run_fleet(spec);

  std::ostringstream out;
  for (const obs::DecisionEvent& ev : sink.events()) {
    out << obs::to_jsonl(ev) << '\n';
  }
  out << registry.deterministic_fingerprint() << '\n';
  result.write_json(out);
  for (const fleet::FleetSessionRecord& r : result.sessions) {
    out << r.session_id << ' ' << r.arrival_s << ' ' << r.title << ' '
        << r.class_index << ' ' << r.chunks << ' ' << r.edge_hits << ' '
        << r.qoe.data_usage_mb << '\n';
  }
  return out.str();
}

/// Runs until the kill schedule fires; the final checkpoint lands on disk.
void run_until_killed(fleet::FleetSpec spec, unsigned threads,
                      std::uint64_t kill_after) {
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry registry;
  spec.trace = &sink;
  spec.metrics = &registry;
  spec.threads = threads;
  spec.kill.after_sessions = kill_after;
  try {
    (void)fleet::run_fleet(spec);
    FAIL() << "expected FleetKilled (kill_after=" << kill_after << ")";
  } catch (const fleet::FleetKilled& k) {
    EXPECT_GE(k.sessions_completed(), kill_after);
    EXPECT_EQ(k.checkpoint_path(), spec.checkpoint_path);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

/// Appends the canonical "end <8hex>\n" trailer (the checksum covers the
/// payload plus the "end " prefix, mirroring FleetCheckpoint::save).
std::string with_trailer(std::string body) {
  body += "end ";
  const std::uint32_t crc = obs::line_checksum(body);
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x", crc);
  body += hex;
  body += '\n';
  return body;
}

/// Sessions across every segment of a loaded journal.
std::uint64_t journaled_sessions(const fleet::FleetCheckpoint& ck) {
  std::uint64_t n = 0;
  for (const fleet::FleetCheckpoint::Segment& seg : ck.segments) {
    n += seg.sessions.size();
  }
  return n;
}

/// Byte offset at which each segment of a journal file starts (the byte
/// after the previous segment's "end <8hex>" trailer line).
std::vector<std::size_t> segment_starts(const std::string& bytes) {
  std::vector<std::size_t> starts{0};
  std::size_t at = bytes.find("\nend ");
  while (at != std::string::npos) {
    const std::size_t next = bytes.find('\n', at + 1) + 1;
    if (next < bytes.size()) {
      starts.push_back(next);
    }
    at = bytes.find("\nend ", next);
  }
  return starts;
}

/// The message of the CheckpointError load(path) throws ("(no error)" when
/// it loads).
std::string load_error(const std::string& path) {
  try {
    (void)fleet::FleetCheckpoint::load(path);
    return "(no error)";
  } catch (const fleet::CheckpointError& e) {
    return e.what();
  }
}

TEST(Checkpoint, KillAndResumeIsByteIdenticalAtAnyPointAndThreadCount) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string golden =
      run_and_serialize(ck_spec(traces, ""), 1);  // uninterrupted, no ckpt
  ASSERT_GT(golden.size(), 1000u);

  int case_id = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint64_t kill_after : {std::uint64_t{1},
                                           std::uint64_t{9},
                                           std::uint64_t{25}}) {
      const std::string path = testing::TempDir() + "ck_case_" +
                               std::to_string(case_id++) + ".ckpt";
      std::remove(path.c_str());
      run_until_killed(ck_spec(traces, path), threads, kill_after);
      fleet::FleetSpec resume = ck_spec(traces, path);
      resume.resume = true;
      EXPECT_EQ(run_and_serialize(resume, threads), golden)
          << "threads=" << threads << " kill_after=" << kill_after;
      std::remove(path.c_str());
    }
  }
}

TEST(Checkpoint, RepeatedKillsChainToTheSameGolden) {
  // The soak pattern: kill, resume, kill again further in, resume again —
  // each leg picks up from the last checkpoint and the final output still
  // matches an uninterrupted run byte for byte.
  const std::vector<net::Trace> traces = two_traces();
  const std::string golden = run_and_serialize(ck_spec(traces, ""), 2);
  const std::string path = testing::TempDir() + "ck_chain.ckpt";
  std::remove(path.c_str());

  run_until_killed(ck_spec(traces, path), 2, 4);
  fleet::FleetSpec mid = ck_spec(traces, path);
  mid.resume = true;
  run_until_killed(mid, 8, 17);
  fleet::FleetSpec last = ck_spec(traces, path);
  last.resume = true;
  run_until_killed(last, 1, 29);

  fleet::FleetSpec fin = ck_spec(traces, path);
  fin.resume = true;
  EXPECT_EQ(run_and_serialize(fin, 2), golden);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeWithAbsentFileIsAFreshRun) {
  // One flag serves every iteration of a kill/resume loop: when the
  // checkpoint file does not exist yet, --resume is a plain fresh run.
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_absent.ckpt";
  std::remove(path.c_str());
  fleet::FleetSpec spec = ck_spec(traces, path);
  spec.resume = true;
  const std::string out = run_and_serialize(spec, 2);
  EXPECT_EQ(out, run_and_serialize(ck_spec(traces, ""), 2));
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveLoadSaveIsByteExact) {
  // load() is an exact inverse of save(): re-serializing a loaded journal
  // reproduces the file byte for byte, segment structure included (doubles
  // are shortest round-trip, telemetry lines are canonical).
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_roundtrip.ckpt";
  std::remove(path.c_str());
  run_until_killed(ck_spec(traces, path), 2, 13);

  const fleet::FleetCheckpoint ck = fleet::FleetCheckpoint::load(path);
  ASSERT_EQ(ck.segments.size(), 2u);  // the periodic one at 8, the kill's
  const fleet::FleetCheckpoint::Segment& last = ck.segments.back();
  EXPECT_GT(last.num_sessions, 13u);  // rate x horizon yields ~37 arrivals
  EXPECT_GE(last.sessions_done, 13u);
  EXPECT_EQ(journaled_sessions(ck), last.sessions_done);
  EXPECT_EQ(ck.good_bytes, read_file(path).size());

  const std::string copy = path + ".copy";
  ck.save(copy);
  EXPECT_EQ(read_file(copy), read_file(path));
  std::remove(path.c_str());
  std::remove(copy.c_str());
}

TEST(Checkpoint, StaleCheckpointFromDifferentWorkloadRejected) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_stale.ckpt";
  std::remove(path.c_str());
  run_until_killed(ck_spec(traces, path), 2, 10);

  // Same file, different workload: seed, class mix weight, and arrival cap
  // each change the fingerprint (or geometry) and must be rejected.
  {
    fleet::FleetSpec other = ck_spec(traces, path);
    other.resume = true;
    other.seed = 8;
    EXPECT_THROW((void)fleet::run_fleet(other), fleet::CheckpointError);
  }
  {
    fleet::FleetSpec other = ck_spec(traces, path);
    other.resume = true;
    other.classes[0].weight = 2.0;
    EXPECT_THROW((void)fleet::run_fleet(other), fleet::CheckpointError);
  }
  {
    fleet::FleetSpec other = ck_spec(traces, path);
    other.resume = true;
    other.arrivals.max_sessions = 39;
    EXPECT_THROW((void)fleet::run_fleet(other), fleet::CheckpointError);
  }
  // ... while execution knobs are fingerprint-exempt: a different thread
  // count / batch size resumes fine (proved byte-identical above).
  {
    fleet::FleetSpec same = ck_spec(traces, path);
    same.resume = true;
    same.threads = 3;
    same.title_batch = 1;
    obs::MemoryTraceSink sink;
    obs::MetricsRegistry registry;
    same.trace = &sink;
    same.metrics = &registry;
    EXPECT_NO_THROW((void)fleet::run_fleet(same));
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptFilesRejectedWithNamedErrors) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_corrupt.ckpt";
  std::remove(path.c_str());
  run_until_killed(ck_spec(traces, path), 2, 10);
  const std::string good = read_file(path);
  ASSERT_GT(good.size(), 200u);
  const std::vector<std::size_t> starts = segment_starts(good);
  ASSERT_EQ(starts.size(), 2u);  // the periodic segment at 8, the kill's
  const std::size_t first_end = starts[1];

  const auto expect_rejected = [&](const std::string& bytes,
                                   const char* what) {
    write_file(path, bytes);
    EXPECT_THROW((void)fleet::FleetCheckpoint::load(path),
                 fleet::CheckpointError)
        << what;
  };
  expect_rejected("", "empty file");
  // The first segment is written atomically, so a torn one is damage, not
  // a crash signature: nothing usable remains.
  expect_rejected(good.substr(0, first_end / 2), "truncated first segment");
  {
    std::string flipped = good;
    flipped[first_end / 2] ^= 0x20;  // damage one interior byte
    expect_rejected(flipped, "interior bit flip (trailer mismatch)");
  }
  expect_rejected(with_trailer("NOTACKPT 1\nmeta 0 0 0 0 0\n"),
                  "bad magic");
  expect_rejected(with_trailer("VBRFLEETCKPT 99\nmeta 0 0 0 0 0\n"),
                  "unsupported version");
  {
    // Valid trailer, garbage header: the field parser must name the
    // problem, not crash.
    expect_rejected(
        with_trailer("VBRFLEETCKPT 5 seg 1 engine stepped events 0 meta "
                     "not-a-number\n"),
        "malformed meta fields");
  }
  // A pre-experiment (v2) checkpoint has no experiment fingerprint slot:
  // the version gate rejects it rather than guessing.
  expect_rejected(with_trailer("VBRFLEETCKPT 2\nmeta 0 0 0 0 0\n"),
                  "pre-experiment checkpoint version");

  // And the full resume path surfaces the same rejection.
  std::string damaged = good;
  damaged[first_end / 2] ^= 0x20;
  write_file(path, damaged);
  fleet::FleetSpec resume = ck_spec(traces, path);
  resume.resume = true;
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry registry;
  resume.trace = &sink;
  resume.metrics = &registry;
  EXPECT_THROW((void)fleet::run_fleet(resume), fleet::CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, EventLineDamageNamesTheFirstFailingLine) {
  // A segment whose trailer verifies but whose event lines do not (damage
  // made before the trailer was computed): load() names the first bad
  // event line of the segment, whatever follows it.
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_event_lines.ckpt";
  std::remove(path.c_str());
  run_until_killed(ck_spec(traces, path), 2, 10);
  const std::string good = read_file(path);
  const std::vector<std::size_t> starts = segment_starts(good);
  ASSERT_EQ(starts.size(), 2u);
  const std::string first = good.substr(0, starts[1]);
  const std::string body = first.substr(0, first.rfind("\nend ") + 1);

  std::vector<std::string> lines;
  for (std::size_t at = 0; at < body.size();) {
    const std::size_t nl = body.find('\n', at);
    lines.push_back(body.substr(at, nl - at));
    at = nl + 1;
  }
  std::vector<std::size_t> event_lines;  // 0-based indices into `lines`
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find('\t') != std::string::npos) {
      event_lines.push_back(i);
    }
  }
  ASSERT_GE(event_lines.size(), 8u);

  const auto load_damaged = [&](const std::vector<std::string>& damaged) {
    std::string bytes;
    for (const std::string& l : damaged) {
      bytes += l;
      bytes += '\n';
    }
    write_file(path, with_trailer(bytes));
    return load_error(path);
  };
  const auto names_line = [](std::size_t index, const std::string& what) {
    return "checkpoint: segment 1, line " + std::to_string(index + 1) + ": " +
           what;
  };
  ASSERT_EQ(load_damaged(lines), "(no error)");
  {
    // Payload damage in two lines: the earlier one is named.
    std::vector<std::string> d = lines;
    d[event_lines[5]][2] ^= 0x01;
    d[event_lines[1]][3] ^= 0x01;
    EXPECT_EQ(load_damaged(d),
              names_line(event_lines[1], "event line failed its checksum"));
  }
  {
    // A checksum digit changed to another hex digit.
    std::vector<std::string> d = lines;
    char& digit = d[event_lines[6]].back();
    digit = digit == '0' ? '1' : '0';
    EXPECT_EQ(load_damaged(d),
              names_line(event_lines[6], "event line failed its checksum"));
  }
  {
    // No separator left.
    std::vector<std::string> d = lines;
    d[event_lines[2]][d[event_lines[2]].rfind('\t')] = ' ';
    EXPECT_EQ(load_damaged(d),
              names_line(event_lines[2], "event line failed its checksum"));
  }
  {
    // A line with a valid checksum but no event in it, ahead of a line
    // that fails its checksum: the parse error comes first.
    std::vector<std::string> d = lines;
    d[event_lines[3]] = obs::checksummed_line("{\"not\":\"an event\"}");
    d[event_lines[4]][2] ^= 0x01;
    const std::string err = load_damaged(d);
    EXPECT_EQ(err.rfind(names_line(event_lines[3], "bad event line: "), 0),
              0u)
        << err;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveFailuresCarryErrno) {
  // A checkpoint routed through a regular file fails with ENOTDIR (robust
  // under root, unlike permission-bit tricks) — first from save() itself,
  // then surfaced out of run_fleet's checkpoint barrier.
  const std::string blocker = testing::TempDir() + "ck_not_a_dir";
  write_file(blocker, "x");
  const std::string bad_path = blocker + "/fleet.ckpt";

  fleet::FleetCheckpoint ck;
  try {
    ck.save(bad_path);
    FAIL() << "expected std::system_error";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ENOTDIR);
  }

  const std::vector<net::Trace> traces = two_traces();
  fleet::FleetSpec spec = ck_spec(traces, bad_path);
  spec.threads = 2;
  try {
    (void)fleet::run_fleet(spec);
    FAIL() << "expected std::system_error from the checkpoint barrier";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ENOTDIR);
  }
  std::remove(blocker.c_str());
}

TEST(Checkpoint, KillWithoutCheckpointPathStillStopsCleanly) {
  const std::vector<net::Trace> traces = two_traces();
  fleet::FleetSpec spec = ck_spec(traces, "");
  spec.threads = 2;
  spec.kill.after_sessions = 5;
  try {
    (void)fleet::run_fleet(spec);
    FAIL() << "expected FleetKilled";
  } catch (const fleet::FleetKilled& k) {
    EXPECT_GE(k.sessions_completed(), 5u);
    EXPECT_TRUE(k.checkpoint_path().empty());
  }
}

TEST(Checkpoint, RandomKillScheduleIsSeededAndInRange) {
  const fleet::KillSchedule a = fleet::KillSchedule::random(7, 0, 100);
  const fleet::KillSchedule b = fleet::KillSchedule::random(7, 0, 100);
  EXPECT_EQ(a.after_sessions, b.after_sessions);  // same draw, same point
  EXPECT_GE(a.after_sessions, 1u);
  EXPECT_LE(a.after_sessions, 100u);
  // Different rounds move the kill point (with overwhelming likelihood
  // over 64 rounds of a 100-wide range).
  bool moved = false;
  for (std::uint64_t round = 1; round <= 64 && !moved; ++round) {
    moved = fleet::KillSchedule::random(7, round, 100).after_sessions !=
            a.after_sessions;
  }
  EXPECT_TRUE(moved);
  EXPECT_EQ(fleet::KillSchedule::random(3, 5, 1).after_sessions, 1u);
}

/// ck_spec with the two classes moved into experiment arms (a 2-arm A/B
/// run over the same workload), checkpointing every 8 sessions.
fleet::FleetSpec ab_ck_spec(const std::vector<net::Trace>& traces,
                            const std::string& checkpoint_path) {
  fleet::FleetSpec spec = ck_spec(traces, checkpoint_path);
  spec.experiment.arms = std::move(spec.classes);
  spec.classes.clear();
  return spec;
}

/// run_and_serialize plus the experiment outputs: stratum and per-model
/// scores per session, and the full ab_report.json.
std::string run_and_serialize_ab(fleet::FleetSpec spec, unsigned threads) {
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry registry;
  spec.trace = &sink;
  spec.metrics = &registry;
  spec.threads = threads;
  const fleet::FleetResult result = fleet::run_fleet(spec);

  std::ostringstream out;
  for (const obs::DecisionEvent& ev : sink.events()) {
    out << obs::to_jsonl(ev) << '\n';
  }
  out << registry.deterministic_fingerprint() << '\n';
  result.write_json(out);
  for (const fleet::FleetSessionRecord& r : result.sessions) {
    out << r.session_id << ' ' << r.class_index << ' ' << r.stratum;
    for (const double s : r.qoe_scores) {
      out << ' ' << s;
    }
    out << '\n';
  }
  exp::AbAnalysisConfig cfg;
  cfg.bootstrap.resamples = 200;
  exp::analyze_ab(result, cfg).write_json(out);
  return out.str();
}

TEST(Checkpoint, KillAndResumeMidExperimentIsByteIdentical) {
  // The golden test for satellite (c): a crash in the middle of an A/B run
  // must resume to the same assignment table, session scores, and analysis
  // report, byte for byte, at any thread count.
  const std::vector<net::Trace> traces = two_traces();
  const std::string golden = run_and_serialize_ab(ab_ck_spec(traces, ""), 1);
  ASSERT_GT(golden.size(), 1000u);
  ASSERT_NE(golden.find("\"experiment\""), std::string::npos);

  int case_id = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint64_t kill_after :
         {std::uint64_t{3}, std::uint64_t{21}}) {
      const std::string path = testing::TempDir() + "ck_ab_case_" +
                               std::to_string(case_id++) + ".ckpt";
      std::remove(path.c_str());
      run_until_killed(ab_ck_spec(traces, path), threads, kill_after);
      fleet::FleetSpec resume = ab_ck_spec(traces, path);
      resume.resume = true;
      EXPECT_EQ(run_and_serialize_ab(resume, threads), golden)
          << "threads=" << threads << " kill_after=" << kill_after;
      std::remove(path.c_str());
    }
  }
}

TEST(Checkpoint, ResumeWithChangedExperimentNamesTheField) {
  // Resuming under a different arm table would silently mix assignment
  // schedules; the rejection must name FleetSpec.experiment, not fall back
  // to the generic fingerprint mismatch.
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_ab_stale.ckpt";
  std::remove(path.c_str());
  run_until_killed(ab_ck_spec(traces, path), 2, 10);

  const auto expect_experiment_rejection = [&](fleet::FleetSpec spec) {
    spec.resume = true;
    obs::MemoryTraceSink sink;
    obs::MetricsRegistry registry;
    spec.trace = &sink;
    spec.metrics = &registry;
    try {
      (void)fleet::run_fleet(spec);
      FAIL() << "expected CheckpointError naming FleetSpec.experiment";
    } catch (const fleet::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("FleetSpec.experiment"),
                std::string::npos)
          << "actual message: " << e.what();
    }
  };
  {  // re-randomized assignment seed
    fleet::FleetSpec spec = ab_ck_spec(traces, path);
    spec.experiment.seed = 999;
    expect_experiment_rejection(spec);
  }
  {  // renamed arm
    fleet::FleetSpec spec = ab_ck_spec(traces, path);
    spec.experiment.arms[1].label = "renamed";
    expect_experiment_rejection(spec);
  }
  {  // different stratification
    fleet::FleetSpec spec = ab_ck_spec(traces, path);
    spec.experiment.trace_strata = 2;
    expect_experiment_rejection(spec);
  }
  {  // scoring toggled off
    fleet::FleetSpec spec = ab_ck_spec(traces, path);
    spec.experiment.score_qoe_models = false;
    expect_experiment_rejection(spec);
  }
  // An experiment checkpoint resumed by a non-experiment spec with the
  // same shape is also an experiment change.
  {
    fleet::FleetSpec spec = ck_spec(traces, path);
    expect_experiment_rejection(spec);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ExperimentFingerprintCoversTheWholeBlock) {
  const std::vector<net::Trace> traces = two_traces();
  const fleet::FleetSpec base = ab_ck_spec(traces, "");
  const std::uint64_t fp = fleet::fleet_experiment_fingerprint(base);
  EXPECT_EQ(fleet::fleet_experiment_fingerprint(ab_ck_spec(traces, "")), fp);

  fleet::FleetSpec seed = ab_ck_spec(traces, "");
  seed.experiment.seed = 2;
  EXPECT_NE(fleet::fleet_experiment_fingerprint(seed), fp);
  fleet::FleetSpec strata = ab_ck_spec(traces, "");
  strata.experiment.trace_strata = 8;
  EXPECT_NE(fleet::fleet_experiment_fingerprint(strata), fp);
  fleet::FleetSpec label = ab_ck_spec(traces, "");
  label.experiment.arms[0].label = "other";
  EXPECT_NE(fleet::fleet_experiment_fingerprint(label), fp);
  fleet::FleetSpec scoring = ab_ck_spec(traces, "");
  scoring.experiment.score_qoe_models = false;
  EXPECT_NE(fleet::fleet_experiment_fingerprint(scoring), fp);
  fleet::FleetSpec off = ck_spec(traces, "");
  EXPECT_NE(fleet::fleet_experiment_fingerprint(off), fp);

  // The experiment fingerprint folds into the whole-spec fingerprint too.
  EXPECT_NE(fleet::fleet_spec_fingerprint(seed),
            fleet::fleet_spec_fingerprint(base));
}

TEST(Checkpoint, FleetSpecValidateNamesTheField) {
  const std::vector<net::Trace> traces = two_traces();
  const auto message_of = [&](fleet::FleetSpec spec) {
    try {
      spec.validate();
      return std::string("(no error)");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  {
    fleet::FleetSpec spec = ck_spec(traces, "");
    spec.classes.clear();
    EXPECT_NE(message_of(spec).find("FleetSpec.classes"), std::string::npos);
  }
  {
    fleet::FleetSpec spec = ck_spec(traces, "");
    spec.classes[1].weight = -0.5;
    EXPECT_NE(message_of(spec).find("FleetSpec.classes[1].weight"),
              std::string::npos);
  }
  {
    fleet::FleetSpec spec = ck_spec(traces, "");
    spec.title_batch = 0;
    EXPECT_NE(message_of(spec).find("FleetSpec.title_batch"),
              std::string::npos);
  }
  {
    fleet::FleetSpec spec = ck_spec(traces, "");
    spec.traces = {};
    EXPECT_NE(message_of(spec).find("FleetSpec.traces"), std::string::npos);
  }
  {
    fleet::FleetSpec spec = ck_spec(traces, "");
    spec.resume = true;
    spec.checkpoint_path.clear();
    EXPECT_NE(message_of(spec).find("FleetSpec.resume"), std::string::npos);
  }
}

// -----------------------------------------------------------------------
// Event-engine crash safety: the shared-virtual-time engine appends to the
// same journal (segment headers say "engine event" and carry its
// events_done), resumes to byte-identical output, and neither engine can
// resume the other's journal.
// -----------------------------------------------------------------------

/// ck_spec running under the event engine, checkpointing every 8 EVENTS
/// (the engine's checkpoint_every unit is processed chunk decisions).
fleet::FleetSpec event_ck_spec(const std::vector<net::Trace>& traces,
                               const std::string& checkpoint_path) {
  fleet::FleetSpec spec = ck_spec(traces, checkpoint_path);
  spec.engine = fleet::FleetEngine::kEvent;
  return spec;
}

TEST(Checkpoint, EventEngineKillAndResumeIsByteIdentical) {
  const std::vector<net::Trace> traces = two_traces();
  // The reference is the uninterrupted STEPPER run: a killed-and-resumed
  // event-engine run must land on the cross-engine golden, not merely on
  // its own replay.
  const std::string golden = run_and_serialize(ck_spec(traces, ""), 1);
  ASSERT_GT(golden.size(), 1000u);

  int case_id = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint64_t kill_after : {std::uint64_t{1},
                                           std::uint64_t{9},
                                           std::uint64_t{25}}) {
      const std::string path = testing::TempDir() + "ck_event_" +
                               std::to_string(case_id++) + ".ckpt";
      std::remove(path.c_str());
      run_until_killed(event_ck_spec(traces, path), threads, kill_after);
      fleet::FleetSpec resume = event_ck_spec(traces, path);
      resume.resume = true;
      EXPECT_EQ(run_and_serialize(resume, threads), golden)
          << "threads=" << threads << " kill_after=" << kill_after;
      std::remove(path.c_str());
    }
  }
}

TEST(Checkpoint, EventEngineRepeatedKillsChainToTheSameGolden) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string golden = run_and_serialize(ck_spec(traces, ""), 2);
  const std::string path = testing::TempDir() + "ck_event_chain.ckpt";
  std::remove(path.c_str());

  run_until_killed(event_ck_spec(traces, path), 2, 4);
  fleet::FleetSpec mid = event_ck_spec(traces, path);
  mid.resume = true;
  run_until_killed(mid, 8, 17);
  fleet::FleetSpec last = event_ck_spec(traces, path);
  last.resume = true;
  run_until_killed(last, 1, 29);

  fleet::FleetSpec fin = event_ck_spec(traces, path);
  fin.resume = true;
  EXPECT_EQ(run_and_serialize(fin, 2), golden);
  std::remove(path.c_str());
}

TEST(Checkpoint, EventEngineJournalHeaderRoundTripsByteExact) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_event_journal.ckpt";
  std::remove(path.c_str());
  run_until_killed(event_ck_spec(traces, path), 2, 13);

  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.rfind("VBRFLEETCKPT 5 seg 1 engine event events ", 0), 0u)
      << "journal header";

  const fleet::FleetCheckpoint ck = fleet::FleetCheckpoint::load(path);
  ASSERT_GE(ck.segments.size(), 2u);
  for (const fleet::FleetCheckpoint::Segment& seg : ck.segments) {
    EXPECT_EQ(seg.engine, fleet::FleetEngine::kEvent);
  }
  const fleet::FleetCheckpoint::Segment& last = ck.segments.back();
  EXPECT_GT(last.events_done, 0u);
  EXPECT_GE(last.sessions_done, 13u);
  EXPECT_EQ(journaled_sessions(ck), last.sessions_done);

  const std::string copy = path + ".copy";
  ck.save(copy);
  EXPECT_EQ(read_file(copy), read_file(path));
  std::remove(path.c_str());
  std::remove(copy.c_str());
}

TEST(Checkpoint, CrossEngineResumeRejectedBothWays) {
  const std::vector<net::Trace> traces = two_traces();
  const auto resume_error = [&](fleet::FleetSpec spec) {
    spec.resume = true;
    // Telemetry collection is fingerprint-defining; match the killed runs
    // (which collected both streams) so the CROSS-MODE rejection is what
    // fires, not a workload mismatch.
    obs::MemoryTraceSink sink;
    obs::MetricsRegistry registry;
    spec.trace = &sink;
    spec.metrics = &registry;
    try {
      (void)fleet::run_fleet(spec);
      return std::string("(no error)");
    } catch (const fleet::CheckpointError& e) {
      return std::string(e.what());
    }
  };

  // A stepper journal under the event engine...
  const std::string stepped_path = testing::TempDir() + "ck_cross_stepped.ckpt";
  std::remove(stepped_path.c_str());
  run_until_killed(ck_spec(traces, stepped_path), 2, 10);
  const std::string ev_msg = resume_error(event_ck_spec(traces, stepped_path));
  EXPECT_NE(ev_msg.find("event engine cannot resume"), std::string::npos)
      << ev_msg;
  EXPECT_NE(ev_msg.find("FleetSpec.engine"), std::string::npos) << ev_msg;

  // ...and an event-engine journal under the stepper: both named.
  const std::string event_path = testing::TempDir() + "ck_cross_event.ckpt";
  std::remove(event_path.c_str());
  run_until_killed(event_ck_spec(traces, event_path), 2, 10);
  const std::string st_msg = resume_error(ck_spec(traces, event_path));
  EXPECT_NE(st_msg.find("stepper cannot resume"), std::string::npos)
      << st_msg;
  EXPECT_NE(st_msg.find("FleetSpec.engine"), std::string::npos) << st_msg;

  // The fingerprint stays engine-invariant: a stepper journal still
  // resumes under the stepper (the engine is a header field, not a
  // fingerprint input).
  fleet::FleetSpec same = ck_spec(traces, stepped_path);
  same.resume = true;
  obs::MemoryTraceSink sink;
  obs::MetricsRegistry registry;
  same.trace = &sink;
  same.metrics = &registry;
  EXPECT_NO_THROW((void)fleet::run_fleet(same));
  std::remove(stepped_path.c_str());
  std::remove(event_path.c_str());
}

TEST(Checkpoint, EventCheckpointMutationMatrixRejected) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_event_mut.ckpt";
  std::remove(path.c_str());
  run_until_killed(event_ck_spec(traces, path), 2, 10);
  const std::string good = read_file(path);
  ASSERT_GT(good.size(), 200u);

  // Mutate the first segment alone and re-seal it with a VALID checksum:
  // these rejections must come from the parser, not the CRC.
  const std::size_t trailer = good.find("\nend ");
  ASSERT_NE(trailer, std::string::npos);
  const std::string body = good.substr(0, trailer + 1);
  const std::size_t eol = body.find('\n');
  const std::string header = body.substr(0, eol);
  const std::string rest = body.substr(eol);

  const auto expect_rejected = [&](const std::string& mutated_header,
                                   const char* what) {
    write_file(path, with_trailer(mutated_header + rest));
    const std::string msg = load_error(path);
    EXPECT_NE(msg.find("segment 1"), std::string::npos) << what << ": " << msg;
  };
  const auto replace_token = [&](const std::string& from,
                                 const std::string& to) {
    std::string m = header;
    const std::size_t at = m.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? m : m.replace(at, from.size(), to);
  };

  expect_rejected(replace_token(" engine event ", " engine warp "),
                  "unknown engine name");
  expect_rejected(replace_token(" engine event ", " event "),
                  "engine field cut out");
  expect_rejected(replace_token(" events ", " events not-a-number "),
                  "malformed events_done");
  expect_rejected(replace_token(" seg 1 ", " seg 2 "),
                  "segment number out of order");
  expect_rejected(header + " 7", "trailing header token");

  // The version gate's error names the version this build reads.
  write_file(path, with_trailer("VBRFLEETCKPT 99\nmeta 0 0 0 0 0\n"));
  EXPECT_NE(load_error(path).find("expected 5"), std::string::npos)
      << load_error(path);
  std::remove(path.c_str());
}

// -----------------------------------------------------------------------
// The append-only journal: a torn or checksum-failing final segment is the
// crash signature and is dropped; a resumed run truncates it away before
// appending; interior damage and the pre-journal formats are named errors;
// every session is written exactly once.
// -----------------------------------------------------------------------

/// A 3-segment stepper journal (periodic segments at 8 and 16 sessions,
/// the kill's at 17), written at one thread.
std::string three_segment_journal(const std::vector<net::Trace>& traces,
                                  const std::string& path) {
  std::remove(path.c_str());
  run_until_killed(ck_spec(traces, path), 1, 17);
  return read_file(path);
}

TEST(Checkpoint, TornFinalSegmentIsDroppedAndResumesToGolden) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string golden = run_and_serialize(ck_spec(traces, ""), 1);
  const std::string path = testing::TempDir() + "ck_torn.ckpt";
  const std::string full = three_segment_journal(traces, path);
  const std::vector<std::size_t> starts = segment_starts(full);
  ASSERT_EQ(starts.size(), 3u);
  const std::size_t third = starts[2];
  const std::size_t header_len = full.find('\n', third) + 1 - third;
  const std::string kept = full.substr(0, third);

  // Cuts inside the final segment: every byte of its header line, then a
  // stride through the rest, up to one byte short of the whole file.
  std::vector<std::size_t> cuts;
  for (std::size_t off = 0; off <= header_len; ++off) {
    cuts.push_back(third + off);
  }
  const std::size_t stride =
      std::max<std::size_t>(1, (full.size() - third) / 16);
  for (std::size_t at = third + header_len + 1; at < full.size();
       at += stride) {
    cuts.push_back(at);
  }
  cuts.push_back(full.size() - 1);

  const std::string copy = path + ".copy";
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    write_file(path, full.substr(0, cuts[i]));
    const fleet::FleetCheckpoint ck = fleet::FleetCheckpoint::load(path);
    ASSERT_EQ(ck.segments.size(), 2u) << "cut at " << cuts[i];
    EXPECT_EQ(ck.good_bytes, third) << "cut at " << cuts[i];
    ck.save(copy);
    EXPECT_EQ(read_file(copy), kept) << "cut at " << cuts[i];
    // Resuming is the expensive half: every few cuts, at 1 and 2 threads.
    // A resume appends to the file, so each one starts from the cut again.
    if (i % 6 == 0) {
      for (const unsigned threads : {1u, 2u}) {
        write_file(path, full.substr(0, cuts[i]));
        fleet::FleetSpec resume = ck_spec(traces, path);
        resume.resume = true;
        EXPECT_EQ(run_and_serialize(resume, threads), golden)
            << "cut at " << cuts[i] << " threads=" << threads;
      }
    }
  }

  // A complete final segment whose checksum fails is dropped the same way.
  std::string flipped = full;
  flipped[third + (full.size() - third) / 2] ^= 0x01;
  write_file(path, flipped);
  EXPECT_EQ(fleet::FleetCheckpoint::load(path).segments.size(), 2u);
  for (const unsigned threads : {1u, 2u}) {
    write_file(path, flipped);
    fleet::FleetSpec resume = ck_spec(traces, path);
    resume.resume = true;
    EXPECT_EQ(run_and_serialize(resume, threads), golden)
        << "threads=" << threads;
  }
  std::remove(path.c_str());
  std::remove(copy.c_str());
}

TEST(Checkpoint, ResumeTruncatesTornTailBeforeAppending) {
  // kill -> tear the tail -> resume and kill again: had the resumed run
  // appended behind the torn bytes, they would now be an interior segment
  // and the journal would be unreadable.
  const std::vector<net::Trace> traces = two_traces();
  const std::string golden = run_and_serialize(ck_spec(traces, ""), 2);
  const std::string path = testing::TempDir() + "ck_torn_append.ckpt";
  const std::string full = three_segment_journal(traces, path);
  const std::vector<std::size_t> starts = segment_starts(full);
  ASSERT_EQ(starts.size(), 3u);
  write_file(path, full.substr(0, starts[2] + (full.size() - starts[2]) / 2));

  fleet::FleetSpec mid = ck_spec(traces, path);
  mid.resume = true;
  run_until_killed(mid, 2, 29);
  const std::string after = read_file(path);
  EXPECT_EQ(after.substr(0, starts[2]), full.substr(0, starts[2]))
      << "the good segments are kept as they were";
  const fleet::FleetCheckpoint ck = fleet::FleetCheckpoint::load(path);
  EXPECT_EQ(ck.good_bytes, after.size()) << "no torn bytes left behind";
  ASSERT_GE(ck.segments.size(), 3u);
  EXPECT_GE(ck.segments.back().sessions_done, 29u);
  EXPECT_EQ(journaled_sessions(ck), ck.segments.back().sessions_done);

  fleet::FleetSpec fin = ck_spec(traces, path);
  fin.resume = true;
  EXPECT_EQ(run_and_serialize(fin, 2), golden);
  std::remove(path.c_str());
}

TEST(Checkpoint, InteriorSegmentDamageNamesTheSegment) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_interior.ckpt";
  const std::string full = three_segment_journal(traces, path);
  const std::vector<std::size_t> starts = segment_starts(full);
  ASSERT_EQ(starts.size(), 3u);
  for (const std::size_t seg : {std::size_t{0}, std::size_t{1}}) {
    std::string flipped = full;
    flipped[(starts[seg] + starts[seg + 1]) / 2] ^= 0x01;
    write_file(path, flipped);
    const std::string msg = load_error(path);
    EXPECT_NE(msg.find("segment " + std::to_string(seg + 1)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("interior"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, InconsistentSegmentSequencesRejected) {
  // Segments that each pass their checksum but contradict one another
  // (re-sealed through save()) are named errors, not silent merges.
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_sequence.ckpt";
  (void)three_segment_journal(traces, path);
  const fleet::FleetCheckpoint good = fleet::FleetCheckpoint::load(path);
  ASSERT_EQ(good.segments.size(), 3u);
  ASSERT_FALSE(good.segments[0].sessions.empty());

  const auto expect_rejected = [&](fleet::FleetCheckpoint ck,
                                   const std::string& needle) {
    ck.save(path);
    const std::string msg = load_error(path);
    EXPECT_NE(msg.find("segment 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find(needle), std::string::npos) << msg;
  };
  {
    fleet::FleetCheckpoint ck = good;
    ck.segments[1].sessions.push_back(ck.segments[0].sessions.front());
    ++ck.segments[1].sessions_done;
    ++ck.segments[2].sessions_done;
    expect_rejected(ck, "journaled twice");
  }
  {
    fleet::FleetCheckpoint ck = good;
    ++ck.segments[1].sessions_done;
    expect_rejected(ck, "sessions_done");
  }
  {
    fleet::FleetCheckpoint ck = good;
    ck.segments[1].engine = fleet::FleetEngine::kEvent;
    expect_rejected(ck, "disagrees with segment 1");
  }
  {
    fleet::FleetCheckpoint ck = good;
    ++ck.segments[1].spec_fingerprint;
    expect_rejected(ck, "disagrees with segment 1");
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, WholeFileVersionsRejectedByName) {
  // VBRFLEETCKPT 3 (stepper) and 4 (event engine) were whole-file
  // snapshots; a journal build must name the version, not misparse it.
  const std::string path = testing::TempDir() + "ck_old_version.ckpt";
  write_file(path, with_trailer("VBRFLEETCKPT 3\nmeta 1 2 3 4 0 5\n"
                                "titles 0\nsessions 0\n"));
  std::string msg = load_error(path);
  EXPECT_NE(msg.find("unsupported version 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("VBRFLEETCKPT 3"), std::string::npos) << msg;
  write_file(path, with_trailer("VBRFLEETCKPT 4\nmeta 1 2 3 4 0 5\n"
                                "engine 64\ntitles 0\nsessions 0\n"));
  msg = load_error(path);
  EXPECT_NE(msg.find("unsupported version 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("VBRFLEETCKPT 4"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Checkpoint, JournalWritesEachSessionExactlyOnce) {
  // Checkpoint work is linear in the run: a journal cut every 8 sessions
  // is only its extra segment heads larger than one written once at the
  // end, and each session lives in exactly one segment. (Rewriting every
  // completed session per snapshot, as a whole-file format must, makes
  // the every-8 file about k/2 times the size.)
  const std::vector<net::Trace> traces = two_traces();
  const std::uint64_t n =
      fleet::generate_arrivals(ck_spec(traces, "").arrivals).size();
  ASSERT_GT(n, 24u);

  const auto journal_of = [&](std::uint64_t every, const char* name) {
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    fleet::FleetSpec spec = ck_spec(traces, path);
    spec.checkpoint_every = every;
    run_until_killed(spec, 1, n);  // the kill's segment holds the last one
    const std::string bytes = read_file(path);
    std::remove(path.c_str());
    return bytes;
  };
  const std::string once = journal_of(0, "ck_linear_once.ckpt");
  const std::string every8 = journal_of(8, "ck_linear_every8.ckpt");

  const std::string path = testing::TempDir() + "ck_linear.ckpt";
  write_file(path, once);
  const fleet::FleetCheckpoint once_ck = fleet::FleetCheckpoint::load(path);
  ASSERT_EQ(once_ck.segments.size(), 1u);
  EXPECT_EQ(once_ck.segments[0].sessions.size(), n);

  write_file(path, every8);
  const fleet::FleetCheckpoint ck = fleet::FleetCheckpoint::load(path);
  const std::size_t k = ck.segments.size();
  ASSERT_EQ(k, (n - 1) / 8 + 1);
  std::vector<int> seen(n, 0);
  for (const fleet::FleetCheckpoint::Segment& seg : ck.segments) {
    for (const fleet::FleetCheckpoint::SessionState& ss : seg.sessions) {
      ++seen[ss.record.session_id];
    }
  }
  for (std::uint64_t sid = 0; sid < n; ++sid) {
    EXPECT_EQ(seen[sid], 1) << "session " << sid;
  }

  // Per-segment head bound: the header line, six titles' shared state
  // (with shard contents for the one in progress) and the trailer.
  constexpr std::size_t kSegmentHeadBound = 8192;
  for (std::size_t i = 0; i < k; ++i) {
    fleet::FleetCheckpoint head;
    head.segments.push_back(ck.segments[i]);
    head.segments.back().sessions.clear();
    head.save(path);
    EXPECT_LE(read_file(path).size(), kSegmentHeadBound) << "segment " << i;
  }
  EXPECT_LE(every8.size(), once.size() + (k - 1) * kSegmentHeadBound);
  std::remove(path.c_str());
}

// -----------------------------------------------------------------------
// Journal bytes. At one thread the segment cuts are deterministic, so the
// file is too, except for what the wall clock writes into it: the bucket
// counts, sum, min and max of wall-clock histograms (decision latency),
// and through them the segment trailers. The pins digest the file with
// exactly those fields masked; load() verifying every trailer and
// save(load(f)) == f cover the masked trailers. At more threads the
// segments cut the run elsewhere, but each session's block is the same.
// -----------------------------------------------------------------------

/// One journal line with its wall-clock fields masked: a trailer keeps its
/// tag, and a wall-clock histogram ("h <name> 1 <nb> <bounds> <counts>
/// <count> <sum> <min> <max>") keeps its name, bounds and total count.
std::string mask_wall_clock(std::string_view line) {
  if (line.starts_with("end ")) {
    return "end ~\n";
  }
  if (!line.starts_with("h ")) {
    return std::string(line);
  }
  std::vector<std::string> tok;
  std::istringstream in{std::string(line)};
  for (std::string t; in >> t;) {
    tok.push_back(t);
  }
  if (tok.size() < 8 || tok[2] != "1") {
    return std::string(line);
  }
  const std::size_t nb = std::stoull(tok[3]);
  std::string out;
  for (std::size_t i = 0; i < 4 + nb; ++i) {
    out += tok[i] + ' ';
  }
  return out + "~ " + tok[tok.size() - 4] + " ~ ~ ~\n";
}

/// The masked journal and each session's masked block ("session ..." up to
/// the next block or trailer), keyed by session id.
struct MaskedJournal {
  std::string bytes;
  std::map<std::uint64_t, std::string> blocks;
};

MaskedJournal mask_journal(const std::string& bytes) {
  MaskedJournal m;
  std::string* open = nullptr;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t eol = bytes.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? bytes.size() : eol + 1;
    const std::string_view line(bytes.data() + pos, end - pos);
    if (line.starts_with("session ")) {
      const std::uint64_t sid = std::stoull(std::string(line.substr(8)));
      open = &m.blocks[sid];
      EXPECT_TRUE(open->empty()) << "session " << sid << " journaled twice";
    } else if (line.starts_with("end ")) {
      open = nullptr;
    }
    const std::string masked = mask_wall_clock(line);
    m.bytes += masked;
    if (open != nullptr) {
      *open += masked;
    }
    pos = end;
  }
  return m;
}

/// ck_spec behind a CDN whose slow backhaul keeps fetch windows open
/// across session boundaries, so in-progress titles journal them.
fleet::FleetSpec cdn_ck_spec(const std::vector<net::Trace>& traces,
                             const std::string& checkpoint_path) {
  fleet::FleetSpec spec = ck_spec(traces, checkpoint_path);
  spec.cache.capacity_bits = 5e7;
  spec.cdn.enabled = true;
  spec.cdn.backhaul_bps = 1e6;
  spec.cdn.regional.nodes = 2;
  spec.cdn.regional.capacity_bits = 4e9;
  return spec;
}

/// The journal of a run killed after its last session (so every session is
/// journaled), with telemetry and metrics on.
std::string full_journal(const fleet::FleetSpec& spec, unsigned threads) {
  const std::string& path = spec.checkpoint_path;
  std::remove(path.c_str());
  const std::uint64_t n = fleet::generate_arrivals(spec.arrivals).size();
  run_until_killed(spec, threads, n);
  const std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(Checkpoint, JournalBytesMatchPins) {
  const std::vector<net::Trace> traces = two_traces();
  const std::string dir = testing::TempDir();
  struct Case {
    const char* name;
    fleet::FleetSpec spec;
    const char* pin;
  };
  const Case cases[] = {
      {"stepped", ck_spec(traces, dir + "pin_stepped.ckpt"),
       "7203ec326bbd01cc"},
      {"ab", ab_ck_spec(traces, dir + "pin_ab.ckpt"), "41b2267a18a6284a"},
      {"cdn", cdn_ck_spec(traces, dir + "pin_cdn.ckpt"),
       "8ae6a395d12d4eed"},
      {"event", event_ck_spec(traces, dir + "pin_event.ckpt"),
       "ca782de991c8a374"},
  };
  const std::string copy = dir + "pin_copy.ckpt";
  for (const Case& c : cases) {
    const std::string one = full_journal(c.spec, 1);
    const MaskedJournal golden = mask_journal(one);
    EXPECT_EQ(testutil::fnv1a64_hex(golden.bytes), c.pin) << c.name;
    ASSERT_EQ(golden.blocks.size(),
              fleet::generate_arrivals(c.spec.arrivals).size())
        << c.name;
    // Every trailer verifies, and the loaded form saves the same bytes.
    write_file(copy, one);
    fleet::FleetCheckpoint::load(copy).save(copy);
    EXPECT_TRUE(read_file(copy) == one) << c.name;
    if (std::string(c.name) == "cdn") {
      // The pin covers journaled fetch windows ("if" lines).
      EXPECT_NE(one.find("\nif "), std::string::npos);
    }
    for (const unsigned threads : {2u, 8u}) {
      const MaskedJournal many = mask_journal(full_journal(c.spec, threads));
      ASSERT_EQ(many.blocks.size(), golden.blocks.size()) << c.name;
      for (const auto& [sid, block] : golden.blocks) {
        EXPECT_TRUE(many.blocks.at(sid) == block)
            << c.name << ": session " << sid << " at " << threads
            << " threads";
      }
    }
  }
  std::remove(copy.c_str());
}

TEST(Checkpoint, RunStatsCoverInRunCheckpoints) {
  // The run stats are the one non-deterministic part of FleetResult: filled
  // with a checkpoint path, zero without one, and never in the report.
  const std::vector<net::Trace> traces = two_traces();
  const std::string path = testing::TempDir() + "ck_run_stats.ckpt";
  std::remove(path.c_str());
  const auto run = [&](fleet::FleetSpec spec) {
    obs::MemoryTraceSink sink;
    obs::MetricsRegistry registry;
    spec.trace = &sink;
    spec.metrics = &registry;
    spec.threads = 2;
    return fleet::run_fleet(spec);
  };

  const fleet::FleetResult with = run(ck_spec(traces, path));
  const fleet::FleetRunStats& st = with.run_stats;
  const std::string bytes = read_file(path);
  EXPECT_EQ(st.checkpoint_segments,
            fleet::FleetCheckpoint::load(path).segments.size());
  EXPECT_GE(st.checkpoint_segments, 4u);
  EXPECT_EQ(st.checkpoint_bytes, bytes.size());
  EXPECT_GT(st.checkpoint_capture_s, 0.0);
  EXPECT_GT(st.checkpoint_commit_s, 0.0);

  const fleet::FleetResult without = run(ck_spec(traces, ""));
  EXPECT_EQ(without.run_stats.checkpoint_segments, 0u);
  EXPECT_EQ(without.run_stats.checkpoint_bytes, 0u);
  EXPECT_EQ(without.run_stats.checkpoint_capture_s, 0.0);
  EXPECT_EQ(without.run_stats.checkpoint_commit_s, 0.0);

  std::ostringstream a;
  std::ostringstream b;
  with.write_json(a);
  without.write_json(b);
  EXPECT_EQ(a.str(), b.str());

  // A resumed run counts only the segments it appended itself.
  std::remove(path.c_str());
  run_until_killed(ck_spec(traces, path), 2, 10);
  const fleet::FleetCheckpoint killed = fleet::FleetCheckpoint::load(path);
  fleet::FleetSpec resume = ck_spec(traces, path);
  resume.resume = true;
  const fleet::FleetRunStats rs = run(resume).run_stats;
  const fleet::FleetCheckpoint all = fleet::FleetCheckpoint::load(path);
  EXPECT_EQ(rs.checkpoint_segments,
            all.segments.size() - killed.segments.size());
  EXPECT_EQ(rs.checkpoint_bytes, all.good_bytes - killed.good_bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vbr
