// Chaos-kill soak: SIGKILL a real `vbrsim --fleet` subprocess mid-run, then
// resume from its checkpoint until the fleet completes, and require the
// final report + durable telemetry to be byte-identical to an uninterrupted
// run. This is the end-to-end proof that the checkpoint protocol survives a
// hard process death (not just the cooperative in-process kill).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonl_io.h"

namespace vbr {
namespace {

constexpr const char* kVbrsim = VBR_VBRSIM_PATH;

struct RunOutcome {
  int exit_code = -1;
  bool signaled = false;
};

/// Runs vbrsim with `args`; if `kill_after_ms >= 0` and the process is
/// still alive at that deadline, SIGKILLs it. Child stdout is discarded.
RunOutcome run_vbrsim(const std::vector<std::string>& args,
                      int kill_after_ms = -1) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(kVbrsim));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(kVbrsim, argv.data());
    ::_exit(127);
  }
  RunOutcome out;
  int status = 0;
  if (kill_after_ms >= 0) {
    for (int elapsed = 0; elapsed < kill_after_ms; elapsed += 5) {
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        out.signaled = WIFSIGNALED(status);
        return out;
      }
      ::usleep(5000);
    }
    ::kill(pid, SIGKILL);
  }
  ::waitpid(pid, &status, 0);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  out.signaled = WIFSIGNALED(status);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The shared fleet workload. Every invocation passes --resume: with no
/// checkpoint file that is a fresh run, so one flag set serves the whole
/// kill/resume loop (and keeps the spec fingerprint identical across legs,
/// --resume being part of the retry policy).
std::vector<std::string> fleet_args(const std::string& dir,
                                    std::uint64_t throttle_us,
                                    const std::string& engine = "") {
  std::vector<std::string> args = {
      "--fleet",          "--fleet-sessions", "40",
      "--fleet-titles",   "6",                "--count",
      "4",                "--scheme",         "BBA-1",
      "--fleet-threads",  "2",                "--duration",
      "40",               "--fleet-title-duration", "40",
      "--checkpoint",     dir + "ck.ckpt",    "--checkpoint-every",
      "4",                "--resume",         "--fleet-report",
      dir + "report.json", "--trace-jsonl",   dir + "trace.jsonl",
      "--trace-durable"};
  if (throttle_us > 0) {
    args.push_back("--fleet-throttle-us");
    args.push_back(std::to_string(throttle_us));
  }
  if (!engine.empty()) {
    args.push_back("--fleet-engine");
    args.push_back(engine);
  }
  return args;
}

TEST(ChaosKill, SigkillResumeLoopConvergesToGoldenBytes) {
  // Golden: one uninterrupted run (no throttle, fresh directory). A
  // checkpoint left behind by an older binary (e.g. a previous format
  // version) must not leak into the golden leg.
  const std::string gold_dir = testing::TempDir() + "chaos_gold_";
  std::remove((gold_dir + "ck.ckpt").c_str());
  const RunOutcome gold = run_vbrsim(fleet_args(gold_dir, 0));
  ASSERT_FALSE(gold.signaled);
  ASSERT_EQ(gold.exit_code, 0);
  const std::string golden_report = read_file(gold_dir + "report.json");
  const std::string golden_trace = read_file(gold_dir + "trace.jsonl");
  ASSERT_GT(golden_report.size(), 100u);
  ASSERT_GT(golden_trace.size(), 1000u);

  // Chaos loop: SIGKILL the throttled run at staggered points until a leg
  // survives to completion. 40 sessions * 4 ms of throttle ≈ 160 ms of
  // wall time minimum, so the early deadlines land mid-run.
  const std::string dir = testing::TempDir() + "chaos_kill_";
  std::remove((dir + "ck.ckpt").c_str());
  int kills = 0;
  bool completed = false;
  for (int attempt = 0; attempt < 12 && !completed; ++attempt) {
    const int deadline_ms = 40 + 35 * attempt;
    const RunOutcome out =
        run_vbrsim(fleet_args(dir, 4000), deadline_ms);
    if (out.signaled) {
      ++kills;
      // A SIGKILL can tear the durable trace mid-line; the scanner must
      // classify the damage as a torn tail (or find the file clean/empty),
      // never as interior corruption.
      std::ifstream probe(dir + "trace.jsonl");
      if (probe.good()) {
        const obs::JsonlScanReport rep =
            obs::recover_checksummed_jsonl(dir + "trace.jsonl");
        EXPECT_TRUE(rep.corrupt_interior_lines.empty());
      }
    } else {
      ASSERT_EQ(out.exit_code, 0) << "resume leg failed";
      completed = true;
    }
  }
  if (!completed) {
    // Finish without a deadline — resume must converge regardless.
    const RunOutcome out = run_vbrsim(fleet_args(dir, 0));
    ASSERT_FALSE(out.signaled);
    ASSERT_EQ(out.exit_code, 0);
  }
  EXPECT_GE(kills, 1) << "no attempt was actually SIGKILLed mid-run";

  EXPECT_EQ(read_file(dir + "report.json"), golden_report);
  EXPECT_EQ(read_file(dir + "trace.jsonl"), golden_trace);
}

TEST(ChaosKill, CooperativeKillExitsThreeAndResumesToGolden) {
  // The CLI contract of the in-process kill: --fleet-kill-after N writes a
  // final checkpoint and exits with code 3; the identical command minus
  // the kill flag finishes the run to the golden bytes.
  const std::string gold_dir = testing::TempDir() + "coop_gold_";
  std::remove((gold_dir + "ck.ckpt").c_str());
  ASSERT_EQ(run_vbrsim(fleet_args(gold_dir, 0)).exit_code, 0);
  const std::string golden_report = read_file(gold_dir + "report.json");

  const std::string dir = testing::TempDir() + "coop_kill_";
  std::remove((dir + "ck.ckpt").c_str());
  std::vector<std::string> killed = fleet_args(dir, 0);
  killed.push_back("--fleet-kill-after");
  killed.push_back("13");
  EXPECT_EQ(run_vbrsim(killed).exit_code, 3);
  EXPECT_GT(read_file(dir + "ck.ckpt").size(), 100u);

  EXPECT_EQ(run_vbrsim(fleet_args(dir, 0)).exit_code, 0);
  EXPECT_EQ(read_file(dir + "report.json"), golden_report);
}

TEST(ChaosKill, EventEngineSigkillResumeLoopConvergesToStepperGolden) {
  // Same hard-death soak, but the chaos legs run the shared-virtual-time
  // event engine (--fleet-engine event, journal segments cut at an
  // event-count cadence) while the golden stays on the default stepper —
  // so convergence proves SIGKILL-resume AND cross-engine byte equality
  // in one loop.
  const std::string gold_dir = testing::TempDir() + "chaos_ev_gold_";
  std::remove((gold_dir + "ck.ckpt").c_str());
  const RunOutcome gold = run_vbrsim(fleet_args(gold_dir, 0));
  ASSERT_FALSE(gold.signaled);
  ASSERT_EQ(gold.exit_code, 0);
  const std::string golden_report = read_file(gold_dir + "report.json");
  const std::string golden_trace = read_file(gold_dir + "trace.jsonl");
  ASSERT_GT(golden_report.size(), 100u);
  ASSERT_GT(golden_trace.size(), 1000u);

  const std::string dir = testing::TempDir() + "chaos_ev_kill_";
  std::remove((dir + "ck.ckpt").c_str());
  int kills = 0;
  bool completed = false;
  for (int attempt = 0; attempt < 12 && !completed; ++attempt) {
    const int deadline_ms = 40 + 35 * attempt;
    const RunOutcome out =
        run_vbrsim(fleet_args(dir, 4000, "event"), deadline_ms);
    if (out.signaled) {
      ++kills;
      std::ifstream probe(dir + "trace.jsonl");
      if (probe.good()) {
        const obs::JsonlScanReport rep =
            obs::recover_checksummed_jsonl(dir + "trace.jsonl");
        EXPECT_TRUE(rep.corrupt_interior_lines.empty());
      }
    } else {
      ASSERT_EQ(out.exit_code, 0) << "resume leg failed";
      completed = true;
    }
  }
  if (!completed) {
    const RunOutcome out = run_vbrsim(fleet_args(dir, 0, "event"));
    ASSERT_FALSE(out.signaled);
    ASSERT_EQ(out.exit_code, 0);
  }
  EXPECT_GE(kills, 1) << "no attempt was actually SIGKILLed mid-run";

  EXPECT_EQ(read_file(dir + "report.json"), golden_report);
  EXPECT_EQ(read_file(dir + "trace.jsonl"), golden_trace);
}

TEST(ChaosKill, EventEngineCooperativeKillExitsThreeAndResumes) {
  const std::string gold_dir = testing::TempDir() + "coop_ev_gold_";
  std::remove((gold_dir + "ck.ckpt").c_str());
  ASSERT_EQ(run_vbrsim(fleet_args(gold_dir, 0)).exit_code, 0);
  const std::string golden_report = read_file(gold_dir + "report.json");

  const std::string dir = testing::TempDir() + "coop_ev_kill_";
  std::remove((dir + "ck.ckpt").c_str());
  std::vector<std::string> killed = fleet_args(dir, 0, "event");
  killed.push_back("--fleet-kill-after");
  killed.push_back("13");
  EXPECT_EQ(run_vbrsim(killed).exit_code, 3);
  const std::string ck = read_file(dir + "ck.ckpt");
  // A journal whose segments the event engine wrote.
  EXPECT_EQ(ck.rfind("VBRFLEETCKPT 5 seg 1 engine event ", 0), 0u);

  EXPECT_EQ(run_vbrsim(fleet_args(dir, 0, "event")).exit_code, 0);
  EXPECT_EQ(read_file(dir + "report.json"), golden_report);
}

}  // namespace
}  // namespace vbr
