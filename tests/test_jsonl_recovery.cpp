// Crash-safe JSONL layer (obs/jsonl_io.h): per-line checksums, the exact
// parse_jsonl inverse of to_jsonl, the torn-tail recovery scanner run over
// an on-disk corpus (tests/data/telemetry/), and the durable sink's
// errno-carrying failure paths (disk full, unwritable directory).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "obs/event.h"
#include "obs/jsonl_io.h"
#include "obs/trace_sink.h"

namespace vbr {
namespace {

const std::string kCorpus = std::string(VBR_TEST_DATA_DIR) + "/telemetry/";

/// A DecisionEvent exercising every serialized field, including the
/// optional controller and edge blocks and awkward doubles (negative,
/// subnormal-ish, many digits).
obs::DecisionEvent full_event() {
  obs::DecisionEvent e;
  e.session_id = 17;
  e.seq = 123456789;
  e.chunk_index = 42;
  e.decision_now_s = 3.0000000000000004;
  e.sim_now_s = 7.25;
  e.scheme = "CAVA \"quoted\"\t\n";
  e.size_mode = "noisy";
  e.track = 3;
  e.in_startup = true;
  e.buffer_before_s = 12.000000000000002;
  e.buffer_after_s = 13.5;
  e.est_bandwidth_bps = 4.37e6;
  e.size_bits = 1048576.0;
  e.wait_s = 0.1;
  e.download_s = 0.30000000000000004;
  e.stall_s = 0.0;
  e.cum_rebuffer_s = 2.9999999999999996;
  e.attempts = 3;
  e.connect_failures = 1;
  e.mid_drops = 1;
  e.timeouts = 0;
  e.backoff_wait_s = 0.5;
  e.resumed_bits = 1000.0;
  e.wasted_bits = 250.0;
  e.downgraded = true;
  e.skipped = false;
  e.abandoned_higher = true;
  obs::ControllerInternals ci;
  ci.target_buffer_s = 14.0;
  ci.u = -0.37;
  ci.error_s = 2.0;
  ci.integral = -1.5e-7;
  ci.alpha = 0.85;
  ci.complexity_class = 2;
  ci.complex_chunk = true;
  e.controller = ci;
  obs::DecisionEvent::EdgeInfo edge;
  edge.arrival_s = 99.125;
  edge.title = 7;
  edge.edge_hit = true;
  edge.edge_latency_s = 0.02;
  e.edge = edge;
  e.policy = obs::DecisionEvent::PolicyInfo{.id = "mpc-imitate", .version = 3};
  return e;
}

TEST(JsonlChecksum, RoundTripsAndRejectsDamage) {
  const std::string payload = R"({"session":0,"seq":1})";
  const std::string line = obs::checksummed_line(payload);
  // TAB splits payload from an 8-hex-char checksum.
  ASSERT_EQ(line.size(), payload.size() + 1 + 8);
  EXPECT_EQ(line[payload.size()], '\t');

  std::string_view got;
  ASSERT_TRUE(obs::verify_checksummed_line(line, got));
  EXPECT_EQ(got, payload);

  // Any single-character damage to payload or checksum is caught.
  for (const std::size_t pos : {std::size_t{3}, line.size() - 1}) {
    std::string damaged = line;
    damaged[pos] = damaged[pos] == 'x' ? 'y' : 'x';
    std::string_view ignored;
    EXPECT_FALSE(obs::verify_checksummed_line(damaged, ignored));
  }
  std::string_view ignored;
  EXPECT_FALSE(obs::verify_checksummed_line(payload, ignored));  // no TAB
  EXPECT_FALSE(obs::verify_checksummed_line(payload + "\t12zz5678", ignored));
}

TEST(LineChecksum, LanesMatchSerialChain) {
  // The batch kernel must give every line the checksum line_checksum gives
  // it alone: for every batch size 0-9 (full and ragged groups), lengths
  // 0-2048 mixed in one batch (empty lines included), and every byte value.
  std::uint64_t state = 0x11ec4ec5u;
  const auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) {
    all_bytes += static_cast<char>(b);
  }
  const std::size_t fixed_lengths[] = {0, 1, 3, 4, 5, 255, 256, 1000, 2048};
  for (int round = 0; round < 40; ++round) {
    for (std::size_t count = 0; count <= 9; ++count) {
      std::vector<std::string> texts;
      for (std::size_t i = 0; i < count; ++i) {
        std::size_t len = 0;
        switch (round % 4) {
          case 0:  // equal lengths: one shared prefix, no tails
            len = fixed_lengths[round / 4 % 9];
            break;
          case 1:  // one line per fixed length, rotated
            len = fixed_lengths[(i + round) % 9];
            break;
          default:  // anything in 0-2048, empty lines likely in a batch
            len = next() % 4 == 0 ? 0 : next() % 2049;
            break;
        }
        std::string t;
        for (std::size_t j = 0; j < len; ++j) {
          t += round % 4 == 1 ? all_bytes[(j + i) % 256]
                              : static_cast<char>(next() & 0xff);
        }
        texts.push_back(std::move(t));
      }
      if (count > 0 && round == 0) {
        texts[0] = all_bytes;  // every byte value, in order
      }
      const std::vector<std::string_view> lines(texts.begin(), texts.end());
      std::vector<std::uint32_t> sums(count, 0);
      obs::line_checksums(lines, sums);
      for (std::size_t i = 0; i < count; ++i) {
        SCOPED_TRACE("round " + std::to_string(round) + " count " +
                     std::to_string(count) + " line " + std::to_string(i) +
                     " length " + std::to_string(lines[i].size()));
        EXPECT_EQ(sums[i], obs::line_checksum(lines[i]));
      }
    }
  }
}

TEST(JsonlParse, InvertsToJsonlBitExactly) {
  // Canonical doubles are shortest-round-trip, so serialize → parse →
  // serialize must reproduce the same bytes, optional blocks included.
  obs::DecisionEvent plain = full_event();
  plain.controller.reset();
  plain.edge.reset();
  for (const obs::DecisionEvent& e : {full_event(), plain}) {
    const std::string line = obs::to_jsonl(e);
    const obs::DecisionEvent back = obs::parse_jsonl(line);
    EXPECT_EQ(obs::to_jsonl(back), line);
  }
}

TEST(JsonlParse, FuzzRoundTripsOptionalFieldCombinations) {
  // Seeded structural fuzz: every combination of the optional blocks
  // (controller, edge with CDN tier/coalesced/shed, experiment arm) with
  // pseudo-random awkward values must survive serialize -> parse ->
  // serialize bit-exactly. The arm field interacts with the edge block in
  // the serializer (it is emitted after it), so the combinations matter.
  std::uint64_t state = 0x5eedf022u;
  const auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const auto u01 = [&next] {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  };
  for (int i = 0; i < 256; ++i) {
    obs::DecisionEvent e = full_event();
    e.seq = next();
    e.est_bandwidth_bps = u01() * 1e8;
    e.download_s = u01() * 3.0;
    e.cum_rebuffer_s = u01() < 0.3 ? 0.0 : u01() * 40.0;
    if ((i & 1) == 0) {
      e.controller.reset();
    }
    if ((i & 2) == 0) {
      e.edge.reset();
    } else {
      e.edge->tier = static_cast<std::uint32_t>(next() % 3);
      e.edge->coalesced = (next() & 1) != 0;
      e.edge->shed = (next() & 1) != 0;
      e.edge->edge_latency_s = u01() * 0.2;
    }
    if ((i & 4) != 0) {
      e.arm = static_cast<std::uint32_t>(next() % 64);
    }
    if ((i & 8) == 0) {
      // Pre-learn streams carry no policy block at all.
      e.policy.reset();
    } else {
      // Learned-policy annotation: awkward-but-legal id tokens (the
      // serializer must escape nothing, the parser must accept dots,
      // dashes, underscores) and the full version range.
      e.policy->id = (next() & 1) != 0 ? "mpc-imitate_v2.1" : "a-B.c_d-0";
      e.policy->version = static_cast<std::uint32_t>(next());
    }
    const std::string line = obs::to_jsonl(e);
    const obs::DecisionEvent back = obs::parse_jsonl(line);
    ASSERT_EQ(obs::to_jsonl(back), line) << "fuzz case " << i;
    ASSERT_EQ(back.arm.has_value(), e.arm.has_value()) << "fuzz case " << i;
    if (e.edge.has_value()) {
      ASSERT_EQ(back.edge->tier, e.edge->tier) << "fuzz case " << i;
      ASSERT_EQ(back.edge->coalesced, e.edge->coalesced) << "fuzz case " << i;
      ASSERT_EQ(back.edge->shed, e.edge->shed) << "fuzz case " << i;
    }
    ASSERT_EQ(back.policy.has_value(), e.policy.has_value())
        << "fuzz case " << i;
    if (e.policy.has_value()) {
      ASSERT_EQ(back.policy->id, e.policy->id) << "fuzz case " << i;
      ASSERT_EQ(back.policy->version, e.policy->version) << "fuzz case " << i;
    }
  }
}

TEST(JsonlParse, PolicyBlockEmittedOnlyWhenPresent) {
  // The byte-stability contract: events without a policy annotation must
  // serialize to the exact same bytes as before the learn subsystem
  // existed — no "policy" key at all — and annotated events append the
  // block after "arm".
  obs::DecisionEvent plain = full_event();
  plain.policy.reset();
  const std::string without = obs::to_jsonl(plain);
  EXPECT_EQ(without.find("\"policy\""), std::string::npos);

  const std::string with = obs::to_jsonl(full_event());
  EXPECT_NE(with.find("\"policy\":{\"id\":\"mpc-imitate\",\"ver\":3}"),
            std::string::npos);
  EXPECT_EQ(with.rfind("}"), with.size() - 1);
}

TEST(JsonlScan, LearnedCorpusIsCleanAndCarriesPolicyProvenance) {
  // On-disk corpus of a learned-arm A/B rollout: checksummed lines whose
  // payloads carry the policy id/version (plus arm), one pre-learn line
  // without the block mixed in — the scanner and parser accept both.
  const std::string path = kCorpus + "clean_learned.jsonl";
  const obs::JsonlScanReport rep = obs::scan_checksummed_jsonl(path);
  EXPECT_TRUE(rep.clean());
  ASSERT_EQ(rep.valid_lines, 3u);

  std::ifstream in(path);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    std::string_view payload;
    ASSERT_TRUE(obs::verify_checksummed_line(line, payload));
    const obs::DecisionEvent e = obs::parse_jsonl(payload);
    if (line_no == 2) {
      EXPECT_FALSE(e.policy.has_value());  // the pre-learn line
    } else {
      ASSERT_TRUE(e.policy.has_value());
      EXPECT_EQ(e.policy->id, "mpc-imitate");
      EXPECT_EQ(e.policy->version, 1u + static_cast<std::uint32_t>(line_no));
      ASSERT_TRUE(e.arm.has_value());
    }
    ++line_no;
  }
  EXPECT_EQ(line_no, 3u);
}

TEST(JsonlParse, RejectsNonCanonicalLines) {
  const std::string good = obs::to_jsonl(full_event());
  EXPECT_THROW((void)obs::parse_jsonl(""), std::invalid_argument);
  EXPECT_THROW((void)obs::parse_jsonl("{}"), std::invalid_argument);
  EXPECT_THROW((void)obs::parse_jsonl(good.substr(0, good.size() / 2)),
               std::invalid_argument);
  EXPECT_THROW((void)obs::parse_jsonl(good + "x"), std::invalid_argument);
}

TEST(JsonlScan, CleanAndEmptyFiles) {
  const obs::JsonlScanReport clean =
      obs::scan_checksummed_jsonl(kCorpus + "clean.jsonl");
  EXPECT_EQ(clean.total_lines, 3u);
  EXPECT_EQ(clean.valid_lines, 3u);
  EXPECT_TRUE(clean.clean());

  const obs::JsonlScanReport empty =
      obs::scan_checksummed_jsonl(kCorpus + "empty.jsonl");
  EXPECT_EQ(empty.total_lines, 0u);
  EXPECT_TRUE(empty.clean());

  EXPECT_THROW((void)obs::scan_checksummed_jsonl(kCorpus + "no_such.jsonl"),
               std::system_error);
}

TEST(JsonlScan, AbCdnCorpusIsCleanAndPayloadsParse) {
  // Corpus lines carrying the experiment arm plus the CDN tier /
  // coalesced / shed outcomes: the scanner accepts them and every payload
  // parses back with those fields intact (one line per tier).
  const std::string path = kCorpus + "clean_ab_cdn.jsonl";
  const obs::JsonlScanReport rep = obs::scan_checksummed_jsonl(path);
  EXPECT_TRUE(rep.clean());
  ASSERT_EQ(rep.valid_lines, 3u);

  std::ifstream in(path);
  std::string line;
  std::uint32_t expect_arm = 0;
  while (std::getline(in, line)) {
    std::string_view payload;
    ASSERT_TRUE(obs::verify_checksummed_line(line, payload));
    const obs::DecisionEvent e = obs::parse_jsonl(payload);
    ASSERT_TRUE(e.arm.has_value());
    EXPECT_EQ(*e.arm, expect_arm);
    ASSERT_TRUE(e.edge.has_value());
    EXPECT_EQ(e.edge->tier, expect_arm);  // corpus pairs tier with arm
    EXPECT_EQ(e.edge->coalesced, expect_arm == 1);
    EXPECT_EQ(e.edge->shed, expect_arm == 2);
    ++expect_arm;
  }
  EXPECT_EQ(expect_arm, 3u);
}

TEST(JsonlScan, DetectsTornTails) {
  // The two crash signatures: an unterminated final line, and a terminated
  // final line whose checksum fails.
  for (const char* name : {"torn_unterminated.jsonl", "torn_bad_crc.jsonl"}) {
    const obs::JsonlScanReport rep =
        obs::scan_checksummed_jsonl(kCorpus + name);
    EXPECT_EQ(rep.total_lines, 3u) << name;
    EXPECT_EQ(rep.valid_lines, 2u) << name;
    EXPECT_TRUE(rep.torn_tail) << name;
    EXPECT_TRUE(rep.corrupt_interior_lines.empty()) << name;
    EXPECT_FALSE(rep.clean()) << name;
  }
}

TEST(JsonlScan, SurfacesInteriorCorruptionLoudly) {
  // A checksum-mismatching line that is NOT the tail is real damage, not a
  // crash artifact: it must be reported by line number, never dropped.
  const obs::JsonlScanReport rep =
      obs::scan_checksummed_jsonl(kCorpus + "corrupt_interior.jsonl");
  EXPECT_EQ(rep.total_lines, 4u);
  EXPECT_EQ(rep.valid_lines, 3u);
  EXPECT_FALSE(rep.torn_tail);
  ASSERT_EQ(rep.corrupt_interior_lines.size(), 1u);
  EXPECT_EQ(rep.corrupt_interior_lines[0], 2u);  // 1-based
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void copy_file(const std::string& from, const std::string& to) {
  std::ofstream(to, std::ios::binary) << read_file(from);
}

TEST(JsonlRecover, TruncatesTornLearnedTailKeepingPolicyLines) {
  // Crash mid-write of a learned-policy line: the torn tail is detected
  // and truncated, the surviving annotated lines stay intact.
  const std::string tmp = testing::TempDir() + "recover_learned.jsonl";
  copy_file(kCorpus + "torn_learned_tail.jsonl", tmp);
  const obs::JsonlScanReport rep = obs::recover_checksummed_jsonl(tmp);
  EXPECT_TRUE(rep.torn_tail);
  const obs::JsonlScanReport again = obs::scan_checksummed_jsonl(tmp);
  EXPECT_TRUE(again.clean());
  ASSERT_EQ(again.valid_lines, 2u);
  std::ifstream in(tmp);
  std::string line;
  while (std::getline(in, line)) {
    std::string_view payload;
    ASSERT_TRUE(obs::verify_checksummed_line(line, payload));
    const obs::DecisionEvent e = obs::parse_jsonl(payload);
    ASSERT_TRUE(e.policy.has_value());
    EXPECT_EQ(e.policy->id, "mpc-imitate");
  }
  std::remove(tmp.c_str());
}

TEST(JsonlRecover, TruncatesTornTailOnly) {
  const std::string tmp = testing::TempDir() + "recover_torn.jsonl";
  copy_file(kCorpus + "torn_unterminated.jsonl", tmp);
  const obs::JsonlScanReport rep = obs::recover_checksummed_jsonl(tmp);
  EXPECT_TRUE(rep.torn_tail);
  // The recovered file is the valid prefix, and a rescan is clean.
  EXPECT_EQ(read_file(tmp).size(), rep.keep_bytes);
  const obs::JsonlScanReport again = obs::scan_checksummed_jsonl(tmp);
  EXPECT_TRUE(again.clean());
  EXPECT_EQ(again.valid_lines, 2u);
  std::remove(tmp.c_str());
}

TEST(JsonlRecover, TruncatesTornAbTailKeepingArmLines) {
  // A mid-write crash in an A/B fleet run: the torn tail goes, the two
  // surviving lines still carry their arm + CDN fields.
  const std::string tmp = testing::TempDir() + "recover_ab.jsonl";
  copy_file(kCorpus + "torn_ab_tail.jsonl", tmp);
  const obs::JsonlScanReport rep = obs::recover_checksummed_jsonl(tmp);
  EXPECT_TRUE(rep.torn_tail);
  EXPECT_TRUE(rep.corrupt_interior_lines.empty());
  const obs::JsonlScanReport again = obs::scan_checksummed_jsonl(tmp);
  EXPECT_TRUE(again.clean());
  ASSERT_EQ(again.valid_lines, 2u);
  std::ifstream in(tmp);
  std::string line;
  while (std::getline(in, line)) {
    std::string_view payload;
    ASSERT_TRUE(obs::verify_checksummed_line(line, payload));
    EXPECT_TRUE(obs::parse_jsonl(payload).arm.has_value());
  }
  std::remove(tmp.c_str());
}

TEST(JsonlRecover, NeverDropsInteriorLines) {
  // keep_bytes-based truncation must not excise interior damage: recovery
  // of a file with a corrupt middle line leaves every byte in place.
  const std::string tmp = testing::TempDir() + "recover_interior.jsonl";
  copy_file(kCorpus + "corrupt_interior.jsonl", tmp);
  const std::string before = read_file(tmp);
  const obs::JsonlScanReport rep = obs::recover_checksummed_jsonl(tmp);
  EXPECT_FALSE(rep.torn_tail);
  ASSERT_EQ(rep.corrupt_interior_lines.size(), 1u);
  EXPECT_EQ(read_file(tmp), before);
  std::remove(tmp.c_str());
}

TEST(DurableSink, WritesChecksummedRecoverableLines) {
  const std::string path = testing::TempDir() + "durable_sink.jsonl";
  {
    obs::DurableJsonlTraceSink sink(path);
    obs::DecisionEvent e = full_event();
    for (std::uint64_t i = 0; i < 100; ++i) {
      e.seq = i;
      sink.on_decision(e);
    }
    sink.flush();
    EXPECT_EQ(sink.lines_written(), 100u);
  }
  const obs::JsonlScanReport rep = obs::scan_checksummed_jsonl(path);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.valid_lines, 100u);
  // Each payload parses back to the event that produced it.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::string_view payload;
  ASSERT_TRUE(obs::verify_checksummed_line(line, payload));
  const obs::DecisionEvent back = obs::parse_jsonl(payload);
  EXPECT_EQ(back.seq, 0u);
  EXPECT_EQ(back.scheme, full_event().scheme);
  std::remove(path.c_str());
}

TEST(DurableSink, SurfacesErrnoOnUnopenablePath) {
  // A path routed *through* a regular file fails with ENOTDIR regardless
  // of privileges (tests may run as root, where unwritable-mode tricks
  // don't bite).
  const std::string blocker = testing::TempDir() + "not_a_dir";
  std::ofstream(blocker) << "x";
  try {
    obs::DurableJsonlTraceSink sink(blocker + "/trace.jsonl");
    FAIL() << "expected std::system_error";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ENOTDIR);
  }
  std::remove(blocker.c_str());
}

TEST(DurableSink, SurfacesDiskFullAsSystemError) {
  // /dev/full: every write(2) fails with ENOSPC — the portable-enough
  // Linux stand-in for a full disk. Skip elsewhere.
  std::ifstream probe("/dev/full");
  if (!probe.good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  obs::DurableJsonlTraceSink sink("/dev/full");
  obs::DecisionEvent e = full_event();
  try {
    // The sink buffers ~64 KiB before hitting the kernel, so pump events
    // through flush() to force the failing write immediately.
    sink.on_decision(e);
    sink.flush();
    FAIL() << "expected std::system_error(ENOSPC)";
  } catch (const std::system_error& err) {
    EXPECT_EQ(err.code().value(), ENOSPC);
  }
}

}  // namespace
}  // namespace vbr
