// Chaos harness for cmarkovd (ISSUE 8): failpoint trigger policies and
// activation paths, crash-safe snapshot persistence (dirty-retry, torn
// writes, boot quarantine, byte-level corruption fuzzing), the crash-and-
// restart loop (no acked-event loss, bit-identical recovery), the overload
// degradation ladder (documented shedding order, zero accepted-event
// drops, one-rung-at-a-time recovery), and the FAILPOINT admin verb.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/model_io.hpp"
#include "src/serve/overload_governor.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/session_manager.hpp"
#include "src/serve/session_snapshot.hpp"
#include "src/util/crc32.hpp"
#include "src/util/failpoint.hpp"
#include "src/workload/testcase_generator.hpp"
#include "tests/allocation_probe.hpp"

namespace cmarkov::serve {
namespace {

using util::FailpointMode;
using util::FailpointRegistry;
using util::FailpointSpec;
using util::ScopedFailpoint;

/// Every test leaves the process-wide registry clean, even on failure.
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::instance().disarm_all(); }
};

core::Detector train_detector(const workload::ProgramSuite& suite,
                              std::uint64_t seed) {
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  config.training.max_iterations = 4;
  core::Detector detector = core::Detector::build(suite.module(), config);
  detector.train(workload::collect_traces(suite, 20, seed).traces);
  return detector;
}

struct Fixture {
  workload::ProgramSuite gzip = workload::make_gzip_suite();
  std::shared_ptr<const core::Detector> gzip_model =
      std::make_shared<const core::Detector>(train_detector(gzip, 91));

  std::vector<trace::CallEvent> events_for(std::uint64_t seed,
                                           std::size_t runs = 3) const {
    std::vector<trace::CallEvent> events;
    for (const auto& trace :
         workload::collect_traces(gzip, runs, seed).traces) {
      events.insert(events.end(), trace.events.begin(), trace.events.end());
    }
    return events;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

std::unique_ptr<ModelRegistry> make_registry() {
  auto registry = std::make_unique<ModelRegistry>();
  registry->add_shared("gzip", fixture().gzip_model);
  return registry;
}

ServiceConfig pump_config() {
  ServiceConfig config;
  config.num_workers = 1;
  config.manual_pump = true;
  return config;
}

void feed(SessionManager& manager, const std::string& id,
          const std::vector<trace::CallEvent>& events, std::size_t begin,
          std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    ASSERT_EQ(manager.submit(id, events[i]), SubmitResult::kAccepted) << i;
  }
  manager.drain();
}

void expect_same_frozen_state(const SessionSnapshot& a,
                              const SessionSnapshot& b) {
  EXPECT_EQ(a.monitor.window, b.monitor.window);
  EXPECT_EQ(a.monitor.consecutive_flagged, b.monitor.consecutive_flagged);
  EXPECT_EQ(a.monitor.cooldown_remaining, b.monitor.cooldown_remaining);
  EXPECT_EQ(a.monitor.stats.events_seen, b.monitor.stats.events_seen);
  EXPECT_EQ(a.monitor.stats.events_observed, b.monitor.stats.events_observed);
  EXPECT_EQ(a.monitor.stats.windows_scored, b.monitor.stats.windows_scored);
  EXPECT_EQ(a.monitor.stats.windows_flagged, b.monitor.stats.windows_flagged);
  EXPECT_EQ(a.monitor.stats.alarms, b.monitor.stats.alarms);
}

SessionSnapshot sample_snapshot(const std::string& id) {
  SessionSnapshot snap;
  snap.id = id;
  snap.model = "gzip";
  snap.model_version = 2;
  snap.model_fingerprint = 0xfeedbeef;
  snap.enqueued = 31;
  snap.processed = 30;
  snap.dropped = 1;
  snap.windows_to_alarm = 2;
  snap.cooldown_events = 5;
  snap.monitor.window = {3, 1, 4, 1, 5, 9, 2, 6};
  snap.monitor.consecutive_flagged = 1;
  snap.monitor.stats.events_seen = 30;
  snap.monitor.stats.windows_scored = 2;
  return snap;
}

// -- Failpoint policies and activation --------------------------------------

TEST_F(ChaosTest, SpecParseAndRenderRoundTrip) {
  const char* good[] = {"off", "always", "once", "every:3", "after:12"};
  for (const char* text : good) {
    const auto spec = util::parse_failpoint_spec(text);
    ASSERT_TRUE(spec.has_value()) << text;
    EXPECT_EQ(util::failpoint_spec_name(*spec), text);
  }
  const char* bad[] = {"",       "sometimes", "every:",  "every:0",
                       "every:x", "after:",   "after:-1", "always "};
  for (const char* text : bad) {
    EXPECT_FALSE(util::parse_failpoint_spec(text).has_value()) << text;
  }
  // after:0 is legal (fire from the first evaluation on).
  EXPECT_EQ(util::parse_failpoint_spec("after:0")->mode,
            FailpointMode::kAfterN);
}

TEST_F(ChaosTest, TriggerPoliciesAreDeterministic) {
  auto& registry = FailpointRegistry::instance();
  util::Failpoint& point = registry.point("chaos.policy");

  registry.arm("chaos.policy", *util::parse_failpoint_spec("every:3"));
  std::vector<bool> fired;
  for (int i = 0; i < 7; ++i) fired.push_back(point.should_fire());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false}));

  // Re-arming resets the call ordinal: after:2 skips the next two.
  registry.arm("chaos.policy", *util::parse_failpoint_spec("after:2"));
  EXPECT_FALSE(point.should_fire());
  EXPECT_FALSE(point.should_fire());
  EXPECT_TRUE(point.should_fire());
  EXPECT_TRUE(point.should_fire());

  // once fires exactly once, then self-disarms (the process-wide armed
  // count drops with it, restoring the macro's zero-cost fast path).
  registry.disarm_all();
  EXPECT_FALSE(FailpointRegistry::any_armed());
  registry.arm("chaos.policy", *util::parse_failpoint_spec("once"));
  EXPECT_TRUE(FailpointRegistry::any_armed());
  EXPECT_TRUE(point.should_fire());
  EXPECT_FALSE(FailpointRegistry::any_armed());
  EXPECT_FALSE(point.should_fire());

  // Hit counts are lifetime-monotonic across re-arms.
  EXPECT_EQ(point.hits(), 2u + 2u + 1u);
}

TEST_F(ChaosTest, ScopedArmingNeverLeaks) {
  auto& registry = FailpointRegistry::instance();
  {
    ScopedFailpoint fp("chaos.scoped", "always");
    EXPECT_TRUE(FailpointRegistry::any_armed());
    EXPECT_TRUE(registry.point("chaos.scoped").should_fire());
  }
  EXPECT_FALSE(FailpointRegistry::any_armed());
  EXPECT_FALSE(registry.point("chaos.scoped").should_fire());
}

TEST_F(ChaosTest, EnvActivationArmsAndSkipsMalformedEntries) {
  ::setenv("CMARKOV_FAILPOINTS",
           "chaos.env_a=always, chaos.env_b=every:3;broken=sometimes;"
           "=always;chaos.env_c",
           1);
  // Bare names default to always; the two malformed entries are skipped
  // with a logged error instead of taking the daemon down.
  EXPECT_EQ(util::arm_failpoints_from_env(), 3u);
  ::unsetenv("CMARKOV_FAILPOINTS");

  auto& registry = FailpointRegistry::instance();
  EXPECT_EQ(registry.point("chaos.env_a").spec().mode, FailpointMode::kAlways);
  EXPECT_EQ(registry.point("chaos.env_b").spec().mode,
            FailpointMode::kEveryNth);
  EXPECT_EQ(registry.point("chaos.env_b").spec().n, 3u);
  EXPECT_EQ(registry.point("chaos.env_c").spec().mode, FailpointMode::kAlways);
  EXPECT_EQ(registry.point("broken").spec().mode, FailpointMode::kOff);
}

// -- Overload governor unit behavior ----------------------------------------

TEST_F(ChaosTest, GovernorMovesOneRungAtATimeWithHysteresis) {
  OverloadOptions options;
  options.event_deadline_micros = 0.0;  // occupancy-only: deterministic
  options.sustain_micros = 100.0;
  OverloadGovernor governor(options);

  // A breach must persist for sustain_micros before the first rung.
  EXPECT_EQ(governor.update(0.0, 90, 100, 0.0).transitions, 0);
  EXPECT_EQ(governor.level(), OverloadLevel::kNormal);
  EXPECT_EQ(governor.update(99.0, 90, 100, 0.0).transitions, 0);
  EXPECT_EQ(governor.update(100.0, 90, 100, 0.0).transitions, 1);
  EXPECT_EQ(governor.level(), OverloadLevel::kShedTraces);

  // Each further rung needs its own sustained breach; the ladder tops out
  // at shed-idle and stays there while the breach holds.
  EXPECT_EQ(governor.update(200.0, 90, 100, 0.0).transitions, 1);
  EXPECT_EQ(governor.level(), OverloadLevel::kShedHellos);
  EXPECT_EQ(governor.update(300.0, 90, 100, 0.0).transitions, 1);
  EXPECT_EQ(governor.level(), OverloadLevel::kShedIdle);
  EXPECT_EQ(governor.update(400.0, 90, 100, 0.0).transitions, 0);
  EXPECT_EQ(governor.level(), OverloadLevel::kShedIdle);

  // The hold band (between low and high water) freezes the ladder: a dip
  // into it resets the breach timer instead of recovering.
  EXPECT_EQ(governor.update(500.0, 50, 100, 0.0).transitions, 0);
  EXPECT_EQ(governor.level(), OverloadLevel::kShedIdle);

  // Recovery needs sustained relief, and is one rung at a time too.
  EXPECT_EQ(governor.update(600.0, 0, 100, 0.0).transitions, 0);
  EXPECT_EQ(governor.update(700.0, 0, 100, 0.0).transitions, 1);
  EXPECT_EQ(governor.level(), OverloadLevel::kShedHellos);
  EXPECT_EQ(governor.update(800.0, 0, 100, 0.0).transitions, 1);
  EXPECT_EQ(governor.update(900.0, 0, 100, 0.0).transitions, 1);
  EXPECT_EQ(governor.level(), OverloadLevel::kNormal);
  EXPECT_EQ(governor.update(1000.0, 0, 100, 0.0).transitions, 0);
}

TEST_F(ChaosTest, GovernorDeadlineSignalCountsAsPressure) {
  OverloadOptions options;
  options.event_deadline_micros = 1000.0;
  options.sustain_micros = 0.0;
  OverloadGovernor governor(options);

  // 10% occupancy is calm, but 100 queued events at 50us each is a 5000us
  // estimated delay against a 1000us budget: pressure 5.0 breaches.
  EXPECT_DOUBLE_EQ(governor.pressure(100, 1000, 0.0), 0.1);
  EXPECT_DOUBLE_EQ(governor.pressure(100, 1000, 50.0), 5.0);
  EXPECT_EQ(governor.update(1.0, 100, 1000, 50.0).transitions, 1);
  EXPECT_EQ(governor.level(), OverloadLevel::kShedTraces);
}

// -- Crash-safe snapshot persistence ----------------------------------------

TEST_F(ChaosTest, WriteFailureGoesDirtyAndRetriesUntilClean) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_chaos_dirty";
  std::filesystem::remove_all(dir);
  obs::MetricsRegistry metrics;
  SnapshotStore store(dir);
  store.bind_instruments(metrics);
  store.set_retry_backoff(0, 0);

  {
    ScopedFailpoint fp("snapshot.write_fail", "always");
    store.put(sample_snapshot("flaky"));
    store.put(sample_snapshot("flaky"));  // retries the dirty entry too
  }
  EXPECT_EQ(store.dirty_count(), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/flaky.session"));
  EXPECT_TRUE(store.contains("flaky"));  // degraded to memory, not lost
  EXPECT_GE(metrics.counter("cmarkov_snapshot_write_failures_total").value(),
            2u);

  // Once the fault clears, the pending write flushes and the entry comes
  // off the dirty list; the file now exists and carries a valid CRC.
  EXPECT_EQ(store.retry_pending_writes(), 1u);
  EXPECT_EQ(store.dirty_count(), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/flaky.session"));
  EXPECT_GE(metrics.counter("cmarkov_snapshot_write_retries_total").value(),
            1u);

  SnapshotStore reborn(dir);
  EXPECT_EQ(reborn.load_directory(), 1u);
  const auto loaded = reborn.peek("flaky");
  ASSERT_TRUE(loaded.has_value());
  expect_same_frozen_state(*loaded, sample_snapshot("flaky"));
  std::filesystem::remove_all(dir);
}

TEST_F(ChaosTest, OpenAndFsyncFailuresDegradeWithoutThrowing) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_chaos_openfail";
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);
  store.set_retry_backoff(0, 0);
  {
    ScopedFailpoint fp("snapshot.open_fail", "always");
    EXPECT_NO_THROW(store.put(sample_snapshot("o")));
    EXPECT_EQ(store.dirty_count(), 1u);
  }
  {
    // put("f") retries "o" first (which eats this one-shot fsync fault and
    // stays dirty), then lands its own write clean — faults on the retry
    // path re-queue the entry instead of losing it.
    ScopedFailpoint fp("snapshot.fsync_fail", "once");
    EXPECT_NO_THROW(store.put(sample_snapshot("f")));
  }
  EXPECT_EQ(store.dirty_count(), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/f.session"));
  EXPECT_EQ(store.retry_pending_writes(), 1u);
  EXPECT_EQ(store.dirty_count(), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/o.session"));
  std::filesystem::remove_all(dir);
}

TEST_F(ChaosTest, TornWriteIsQuarantinedAtBootNotSilentlySkipped) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_chaos_torn";
  std::filesystem::remove_all(dir);
  {
    SnapshotStore store(dir);
    store.put(sample_snapshot("intact"));
    ScopedFailpoint fp("snapshot.write_torn", "always");
    // The torn write lands half the payload at the FINAL path and reports
    // success — exactly the failure atomic-rename prevents, injected past
    // it, so only the boot-time CRC check can catch it.
    store.put(sample_snapshot("torn"));
  }
  // Plus an orphaned tmp, as a crash between write and rename leaves.
  { std::ofstream tmp(dir + "/orphan.session.tmp"); tmp << "partial"; }

  SnapshotStore store(dir);
  EXPECT_EQ(store.load_directory(), 1u);
  EXPECT_TRUE(store.contains("intact"));
  EXPECT_FALSE(store.contains("torn"));
  EXPECT_EQ(store.quarantined_count(), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/torn.session"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/torn.session"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/orphan.session.tmp"));
  std::filesystem::remove_all(dir);
}

/// Satellite (c): corrupt one snapshot file at EVERY byte offset — a
/// truncation at each length and a bit flip at each position — and assert
/// boot quarantines every mutant while the intact sibling loads and
/// round-trips bit-identically.
TEST_F(ChaosTest, EveryByteOffsetCorruptionIsQuarantinedWithoutLosingSiblings) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_chaos_fuzz";
  std::filesystem::remove_all(dir);
  {
    SnapshotStore store(dir);
    store.put(sample_snapshot("good"));
  }
  std::ifstream in(dir + "/good.session", std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 15u);  // body + crc footer

  std::size_t mutants = 0;
  const auto spawn = [&](const std::string& name, const std::string& data) {
    std::ofstream out(dir + "/" + name + ".session", std::ios::binary);
    out << data;
    ++mutants;
  };
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    spawn("trunc_" + std::to_string(cut), bytes.substr(0, cut));
  }
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    spawn("flip_" + std::to_string(pos), flipped);
  }

  SnapshotStore store(dir);
  EXPECT_EQ(store.load_directory(), 1u);
  EXPECT_EQ(store.quarantined_count(), mutants);
  const auto loaded = store.peek("good");
  ASSERT_TRUE(loaded.has_value());
  expect_same_frozen_state(*loaded, sample_snapshot("good"));
  EXPECT_EQ(loaded->model_fingerprint, 0xfeedbeefu);

  // Nothing vanished: every mutant is sitting in quarantine for forensics,
  // and the healthy file is still in place.
  std::size_t quarantined_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/quarantine")) {
    quarantined_files += entry.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(quarantined_files, mutants);
  EXPECT_TRUE(std::filesystem::exists(dir + "/good.session"));
  std::filesystem::remove_all(dir);
}

/// The `cmarkov-session 1` bytes as SnapshotStore writes them, body plus
/// CRC footer, are pinned by tests/golden/session_v1.session: boot decodes
/// the golden, and putting the decoded snapshot back rewrites it byte for
/// byte.
TEST_F(ChaosTest, GoldenSnapshotLoadsAndRewritesByteForByte) {
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string golden =
      slurp(std::string(CMARKOV_TEST_GOLDEN_DIR) + "/session_v1.session");
  ASSERT_FALSE(golden.empty());
  const std::string dir = ::testing::TempDir() + "/cmarkov_chaos_golden";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/golden-1.session", std::ios::binary);
    out << golden;
  }

  SnapshotStore store(dir);
  ASSERT_EQ(store.load_directory(), 1u);
  const auto snapshot = store.take("golden-1");
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->model, "gzip libcall\nv2 ");
  EXPECT_EQ(snapshot->model_fingerprint, 0xfeedbeefcafe1234u);
  EXPECT_EQ(snapshot->monitor.window.size(), 14u);
  EXPECT_EQ(snapshot->monitor.stats.alarms, 4u);
  store.put(*snapshot);
  EXPECT_EQ(slurp(dir + "/golden-1.session"), golden);
  std::filesystem::remove_all(dir);
}

/// Replaces the "key …" line of an encoded snapshot body.
std::string with_line(const std::string& body, const std::string& key,
                      const std::string& line) {
  const std::size_t start = body.find("\n" + key + " ") + 1;
  EXPECT_NE(start, 0u) << key;
  std::string mutated = body;
  mutated.replace(start, body.find('\n', start) - start, line);
  return mutated;
}

/// A lying count that the CRC cannot catch (it seals whatever it is given)
/// must be refused by the decoder: naming its key, before allocating more
/// than the body holds.
TEST_F(ChaosTest, LyingSnapshotCountsAreRefusedBeforeAllocating) {
  const std::string body = encode_session_snapshot(sample_snapshot("liar"));
  const std::pair<const char*, const char*> lies[] = {
      {"window", "window 100000000 3 1 4"},
      {"window", "window 18446744073709551615 3"},
      {"id", "id 100000000 liar"},
      {"model", "model 100000000 gzip"},
  };
  for (const auto& [key, line] : lies) {
    const std::string mutant = with_line(body, key, line);
    std::string message;
    std::size_t largest = 0;
    {
      const test_support::AllocationProbe probe;
      try {
        decode_session_snapshot(mutant);
      } catch (const std::runtime_error& e) {
        message = e.what();
      }
      largest = probe.largest();
    }
    EXPECT_NE(message.find(std::string("'") + key + "'"), std::string::npos)
        << line << ": '" << message << "'";
    EXPECT_LE(largest, mutant.size()) << line;
  }
}

TEST_F(ChaosTest, SignedSnapshotCountersAreRefused) {
  // operator>> once wrapped "-1" into 2^64 - 1 here.
  const std::string body = encode_session_snapshot(sample_snapshot("signed"));
  EXPECT_THROW(decode_session_snapshot(with_line(body, "enqueued",
                                                 "enqueued -1")),
               std::runtime_error);
  EXPECT_THROW(decode_session_snapshot(with_line(body, "window",
                                                 "window 2 -3 1")),
               std::runtime_error);
}

TEST_F(ChaosTest, LyingWindowCountBehindAValidCrcIsQuarantined) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_chaos_liar";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string body = with_line(
      encode_session_snapshot(sample_snapshot("liar")), "window",
      "window 100000000 3 1 4 1 5 9 2 6");
  char footer[32];
  std::snprintf(footer, sizeof(footer), "crc32 %08x\n", util::crc32(body));
  {
    std::ofstream out(dir + "/liar.session", std::ios::binary);
    out << body << footer;
  }

  std::ostringstream log;
  std::streambuf* const stderr_buffer = std::cerr.rdbuf(log.rdbuf());
  SnapshotStore store(dir);
  const std::size_t loaded = store.load_directory();
  std::cerr.rdbuf(stderr_buffer);

  EXPECT_EQ(loaded, 0u);
  EXPECT_EQ(store.quarantined_count(), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/liar.session"));
  EXPECT_NE(log.str().find("'window' count 100000000"), std::string::npos)
      << log.str();
  std::filesystem::remove_all(dir);
}

// -- Crash-and-restart loop --------------------------------------------------

/// The tentpole's end-to-end guarantee: a daemon that persists, "crashes"
/// (manager destroyed, memory gone, disk survives), and restarts — several
/// times, at arbitrary points in the stream — loses no acknowledged event
/// and ends bit-identical to a session that never stopped.
TEST_F(ChaosTest, CrashRestartLoopLosesNoAckedEventsAndRecoversExactly) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_chaos_restart";
  std::filesystem::remove_all(dir);
  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.snapshot_dir = dir;
  const std::vector<trace::CallEvent> events = fixture().events_for(61);
  ASSERT_GT(events.size(), 8u);

  constexpr std::size_t kRestarts = 4;
  std::size_t done = 0;
  for (std::size_t run = 0; run < kRestarts; ++run) {
    SessionManager manager(*registry, config);
    if (run == 0) {
      manager.open_session("durable", "gzip");
    } else {
      ASSERT_EQ(manager.snapshot_store().load_directory(), 1u) << run;
      ASSERT_TRUE(manager.has_session("durable")) << run;
    }
    const std::size_t next = events.size() * (run + 1) / kRestarts;
    feed(manager, "durable", events, done, next);
    done = next;
    ASSERT_TRUE(manager.evict_session("durable")) << run;
    ASSERT_TRUE(std::filesystem::exists(dir + "/durable.session")) << run;
  }  // each scope exit is a crash: resident state is simply gone

  SessionManager final_run(*registry, config);
  ASSERT_EQ(final_run.snapshot_store().load_directory(), 1u);
  final_run.open_session("straight", "gzip");
  feed(final_run, "straight", events, 0, events.size());

  // Zero acked-event loss across all four lifetimes...
  const SessionStats durable = final_run.session_stats("durable");
  EXPECT_EQ(durable.enqueued, events.size());
  EXPECT_EQ(durable.processed, events.size());
  EXPECT_EQ(durable.dropped, 0u);
  EXPECT_EQ(durable.evicted_dropped, 0u);

  // ...and the full scoring state matches the uninterrupted run exactly.
  ASSERT_TRUE(final_run.evict_session("straight"));
  const auto interrupted = final_run.snapshot_store().peek("durable");
  const auto straight = final_run.snapshot_store().peek("straight");
  ASSERT_TRUE(interrupted.has_value());
  ASSERT_TRUE(straight.has_value());
  expect_same_frozen_state(*interrupted, *straight);
  std::filesystem::remove_all(dir);
}

// -- Overload degradation ladder in the serving path -------------------------

TEST_F(ChaosTest, LadderShedsInDocumentedOrderWithZeroAcceptedDrops) {
  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.queue_capacity = 8;
  config.policy = BackpressurePolicy::kReject;
  config.max_resident_sessions = 8;
  config.overload.sustain_micros = 0.0;        // deterministic transitions
  config.overload.event_deadline_micros = 0.0;  // occupancy-only signal
  SessionManager manager(*registry, config);
  const auto level = [&] { return manager.overload_governor().level(); };
  const auto counter = [&](const char* name) {
    return manager.instruments().counter(name).value();
  };

  manager.open_session("busy", "gzip");
  for (const char* id : {"idle-a", "idle-b", "idle-c", "idle-d", "idle-e",
                         "idle-f", "idle-g"}) {
    manager.open_session(id, "gzip");
  }

  // Fill the one worker queue to 100% occupancy without pumping.
  trace::CallEvent event;
  event.caller = "main";
  event.name = "read";
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(manager.submit("busy", event), SubmitResult::kAccepted) << i;
  }
  EXPECT_EQ(level(), OverloadLevel::kNormal);

  // Each METRICS refresh feeds the governor one observation; with zero
  // sustain the ladder climbs exactly one rung per refresh — in order.
  manager.metrics_registry();
  EXPECT_EQ(level(), OverloadLevel::kShedTraces);
  EXPECT_TRUE(manager.overload_governor().shed_trace_sampling());
  EXPECT_FALSE(manager.overload_governor().shed_new_sessions());

  manager.metrics_registry();
  EXPECT_EQ(level(), OverloadLevel::kShedHellos);
  try {
    manager.open_session("newbie", "gzip");
    FAIL() << "shed-hellos must refuse genuinely new sessions";
  } catch (const OverloadedError& e) {
    EXPECT_STREQ(e.what(), "overloaded retry-after=1000");
  }
  EXPECT_EQ(counter("cmarkov_serve_overload_shed_hellos_total"), 1u);
  EXPECT_FALSE(manager.has_session("newbie"));

  // Rung 3 shrinks the resident working set right away: the budget drops
  // to max_resident * 0.75 = 6, evicting the two least-recently-active
  // idle sessions ("busy" holds queued events and is untouchable).
  manager.metrics_registry();
  EXPECT_EQ(level(), OverloadLevel::kShedIdle);
  EXPECT_EQ(manager.resident_sessions(), 6u);
  EXPECT_TRUE(manager.snapshot_store().contains("idle-a"));
  EXPECT_TRUE(manager.snapshot_store().contains("idle-b"));
  EXPECT_FALSE(manager.snapshot_store().contains("idle-c"));
  EXPECT_FALSE(manager.snapshot_store().contains("busy"));
  EXPECT_EQ(counter("cmarkov_serve_overload_early_evicted_total"), 2u);

  // The ladder tops out: another breach observation moves nothing.
  manager.metrics_registry();
  EXPECT_EQ(level(), OverloadLevel::kShedIdle);
  EXPECT_EQ(counter("cmarkov_serve_overload_transitions_total"), 3u);

  // Under the whole episode, not one ACCEPTED event was dropped: draining
  // scores all eight, and nothing was rejected or lost to the ladder.
  manager.drain();
  const SessionStats busy = manager.session_stats("busy");
  EXPECT_EQ(busy.enqueued, 8u);
  EXPECT_EQ(busy.processed, 8u);
  EXPECT_EQ(busy.dropped, 0u);
  EXPECT_EQ(busy.rejected, 0u);
  EXPECT_EQ(busy.evicted_dropped, 0u);

  // Recovery is as deliberate as degradation: one rung per observation,
  // all the way back to normal service.
  manager.metrics_registry();
  EXPECT_EQ(level(), OverloadLevel::kShedHellos);
  manager.metrics_registry();
  EXPECT_EQ(level(), OverloadLevel::kShedTraces);
  manager.metrics_registry();
  EXPECT_EQ(level(), OverloadLevel::kNormal);
  EXPECT_EQ(counter("cmarkov_serve_overload_transitions_total"), 6u);

  // New sessions are admitted again, and the early-evicted sessions come
  // back transparently with nothing lost.
  EXPECT_NO_THROW(manager.open_session("newbie", "gzip"));
  ASSERT_EQ(manager.submit("idle-a", event), SubmitResult::kAccepted);
  manager.drain();
  EXPECT_EQ(manager.session_stats("idle-a").processed, 1u);
}

TEST_F(ChaosTest, LadderShedsSampledTracingButHonorsForcedTraces) {
  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.tracing.enabled = true;
  config.tracing.sample_every = 1;  // every event would normally trace
  config.overload.sustain_micros = 0.0;
  SessionManager manager(*registry, config);
  manager.open_session("t", "gzip");
  trace::CallEvent event;
  event.caller = "main";
  event.name = "read";

  // Push the governor to shed-traces with a synthetic pressure reading.
  manager.overload_governor().update(1.0, 100, 100, 0.0);
  ASSERT_EQ(manager.overload_governor().level(), OverloadLevel::kShedTraces);

  // An unforced event is shed; a tid=-forced one is a debugging request
  // and stays traced even while shedding.
  ASSERT_EQ(manager.submit("t", event), SubmitResult::kAccepted);
  EXPECT_EQ(manager.instruments()
                .counter("cmarkov_serve_overload_shed_traces_total")
                .value(),
            1u);
  manager.overload_governor().update(2.0, 100, 100, 0.0);
  ASSERT_EQ(manager.submit("t", event, "tid-forced"), SubmitResult::kAccepted);
  EXPECT_EQ(manager.instruments()
                .counter("cmarkov_serve_overload_shed_traces_total")
                .value(),
            1u);  // unchanged: the forced trace was honored, not shed
  manager.drain();
}

// -- Failpoints wired through the serving path -------------------------------

TEST_F(ChaosTest, AdmitFullFailpointForcesBackpressureAndMirrorsHits) {
  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.policy = BackpressurePolicy::kReject;
  SessionManager manager(*registry, config);
  manager.open_session("af", "gzip");
  trace::CallEvent event;
  event.caller = "main";
  event.name = "read";

  {
    ScopedFailpoint fp("serve.admit_full", "always");
    EXPECT_EQ(manager.submit("af", event), SubmitResult::kRejected);
    EXPECT_EQ(manager.session_stats("af").rejected, 1u);
  }
  EXPECT_EQ(manager.submit("af", event), SubmitResult::kAccepted);
  manager.drain();

  // The METRICS refresh mirrors lifetime failpoint hits onto the registry.
  manager.metrics_registry();
  EXPECT_GE(manager.instruments()
                .counter("cmarkov_failpoint_serve_admit_full_hits_total")
                .value(),
            1u);
}

TEST_F(ChaosTest, FailpointVerbListsArmsAndDisarms) {
  const std::string model_path =
      ::testing::TempDir() + "/cmarkov_chaos_reload.model";
  core::save_detector_file(model_path, *fixture().gzip_model);
  auto registry = make_registry();
  SessionManager manager(*registry, pump_config());
  ProtocolSession session(manager);

  EXPECT_TRUE(session.handle_line("FAILPOINT").starts_with("FAILPOINT v=1 n="));
  EXPECT_TRUE(session.handle_line("FAILPOINT serve.reload_fail sometimes")
                  .starts_with("ERR bad failpoint spec"));
  EXPECT_EQ(session.handle_line("FAILPOINT serve.reload_fail always"),
            "OK failpoint=serve.reload_fail spec=always");

  // The armed failpoint turns a hot reload into a clean application error:
  // the old model keeps serving, no connection is dropped.
  const std::string failed =
      session.handle_line("RELOAD gzip " + model_path);
  EXPECT_TRUE(failed.starts_with("ERR")) << failed;
  EXPECT_NE(failed.find("serve.reload_fail"), std::string::npos) << failed;

  // The listing reflects both the spec and the recorded hit.
  const std::string listing = session.handle_line("FAILPOINT");
  EXPECT_NE(listing.find("serve.reload_fail always hits=1"),
            std::string::npos)
      << listing;

  EXPECT_EQ(session.handle_line("FAILPOINT serve.reload_fail off"),
            "OK failpoint=serve.reload_fail spec=off");
  EXPECT_TRUE(session.handle_line("RELOAD gzip " + model_path)
                  .starts_with("OK model=gzip"))
      << "disarming must restore normal reloads";
  std::filesystem::remove(model_path);
}

}  // namespace
}  // namespace cmarkov::serve
