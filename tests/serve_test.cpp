// Tests for the cmarkovd serving subsystem: model registry, sharded
// session manager (including the multi-session sequential-equivalence
// guarantee and backpressure accounting), latency metrics, the line
// protocol over the in-memory transport, and the decision audit trail
// (tid= threading, TRACE verb, METRICS golden exposition).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <thread>

#include "src/core/model_io.hpp"
#include "src/serve/drift_monitor.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/rng.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::serve {
namespace {

void compare_golden(const std::string& name, const std::string& actual) {
  const std::filesystem::path path =
      std::filesystem::path(CMARKOV_TEST_GOLDEN_DIR) / name;
  if (std::getenv("CMARKOV_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden " << path
                            << " (regenerate with CMARKOV_UPDATE_GOLDEN=1)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual);
}

/// Lifetime value of a service counter, read from the refreshed registry
/// snapshot. at() throws on a missing name, where counter(name) would
/// silently register a zero.
std::uint64_t counter_value(SessionManager& manager, const std::string& name) {
  return manager.metrics_registry().snapshot().counters.at(name);
}

core::Detector train_detector(const workload::ProgramSuite& suite,
                              std::uint64_t seed) {
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  config.training.max_iterations = 4;
  core::Detector detector = core::Detector::build(suite.module(), config);
  detector.train(workload::collect_traces(suite, 20, seed).traces);
  return detector;
}

/// Two trained models plus benign event streams, built once per process.
struct Fixture {
  workload::ProgramSuite gzip = workload::make_gzip_suite();
  workload::ProgramSuite sed = workload::make_sed_suite();
  std::shared_ptr<const core::Detector> gzip_model =
      std::make_shared<const core::Detector>(train_detector(gzip, 91));
  std::shared_ptr<const core::Detector> sed_model =
      std::make_shared<const core::Detector>(train_detector(sed, 17));
  ModelRegistry registry;

  Fixture() {
    registry.add_shared("gzip", gzip_model);
    registry.add_shared("sed", sed_model);
  }

  /// A session's event feed: the concatenated events of a few benign runs.
  std::vector<trace::CallEvent> events_for(const workload::ProgramSuite& suite,
                                           std::uint64_t seed,
                                           std::size_t runs = 3) const {
    std::vector<trace::CallEvent> events;
    for (const auto& trace :
         workload::collect_traces(suite, runs, seed).traces) {
      events.insert(events.end(), trace.events.begin(), trace.events.end());
    }
    return events;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Expected counters from running the same events through a standalone
/// OnlineMonitor — the single-threaded ground truth.
core::MonitorStats sequential_stats(const core::Detector& detector,
                                    const std::vector<trace::CallEvent>& events,
                                    core::MonitorOptions options) {
  core::OnlineMonitor monitor(detector, nullptr, options);
  for (const auto& event : events) monitor.on_event(event);
  return monitor.stats();
}

void expect_matches_sequential(const SessionStats& stats,
                               const core::MonitorStats& expected) {
  EXPECT_EQ(stats.monitor.events_seen, expected.events_seen) << stats.id;
  EXPECT_EQ(stats.monitor.events_observed, expected.events_observed)
      << stats.id;
  EXPECT_EQ(stats.monitor.windows_scored, expected.windows_scored) << stats.id;
  EXPECT_EQ(stats.monitor.windows_flagged, expected.windows_flagged)
      << stats.id;
  EXPECT_EQ(stats.monitor.alarms, expected.alarms) << stats.id;
  EXPECT_EQ(stats.processed, expected.events_seen) << stats.id;
  EXPECT_EQ(stats.dropped, 0u) << stats.id;
  EXPECT_EQ(stats.rejected, 0u) << stats.id;
}

TEST(ModelRegistryTest, ServesSharedTrainedDetectors) {
  ModelRegistry registry;
  registry.add_shared("gzip", fixture().gzip_model);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.require("gzip"), fixture().gzip_model);
  EXPECT_THROW(registry.require("nope"), std::invalid_argument);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"gzip"});
}

TEST(ModelRegistryTest, RejectsUntrainedDetectors) {
  ModelRegistry registry;
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  EXPECT_THROW(
      registry.add("raw",
                   core::Detector::build(fixture().gzip.module(), config)),
      std::invalid_argument);
}

TEST(ModelRegistryTest, LoadsFilesAndDirectories) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_registry_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/registry_gzip.model";
  core::save_detector_file(path, *fixture().gzip_model);

  ModelRegistry registry;
  registry.load_file("from-file", path);
  EXPECT_TRUE(registry.require("from-file") != nullptr);
  EXPECT_GE(registry.load_directory(dir), 1u);  // picks up *.model files
  EXPECT_TRUE(registry.require("registry_gzip") != nullptr);

  std::ofstream(dir + "/broken.model") << "garbage\n";
  EXPECT_THROW(registry.load_file("broken", dir + "/broken.model"),
               std::runtime_error);
}

TEST(ModelRegistryTest, HotSwapKeepsOldSharedPtrAlive) {
  ModelRegistry registry;
  registry.add_shared("m", fixture().gzip_model);
  const auto before = registry.require("m");
  registry.add_shared("m", fixture().sed_model);
  EXPECT_EQ(registry.require("m"), fixture().sed_model);
  EXPECT_EQ(before, fixture().gzip_model);  // old handle still valid
}

// The tentpole guarantee: 2 models x 8 sessions fed interleaved from one
// producer thread (rng-seeded interleaving), scored concurrently by 4
// workers, must reproduce the sequential OnlineMonitor counters exactly.
TEST(SessionManagerTest, InterleavedSubmissionMatchesSequential) {
  ServiceConfig config;
  config.num_workers = 4;
  config.queue_capacity = 128;
  config.policy = BackpressurePolicy::kBlock;
  config.monitor.windows_to_alarm = 2;
  config.monitor.cooldown_events = 5;
  SessionManager manager(fixture().registry, config);

  std::vector<std::string> ids;
  std::vector<std::vector<trace::CallEvent>> feeds;
  std::vector<const core::Detector*> detectors;
  for (std::size_t i = 0; i < 8; ++i) {
    const bool is_gzip = i % 2 == 0;
    ids.push_back("session-" + std::to_string(i));
    manager.open_session(ids.back(), is_gzip ? "gzip" : "sed");
    feeds.push_back(fixture().events_for(
        is_gzip ? fixture().gzip : fixture().sed, 100 + i));
    detectors.push_back(is_gzip ? fixture().gzip_model.get()
                                : fixture().sed_model.get());
  }

  Rng rng(2024);
  std::vector<std::size_t> cursors(ids.size(), 0);
  std::vector<std::size_t> live;  // sessions with events remaining
  for (std::size_t i = 0; i < ids.size(); ++i) live.push_back(i);
  while (!live.empty()) {
    const std::size_t pick = rng.index(live.size());
    const std::size_t s = live[pick];
    ASSERT_EQ(manager.submit(ids[s], feeds[s][cursors[s]++]),
              SubmitResult::kAccepted);
    if (cursors[s] == feeds[s].size()) {
      live[pick] = live.back();
      live.pop_back();
    }
  }
  manager.drain();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_matches_sequential(
        manager.session_stats(ids[i]),
        sequential_stats(*detectors[i], feeds[i], config.monitor));
  }
  const obs::MetricsRegistry::Snapshot metrics =
      manager.metrics_registry().snapshot();
  const std::uint64_t processed =
      metrics.counters.at("cmarkov_serve_events_processed_total");
  EXPECT_EQ(processed,
            metrics.counters.at("cmarkov_serve_events_enqueued_total"));
  EXPECT_EQ(metrics.counters.at("cmarkov_serve_events_dropped_total"), 0u);
  EXPECT_EQ(metrics.counters.at("cmarkov_serve_events_rejected_total"), 0u);
  EXPECT_EQ(metrics.histograms.at("cmarkov_serve_latency_micros").count,
            processed);
}

// Same guarantee under real MPSC contention: one producer thread per
// session, all eight hammering the pool at once.
TEST(SessionManagerTest, ConcurrentProducersMatchSequential) {
  ServiceConfig config;
  config.num_workers = 4;
  config.queue_capacity = 64;
  config.policy = BackpressurePolicy::kBlock;
  SessionManager manager(fixture().registry, config);

  std::vector<std::string> ids;
  std::vector<std::vector<trace::CallEvent>> feeds;
  std::vector<const core::Detector*> detectors;
  for (std::size_t i = 0; i < 8; ++i) {
    const bool is_gzip = i < 4;
    ids.push_back("p" + std::to_string(i));
    manager.open_session(ids.back(), is_gzip ? "gzip" : "sed");
    feeds.push_back(fixture().events_for(
        is_gzip ? fixture().gzip : fixture().sed, 200 + i, 2));
    detectors.push_back(is_gzip ? fixture().gzip_model.get()
                                : fixture().sed_model.get());
  }

  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    producers.emplace_back([&, i] {
      for (const auto& event : feeds[i]) {
        ASSERT_EQ(manager.submit(ids[i], event), SubmitResult::kAccepted);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  manager.drain();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_matches_sequential(
        manager.session_stats(ids[i]),
        sequential_stats(*detectors[i], feeds[i], config.monitor));
  }
}

// TSan-covered via tools/run_tsan_smoke.sh: shard workers keep scoring
// through the registry's shared ScoringKernel image while RELOAD hot-swaps
// model + kernel underneath them (each session's binding and monitor pin
// the version they score with until the rebind under monitor_mu).
TEST(SessionManagerTest, LiveReloadSwapsSharedKernelUnderTraffic) {
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 256;
  config.policy = BackpressurePolicy::kBlock;
  ModelRegistry registry;
  registry.add_shared("m", fixture().gzip_model);
  const VersionedModel v1 = registry.require_versioned("m");
  ASSERT_NE(v1.kernel, nullptr);
  // One compiled image per model version, shared by every reader.
  EXPECT_EQ(registry.require_versioned("m").kernel, v1.kernel);
  EXPECT_GE(registry.kernel_image_bytes(), v1.kernel->image_bytes());

  SessionManager manager(registry, config);
  for (int s = 0; s < 6; ++s) {
    manager.open_session("k" + std::to_string(s), "m");
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&manager, p, &stop] {
      const auto feed = fixture().events_for(fixture().gzip, 400 + p, 1);
      std::size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        manager.submit("k" + std::to_string(p * 2), feed[i % feed.size()]);
        manager.submit("k" + std::to_string(p * 2 + 1),
                       feed[i % feed.size()]);
        ++i;
      }
    });
  }

  // Hot swaps while producers hammer the shard queues: every swap must
  // publish a fresh kernel image and rebind all six live sessions.
  std::shared_ptr<const core::ScoringKernel> last = v1.kernel;
  for (int r = 0; r < 4; ++r) {
    const auto& model =
        r % 2 == 0 ? fixture().sed_model : fixture().gzip_model;
    const ReloadReport report = manager.reload_model("m", model);
    EXPECT_EQ(report.sessions_rebound, 6u);
    const VersionedModel current = registry.require_versioned("m");
    EXPECT_NE(current.kernel, last);
    EXPECT_GT(current.version, v1.version);
    last = current.kernel;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (auto& producer : producers) producer.join();
  manager.drain();

  EXPECT_EQ(counter_value(manager, "cmarkov_serve_events_processed_total"),
            counter_value(manager, "cmarkov_serve_events_enqueued_total"));
  for (int s = 0; s < 6; ++s) {
    const SessionStats stats = manager.session_stats("k" + std::to_string(s));
    EXPECT_EQ(stats.model, "m");
    EXPECT_EQ(stats.processed, stats.enqueued);
    EXPECT_EQ(stats.dropped, 0u);
  }
}

TEST(SessionManagerTest, RejectPolicyCountsPerSession) {
  ServiceConfig config;
  config.num_workers = 1;  // both sessions share the one shard queue
  config.queue_capacity = 4;
  config.policy = BackpressurePolicy::kReject;
  config.manual_pump = true;
  SessionManager manager(fixture().registry, config);
  manager.open_session("a", "gzip");
  manager.open_session("b", "gzip");

  trace::CallEvent event;
  event.name = "read";
  event.caller = "main";
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(manager.submit("a", event), SubmitResult::kAccepted);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(manager.submit("b", event), SubmitResult::kRejected);
  }
  EXPECT_EQ(manager.session_stats("a").enqueued, 4u);
  EXPECT_EQ(manager.session_stats("a").rejected, 0u);
  EXPECT_EQ(manager.session_stats("b").rejected, 3u);
  EXPECT_EQ(counter_value(manager, "cmarkov_serve_events_rejected_total"),
            3u);

  manager.drain();  // frees the queue
  EXPECT_EQ(manager.session_stats("a").processed, 4u);
  EXPECT_EQ(manager.submit("b", event), SubmitResult::kAccepted);
}

TEST(SessionManagerTest, DropOldestEvictsVictimAndCountsIt) {
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  config.policy = BackpressurePolicy::kDropOldest;
  config.manual_pump = true;
  SessionManager manager(fixture().registry, config);
  manager.open_session("victim", "gzip");
  manager.open_session("hog", "gzip");

  trace::CallEvent event;
  event.name = "read";
  event.caller = "main";
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(manager.submit("victim", event), SubmitResult::kAccepted);
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(manager.submit("hog", event), SubmitResult::kDroppedOldest);
  }
  // The two oldest queued events belonged to "victim".
  EXPECT_EQ(manager.session_stats("victim").dropped, 2u);
  EXPECT_EQ(manager.session_stats("hog").dropped, 0u);

  manager.drain();
  EXPECT_EQ(manager.session_stats("victim").processed, 2u);
  EXPECT_EQ(manager.session_stats("hog").processed, 2u);
  EXPECT_EQ(counter_value(manager, "cmarkov_serve_events_dropped_total"), 2u);
}

TEST(SessionManagerTest, BlockPolicyLosesNothingUnderSaturation) {
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 8;  // tiny: forces producers to block constantly
  config.policy = BackpressurePolicy::kBlock;
  SessionManager manager(fixture().registry, config);

  const auto feed = fixture().events_for(fixture().gzip, 300, 2);
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string id = "blocked-" + std::to_string(i);
    manager.open_session(id, "gzip");
    producers.emplace_back([&, id] {
      for (const auto& event : feed) manager.submit(id, event);
    });
  }
  for (auto& producer : producers) producer.join();
  manager.drain();

  EXPECT_EQ(counter_value(manager, "cmarkov_serve_events_enqueued_total"),
            4 * feed.size());
  EXPECT_EQ(counter_value(manager, "cmarkov_serve_events_processed_total"),
            4 * feed.size());
  EXPECT_EQ(counter_value(manager, "cmarkov_serve_events_dropped_total"), 0u);
  EXPECT_EQ(counter_value(manager, "cmarkov_serve_events_rejected_total"), 0u);
}

// Evict and close retire a session through one path while its producer
// keeps submitting: an eviction discards the queued events (counted as
// evicted_dropped) and the next submit restores the session; close scores
// what is queued. No accepted event goes unaccounted, the live stats never
// run backwards, and nothing is accepted after close. TSan-covered via
// tools/run_tsan_smoke.sh.
//
// The producer never stops on its own: close_session() settles only the
// backlog at the call, so the producer ends when its submit finds the
// session closed.
TEST(SessionManagerTest, CloseAndEvictRacingAProducerLoseNoAcceptedEvent) {
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 16;
  config.policy = BackpressurePolicy::kBlock;
  SessionManager manager(fixture().registry, config);
  manager.open_session("racer", "gzip");
  const auto feed = fixture().events_for(fixture().gzip, 500, 2);

  std::atomic<std::uint64_t> accepted{0};
  std::thread producer([&] {
    for (std::size_t i = 0;; ++i) {
      const SubmitResult result = manager.submit("racer", feed[i % feed.size()]);
      if (result == SubmitResult::kUnknownSession) break;  // closed
      EXPECT_EQ(result, SubmitResult::kAccepted);
      accepted.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::atomic<bool> closing{false};
  std::thread reader([&] {
    std::uint64_t processed = 0;
    std::size_t events_seen = 0;
    while (!closing.load(std::memory_order_acquire)) {
      SessionStats stats;
      try {
        stats = manager.session_stats("racer");
      } catch (const std::invalid_argument&) {
        EXPECT_TRUE(closing.load(std::memory_order_acquire))
            << "an open session vanished from session_stats";
        return;
      }
      EXPECT_GE(stats.processed, processed);
      EXPECT_GE(stats.monitor.events_seen, events_seen);
      processed = stats.processed;
      events_seen = stats.monitor.events_seen;
    }
  });

  std::size_t evictions = 0;
  while (evictions < 20) {
    if (manager.evict_session("racer")) ++evictions;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  EXPECT_GT(evictions, 0u);

  closing.store(true, std::memory_order_release);
  const SessionStats stats = manager.close_session("racer");
  producer.join();
  reader.join();

  EXPECT_EQ(stats.processed + stats.evicted_dropped, stats.enqueued);
  EXPECT_EQ(stats.enqueued, accepted.load());
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.monitor.events_seen, stats.processed);
  EXPECT_EQ(manager.submit("racer", feed.front()),
            SubmitResult::kUnknownSession);
  EXPECT_FALSE(manager.has_session("racer"));
}

// Neighbours cannot stall a session's verbs. On one shard, producers that
// never stop keep a deep queue full: every event is a syscall the model
// scores, every window is audited, and the ladder is off, so the worker is
// the slower side (one producer, or a 1024-event queue, let the queue run
// empty now and then on a loaded host). Yet STATS, TRACE, METRICS and BYE
// of another session each wait only for the backlog at the call. Each verb
// runs under a deadline; one that misses it stops the producers, so its
// wait ends and the test fails instead of hanging.
TEST(SessionManagerTest, SaturatingNeighbourCannotStallSessionVerbs) {
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 16384;
  config.policy = BackpressurePolicy::kBlock;
  config.monitor.decisions.enabled = true;
  config.monitor.decisions.sample_every = 1;
  config.overload.enabled = false;
  SessionManager manager(fixture().registry, config);
  std::vector<trace::CallEvent> feed;
  for (auto& event : fixture().events_for(fixture().gzip, 502, 2)) {
    if (event.kind == ir::CallKind::kSyscall) feed.push_back(std::move(event));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (const std::string id : {"flood-a", "flood-b", "flood-c"}) {
    manager.open_session(id, "gzip");
    producers.emplace_back([&, id] {
      for (std::size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        EXPECT_EQ(manager.submit(id, feed[i % feed.size()]),
                  SubmitResult::kAccepted);
      }
    });
  }

  ProtocolSession session(manager);
  EXPECT_EQ(session.handle_line("HELLO gzip quiet"),
            "OK session=quiet model=gzip");
  const std::size_t fed = 40;
  for (std::size_t i = 0; i < fed; ++i) {
    EXPECT_EQ(session.handle_line("EV " + feed[i].caller + " " + feed[i].name),
              "OK");
  }
  const auto timed = [&](const std::string& line) {
    auto reply = std::async(std::launch::async, [&session, line] {
      return session.handle_line(line);
    });
    const bool ready = reply.wait_for(std::chrono::seconds(30)) ==
                       std::future_status::ready;
    EXPECT_TRUE(ready) << line << " waited on the neighbours' producers";
    if (!ready) stop.store(true, std::memory_order_release);
    return reply.get();
  };
  const std::string processed = " processed=" + std::to_string(fed);
  const std::string stats = timed("STATS");
  EXPECT_NE(stats.find(processed + " "), std::string::npos) << stats;
  EXPECT_TRUE(timed("TRACE 1").starts_with("TRACE v=1 session=quiet n=1\n"));
  EXPECT_TRUE(timed("METRICS").starts_with("METRICS v=1 "));
  const std::string bye = timed("BYE");
  stop.store(true, std::memory_order_release);
  for (std::thread& producer : producers) producer.join();
  EXPECT_TRUE(bye.starts_with("OK session=quiet ")) << bye;
  EXPECT_TRUE(bye.ends_with(processed)) << bye;
}

// A session is always resident or frozen, never neither: lookups that race
// an eviction's unlink-then-store or a restore's take-then-insert must
// still find it.
TEST(SessionManagerTest, LookupsNeverMissASessionMovingBetweenMapAndStore) {
  ServiceConfig config;
  config.num_workers = 2;
  config.monitor.decisions.enabled = true;
  config.monitor.decisions.sample_every = 1;
  SessionManager manager(fixture().registry, config);
  manager.open_session("mover", "gzip");
  const auto feed = fixture().events_for(fixture().gzip, 501, 1);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> polls{0};
  std::size_t misses = 0;
  std::size_t throws = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      polls.fetch_add(1, std::memory_order_release);
      if (!manager.has_session("mover")) ++misses;
      try {
        manager.recent_decisions("mover", 4);
      } catch (const std::invalid_argument&) {
        ++throws;
      }
    }
  });

  // Start moving only once the poller runs, so the two always overlap
  // even when a loaded host schedules the poller late.
  while (polls.load(std::memory_order_acquire) == 0) std::this_thread::yield();
  std::size_t moves = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    if (manager.evict_session("mover")) ++moves;
    // The submit restores the frozen session.
    EXPECT_EQ(manager.submit("mover", feed[i % feed.size()]),
              SubmitResult::kAccepted);
  }
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(moves, 2000u);
  EXPECT_GT(polls.load(), 0u);
  EXPECT_EQ(misses, 0u) << "has_session missed a live session";
  EXPECT_EQ(throws, 0u) << "recent_decisions threw for a live session";
  manager.close_session("mover");
}

TEST(SessionManagerTest, LifecycleErrorsAreLoud) {
  ServiceConfig config;
  config.manual_pump = true;
  SessionManager manager(fixture().registry, config);
  manager.open_session("dup", "gzip");
  EXPECT_THROW(manager.open_session("dup", "gzip"), std::invalid_argument);
  EXPECT_THROW(manager.open_session("x", "no-such-model"),
               std::invalid_argument);
  EXPECT_EQ(manager.submit("ghost", {}), SubmitResult::kUnknownSession);
  EXPECT_THROW(manager.session_stats("ghost"), std::invalid_argument);
  EXPECT_THROW(manager.close_session("ghost"), std::invalid_argument);

  EXPECT_TRUE(manager.has_session("dup"));
  const SessionStats stats = manager.close_session("dup");
  EXPECT_EQ(stats.id, "dup");
  EXPECT_FALSE(manager.has_session("dup"));

  EXPECT_NE(manager.next_session_id(), manager.next_session_id());
}

TEST(LatencyHistogramTest, QuantilesLandInTheRightBucket) {
  // The serve latency histogram is a plain obs::Histogram over
  // obs::latency_bucket_bounds(); this pins the quantile semantics the
  // registry's p50/p99 snapshot fields rely on.
  obs::Histogram histogram(obs::latency_bucket_bounds());
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.quantile(0.5), 0.0);
  for (int i = 0; i < 99; ++i) histogram.record(0.8);  // bucket <=1us
  histogram.record(900.0);                             // bucket <=1000us
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 1.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 1000.0);
  histogram.record(1e9);  // overflow bucket saturates at the last bound
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0),
                   obs::latency_bucket_bounds().back());
}

ServiceConfig protocol_config() {
  ServiceConfig config;
  config.num_workers = 1;
  config.manual_pump = true;
  return config;
}

TEST(ProtocolTest, HappyPathHelloEvStatsBye) {
  SessionManager manager(fixture().registry, protocol_config());
  ProtocolSession session(manager);
  EXPECT_FALSE(session.closed());
  EXPECT_EQ(session.handle_line("HELLO gzip watchman"),
            "OK session=watchman model=gzip");
  EXPECT_EQ(session.session_id(), "watchman");

  const auto feed = fixture().events_for(fixture().gzip, 55, 2);
  std::size_t fed = 0;
  for (const auto& event : feed) {
    if (event.kind != ir::CallKind::kSyscall) continue;
    EXPECT_EQ(session.handle_line("EV " + event.caller + " " + event.name),
              "OK");
    if (++fed >= 40) break;
  }
  ASSERT_GT(fed, 0u);
  const std::string stats = session.handle_line("STATS");
  EXPECT_TRUE(stats.starts_with("STATS v=1 session=watchman model=gzip"));
  const std::string fed_str = std::to_string(fed);
  EXPECT_NE(stats.find("enqueued=" + fed_str), std::string::npos) << stats;
  EXPECT_NE(stats.find("processed=" + fed_str), std::string::npos) << stats;
  EXPECT_NE(stats.find("alarms="), std::string::npos);

  const std::string metrics = session.handle_line("METRICS");
  EXPECT_TRUE(metrics.starts_with("METRICS v=1 "));
  EXPECT_NE(metrics.find("cmarkov_serve_sessions_open=1"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("cmarkov_serve_events_processed_total=" + fed_str),
            std::string::npos)
      << metrics;

  EXPECT_TRUE(session.handle_line("BYE").starts_with("OK session=watchman"));
  EXPECT_TRUE(session.closed());
  EXPECT_FALSE(manager.has_session("watchman"));
}

TEST(ProtocolTest, BlankAndCommentLinesAreSilent) {
  SessionManager manager(fixture().registry, protocol_config());
  ProtocolSession session(manager);
  EXPECT_EQ(session.handle_line(""), "");
  EXPECT_EQ(session.handle_line("   "), "");
  EXPECT_EQ(session.handle_line("# a comment"), "");
}

TEST(ProtocolTest, ErrorsAreLoudAndNeverThrow) {
  SessionManager manager(fixture().registry, protocol_config());
  ProtocolSession session(manager);
  EXPECT_TRUE(session.handle_line("EV main read").starts_with("ERR"));
  EXPECT_TRUE(session.handle_line("STATS").starts_with("ERR"));
  EXPECT_TRUE(session.handle_line("BYE").starts_with("ERR"));
  const std::string unknown_model = session.handle_line("HELLO no-such-model");
  EXPECT_TRUE(unknown_model.starts_with("ERR"));
  EXPECT_NE(unknown_model.find("no-such-model"), std::string::npos);

  EXPECT_TRUE(session.handle_line("HELLO gzip").starts_with("OK"));
  EXPECT_TRUE(session.handle_line("HELLO gzip").starts_with("ERR"));
  EXPECT_TRUE(session.handle_line("EV onlysite").starts_with("ERR"));
  EXPECT_TRUE(session.handle_line("EV a b weird-kind").starts_with("ERR"));
  EXPECT_TRUE(session.handle_line("NOSUCH").starts_with("ERR"));

  EXPECT_TRUE(session.handle_line("BYE").starts_with("OK"));
  EXPECT_TRUE(session.handle_line("EV main read").starts_with("ERR"));
}

TEST(ProtocolTest, RejectedEventsSurfaceInResponses) {
  ServiceConfig config = protocol_config();
  config.queue_capacity = 2;
  config.policy = BackpressurePolicy::kReject;
  SessionManager manager(fixture().registry, config);
  ProtocolSession session(manager);
  session.handle_line("HELLO gzip");
  EXPECT_EQ(session.handle_line("EV main read"), "OK");
  EXPECT_EQ(session.handle_line("EV main read"), "OK");
  EXPECT_EQ(session.handle_line("EV main read"), "ERR rejected queue-full");
  const std::string stats = session.handle_line("STATS");
  EXPECT_NE(stats.find("rejected=1"), std::string::npos);
}

TEST(ProtocolTest, DisconnectWithoutByeClosesSession) {
  SessionManager manager(fixture().registry, protocol_config());
  {
    ProtocolSession session(manager);
    session.handle_line("HELLO gzip dangling");
    EXPECT_TRUE(manager.has_session("dangling"));
  }
  EXPECT_FALSE(manager.has_session("dangling"));
}

TEST(ProtocolTest, TraceUsageErrorsAreLoud) {
  SessionManager manager(fixture().registry, protocol_config());
  ProtocolSession session(manager);
  EXPECT_TRUE(session.handle_line("TRACE").starts_with("ERR no session"));
  session.handle_line("HELLO gzip");
  EXPECT_TRUE(session.handle_line("TRACE abc").starts_with("ERR usage"));
  EXPECT_TRUE(session.handle_line("TRACE 0").starts_with("ERR usage"));
  EXPECT_TRUE(session.handle_line("TRACE 4 5").starts_with("ERR usage"));
  EXPECT_EQ(session.handle_line("TRACE 99999999999999999999999"),
            "ERR usage: TRACE [n]");
  EXPECT_TRUE(session.handle_line("EV main read tid=").starts_with("ERR usage"));
  // No decision tracing configured: the verb answers, with zero records.
  EXPECT_EQ(session.handle_line("TRACE 4"), "TRACE v=1 session=s1 n=0");
}

TEST(ProtocolTest, ExplicitTidIsEchoedAndSessionTidIsNot) {
  ServiceConfig config = protocol_config();
  config.tracing.enabled = true;
  config.tracing.sample_every = 0;  // only explicit trace ids trace
  SessionManager manager(fixture().registry, config);
  ProtocolSession session(manager);
  EXPECT_EQ(session.handle_line("HELLO gzip audit tid=t-1"),
            "OK session=audit model=gzip tid=t-1");
  // Session-default tid: traced, but replies stay terse.
  EXPECT_EQ(session.handle_line("EV main read"), "OK");
  // Per-event override: echoed back.
  EXPECT_EQ(session.handle_line("EV main read tid=ev-7"), "OK tid=ev-7");
  manager.drain();
  // Both events were force-traced: queue + score spans each, plus reply
  // spans recorded on the transport side.
  const auto spans = manager.tracer().snapshot();
  std::size_t queue = 0, score = 0, reply = 0;
  for (const auto& span : spans) {
    if (span.name == "queue") ++queue;
    if (span.name == "score") ++score;
    if (span.name == "reply") ++reply;
    EXPECT_EQ(span.session, "audit");
  }
  EXPECT_EQ(queue, 2u);
  EXPECT_EQ(score, 2u);
  EXPECT_EQ(reply, 2u);
}

// The PR-5 acceptance path: a flagged window produces a DecisionRecord
// whose per-symbol contributions sum (within 1e-9) to the window
// log-likelihood, retrievable over the wire via TRACE.
TEST(DecisionAuditTest, FlaggedWindowExplainsItsLogLikelihood) {
  // A detector that flags everything: same gzip model, +inf threshold.
  core::Detector strict = *fixture().gzip_model;
  strict.set_threshold(std::numeric_limits<double>::infinity());
  ModelRegistry registry;
  registry.add("strict", std::move(strict));

  ServiceConfig config = protocol_config();
  config.tracing.enabled = true;
  config.tracing.sample_every = 0;
  config.monitor.decisions.enabled = true;
  config.monitor.decisions.sample_every = 0;  // only flagged/alarm windows
  SessionManager manager(registry, config);
  ProtocolSession session(manager);
  EXPECT_EQ(session.handle_line("HELLO strict audit tid=t-1"),
            "OK session=audit model=strict tid=t-1");

  // Benign events from the training seed: symbols the model knows, so the
  // flagged windows carry FINITE log-likelihoods to decompose.
  const std::size_t window =
      fixture().gzip_model->config().segments.length;
  std::size_t fed = 0;
  for (const auto& event : fixture().events_for(fixture().gzip, 91, 2)) {
    if (event.kind != ir::CallKind::kSyscall) continue;
    EXPECT_EQ(session.handle_line("EV " + event.caller + " " + event.name),
              "OK");
    if (++fed >= window + 5) break;
  }
  ASSERT_EQ(fed, window + 5);  // 6 complete windows, all flagged
  manager.drain();  // manual_pump: scoring happens on drain

  const std::vector<obs::DecisionRecord> records =
      manager.recent_decisions("audit", 4);
  ASSERT_EQ(records.size(), 4u);
  for (const obs::DecisionRecord& record : records) {
    EXPECT_EQ(record.session, "audit");
    EXPECT_EQ(record.trace_id, "t-1");
    EXPECT_TRUE(record.flagged);
    EXPECT_FALSE(record.unknown_symbol);
    EXPECT_EQ(record.symbols.size(), window);
    ASSERT_TRUE(std::isfinite(record.log_likelihood));
    EXPECT_NEAR(record.contribution_sum(), record.log_likelihood, 1e-9);
  }

  // The same records, as the wire-format TRACE reply.
  const std::string reply = session.handle_line("TRACE 4");
  EXPECT_TRUE(reply.starts_with("TRACE v=1 session=audit n=4")) << reply;
  std::istringstream lines(reply);
  std::string line;
  std::getline(lines, line);  // header
  for (const obs::DecisionRecord& record : records) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, obs::decision_record_json(record));
    EXPECT_NE(line.find("\"schema\":\"cmarkov.decision.v1\""),
              std::string::npos);
  }
  EXPECT_FALSE(std::getline(lines, line));

  // The service-wide JSONL log captured every flagged window.
  EXPECT_EQ(manager.decision_log().appended(), 6u);
  EXPECT_EQ(manager.decision_log().dropped(), 0u);
}

/// One decision_record_json line per record, newline-terminated.
std::string render(const std::vector<obs::DecisionRecord>& records) {
  std::string out;
  for (const obs::DecisionRecord& record : records) {
    out += obs::decision_record_json(record) + "\n";
  }
  return out;
}

// Decision records view their labels in the scoring detector's alphabet.
// A reload drops the session's binding to that detector, and here the
// registry held the only other reference: the records (TRACE ring and
// service log) must keep it alive and render exactly as before.
TEST(DecisionAuditTest, DecisionLabelsOutliveAReload) {
  ModelRegistry registry;
  registry.add("gzip", *fixture().gzip_model);  // a private copy

  ServiceConfig config = protocol_config();
  config.tracing.enabled = true;
  config.monitor.decisions.enabled = true;
  config.monitor.decisions.sample_every = 1;
  SessionManager manager(registry, config);
  manager.open_session("labels", "gzip");
  for (const auto& event : fixture().events_for(fixture().gzip, 11, 1)) {
    ASSERT_EQ(manager.submit("labels", event), SubmitResult::kAccepted);
  }
  manager.drain();

  const std::string ring = render(manager.recent_decisions("labels", 1000));
  const std::string log = manager.decision_log().to_jsonl();
  ASSERT_FALSE(ring.empty());
  ASSERT_FALSE(log.empty());
  EXPECT_NE(ring.find('@'), std::string::npos);  // call@caller labels

  EXPECT_EQ(manager.reload_model("gzip", fixture().sed_model)
                .sessions_rebound,
            1u);
  EXPECT_EQ(render(manager.recent_decisions("labels", 1000)), ring);
  EXPECT_EQ(manager.decision_log().to_jsonl(), log);
}

// TRACE reads derive each record from its entry while the session's
// worker keeps scoring and RELOADs rebind it: every read must find the
// bits it recorded (DecisionEntry::record throws otherwise) and render
// records whose contributions sum to their log-likelihood, including
// records of a version the registry no longer holds.
TEST(DecisionAuditTest, TraceReadsRacingScoringAndReloadsDeriveEveryRecord) {
  ModelRegistry registry;
  registry.add("m", *fixture().gzip_model);  // a private copy
  ServiceConfig config;
  config.num_workers = 2;
  config.policy = BackpressurePolicy::kBlock;
  config.monitor.decisions.enabled = true;
  config.monitor.decisions.sample_every = 1;
  SessionManager manager(registry, config);
  manager.open_session("watched", "m");
  const std::size_t window =
      fixture().gzip_model->config().segments.length;

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    const auto feed = fixture().events_for(fixture().gzip, 601, 1);
    for (std::size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      manager.submit("watched", feed[i % feed.size()]);
    }
  });
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> records{0};
  std::atomic<std::size_t> bad{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::DecisionRecord& record :
           manager.recent_decisions("watched", 8)) {
        const bool sums = std::isfinite(record.log_likelihood)
                              ? record.contribution_sum() ==
                                    record.log_likelihood
                              : record.contribution_sum() ==
                                    -std::numeric_limits<double>::infinity();
        if (record.symbols.size() != window || !sums ||
            obs::decision_record_json(record).empty()) {
          ++bad;
        }
        ++records;
      }
      ++reads;
    }
  });

  while (records.load() == 0) std::this_thread::yield();
  for (int r = 0; r < 4; ++r) {
    const auto& model = r % 2 == 0 ? fixture().sed_model
                                   : fixture().gzip_model;
    EXPECT_EQ(manager.reload_model("m", model).sessions_rebound, 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::size_t target = reads.load() + 20;
  while (reads.load() < target) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  producer.join();
  reader.join();
  manager.drain();

  EXPECT_GT(records.load(), 0u);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(manager.recent_decisions("watched", 32).size(), 32u);
  manager.close_session("watched");
}

TEST(MetricsGoldenTest, ScriptedSessionExposition) {
  // Deterministic script under manual_pump: 20 unknown-symbol events into
  // a capacity-8 drop-oldest queue (12 evicted), STATS drains (8 scored),
  // 12 more events (8 kept, 4 evicted), METRICS drains again — 16 scored
  // events = 2 windows of 15, both flagged and alarming.
  ServiceConfig config = protocol_config();
  config.queue_capacity = 8;
  config.policy = BackpressurePolicy::kDropOldest;
  SessionManager manager(fixture().registry, config);
  ProtocolSession session(manager);
  session.handle_line("HELLO gzip scripted");
  for (int i = 0; i < 20; ++i) session.handle_line("EV bogus read");
  session.handle_line("STATS");
  for (int i = 0; i < 12; ++i) session.handle_line("EV bogus read");
  manager.drain();

  // Exercise the lifecycle + reload instruments with pinned counts: a
  // second session with 5 queued events is evicted (5 evicted-drops, NOT
  // backpressure drops), transparently restored by the next submit, and
  // one hot reload rebinds both live gzip sessions.
  manager.open_session("aux", "gzip");
  trace::CallEvent aux_event;
  aux_event.caller = "bogus";
  aux_event.name = "read";
  for (int i = 0; i < 5; ++i) manager.submit("aux", aux_event);
  ASSERT_TRUE(manager.evict_session("aux"));
  ASSERT_EQ(manager.submit("aux", aux_event), SubmitResult::kAccepted);
  manager.reload_model(
      "gzip", std::make_shared<const core::Detector>(*fixture().gzip_model));

  std::string metrics = session.handle_line("METRICS");
  ASSERT_TRUE(metrics.starts_with("METRICS v=1 ")) << metrics;

  // Wall-clock-dependent values can't be golden-pinned: scrub them. The
  // state-bytes and kernel-image gauges depend on sizeof(OnlineMonitor) /
  // arena layout and allocator capacities, so they are scrubbed too (their
  // presence is what's pinned).
  for (const char* key : {"cmarkov_serve_uptime_seconds=",
                          "cmarkov_serve_latency_micros_sum=",
                          "cmarkov_serve_latency_micros_p50=",
                          "cmarkov_serve_latency_micros_p99=",
                          "cmarkov_serve_model_reload_micros_sum=",
                          "cmarkov_serve_model_reload_micros_p50=",
                          "cmarkov_serve_model_reload_micros_p99=",
                          "cmarkov_serve_kernel_build_micros_sum=",
                          "cmarkov_serve_kernel_build_micros_p50=",
                          "cmarkov_serve_kernel_build_micros_p99=",
                          "cmarkov_serve_kernel_image_bytes=",
                          "cmarkov_serve_session_state_bytes=",
                          "cmarkov_serve_shard_state_bytes_w0="}) {
    const std::size_t pos = metrics.find(key);
    ASSERT_NE(pos, std::string::npos) << key;
    const std::size_t start = pos + std::strlen(key);
    std::size_t end = metrics.find(' ', start);
    if (end == std::string::npos) end = metrics.size();
    metrics.replace(start, end - start, "X");
  }
  compare_golden("serve_metrics.kv", metrics + "\n");
}

// Drift-armed serving end-to-end (ROADMAP item 3): a detector trained
// with keep_trainer_state serves traffic; a workload shift breaches the
// windowed KS statistic over per-window log-likelihoods; poll() absorbs
// the buffered clean windows via Trainer::partial_fit and hot-publishes a
// new model version through the PR 6 reload path with zero accepted-event
// loss.
TEST(DriftRefreshTest, WorkloadShiftPublishesRefreshedModel) {
  core::DetectorConfig detector_config;
  detector_config.pipeline.filter = analysis::CallFilter::kSyscalls;
  detector_config.training.max_iterations = 4;
  detector_config.keep_trainer_state = true;
  core::Detector detector =
      core::Detector::build(fixture().gzip.module(), detector_config);
  detector.train(workload::collect_traces(fixture().gzip, 20, 91).traces);
  ASSERT_NE(detector.trainer_state(), nullptr);
  hmm::Trainer trainer(*detector.trainer_state());

  ModelRegistry registry;
  registry.add("drift", std::move(detector));
  const std::uint64_t v0 = registry.require_versioned("drift").version;

  SessionManager manager(registry, protocol_config());

  // Windows slide with stride 1, so consecutive windows are highly
  // correlated: epochs must span enough events to wash out run-phase
  // locality or benign traffic breaches spuriously.
  DriftOptions drift;
  drift.baseline_windows = 120;
  drift.recent_windows = 60;
  drift.buckets = 8;
  drift.ks_threshold = 0.6;
  drift.consecutive_epochs = 3;
  drift.min_absorb_segments = 16;
  DriftRefresher refresher(manager, registry, "drift", std::move(trainer),
                           drift);
  manager.set_drift_monitor(&refresher.monitor(), "drift");
  manager.open_session("watched", "drift");
  const std::size_t window =
      registry.require("drift")->config().segments.length;

  // Benign traffic freezes the baseline and stocks the absorb ring with
  // clean windows (the future partial_fit batch).
  for (std::uint64_t seed = 700; !refresher.monitor().baseline_ready();
       ++seed) {
    ASSERT_LT(seed, 750u) << "baseline never froze";
    for (const auto& event : fixture().events_for(fixture().gzip, seed)) {
      ASSERT_EQ(manager.submit("watched", event), SubmitResult::kAccepted);
    }
    manager.drain();
    EXPECT_FALSE(refresher.poll());  // no drift confirmed yet
  }
  EXPECT_GE(refresher.monitor().absorb_depth(), drift.min_absorb_segments);

  // Workload shift: unknown-context events score at the penalty floor, so
  // the recent histogram's mass piles into the lowest bucket.
  trace::CallEvent shifted;
  shifted.caller = "bogus";
  shifted.name = "read";
  const std::size_t shift_events =
      window * drift.recent_windows * (drift.consecutive_epochs + 1);
  for (std::size_t i = 0; i < shift_events; ++i) {
    ASSERT_EQ(manager.submit("watched", shifted), SubmitResult::kAccepted);
  }
  manager.drain();
  EXPECT_GT(refresher.monitor().last_ks(), drift.ks_threshold);
  ASSERT_TRUE(refresher.monitor().refresh_due());

  ASSERT_TRUE(refresher.poll());
  EXPECT_EQ(refresher.refreshes(), 1u);
  const VersionedModel refreshed = registry.require_versioned("drift");
  EXPECT_GT(refreshed.version, v0);
  EXPECT_NE(refreshed.kernel, nullptr);
  EXPECT_TRUE(registry.require("drift")->trained());
  // The absorbed batch is on the trainer's persistent ledger.
  EXPECT_GE(refresher.trainer().state().batches.size(), 2u);
  // Old scores are meaningless under the new model: re-baselined.
  EXPECT_FALSE(refresher.monitor().baseline_ready());
  EXPECT_FALSE(refresher.poll());

  // Zero accepted-event loss across the refresh (the PR 6 guarantee).
  EXPECT_EQ(counter_value(manager, "cmarkov_serve_events_processed_total"),
            counter_value(manager, "cmarkov_serve_events_enqueued_total"));
  EXPECT_EQ(counter_value(manager, "cmarkov_serve_events_dropped_total"), 0u);
  const SessionStats stats = manager.session_stats("watched");
  EXPECT_EQ(stats.processed, stats.enqueued);
  EXPECT_EQ(stats.dropped, 0u);

  // Detach before the refresher (declared later) is destroyed.
  manager.set_drift_monitor(nullptr, {});
}

TEST(ServiceTest, ServeStreamEndToEnd) {
  ModelRegistry registry;
  registry.add_shared("gzip", fixture().gzip_model);
  SessionManager manager(registry, protocol_config());

  std::istringstream in(
      "# scripted session\n"
      "HELLO gzip scripted\n"
      "EV main read\n"
      "EV main close sys\n"
      "STATS\n"
      "BYE\n"
      "EV main read\n");  // after BYE: stream ends first, never answered
  std::ostringstream out;
  serve_stream(manager, in, out);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK session=scripted model=gzip");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(line.starts_with("STATS v=1 session=scripted"));
  EXPECT_NE(line.find("processed=2"), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(line.starts_with("OK session=scripted"));
  EXPECT_FALSE(std::getline(lines, line));  // nothing after BYE
  EXPECT_EQ(manager.metrics_registry().snapshot().gauges.at(
                "cmarkov_serve_sessions_open"),
            0.0);
}

}  // namespace
}  // namespace cmarkov::serve
