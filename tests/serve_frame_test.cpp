// Tests for the frame hand-off of cmarkovd's serving path: an EV frame
// crosses the shard queue as one item holding its own payload bytes
// (serve::EventBatch). Covered here, all under manual_pump so every step is
// deterministic: a frame's allocations do not grow with its events; a
// RELOAD that lands while frames are queued rebinds at a frame boundary,
// bit-identically to a standalone monitor rebound there; and the three
// backpressure policies count capacity in events — block admits a frame
// larger than the queue, drop-oldest trims across frame boundaries with
// exact per-session counts, reject admits exactly the prefix that fits.
//
// This binary replaces the global operator new (allocation_probe.hpp).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/event_batch.hpp"
#include "src/serve/net/binary_session.hpp"
#include "src/serve/net/frame.hpp"
#include "src/serve/session_manager.hpp"
#include "src/workload/testcase_generator.hpp"
#include "tests/allocation_probe.hpp"

namespace cmarkov::serve {
namespace {

using test_support::AllocationProbe;

core::Detector train_detector(const workload::ProgramSuite& suite,
                              std::uint64_t seed) {
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  config.training.max_iterations = 4;
  core::Detector detector = core::Detector::build(suite.module(), config);
  detector.train(workload::collect_traces(suite, 20, seed).traces);
  return detector;
}

/// A gzip model, a sed model (a different alphabet) and gzip event feeds,
/// built once per process.
struct Fixture {
  workload::ProgramSuite gzip = workload::make_gzip_suite();
  workload::ProgramSuite sed = workload::make_sed_suite();
  std::shared_ptr<const core::Detector> gzip_model =
      std::make_shared<const core::Detector>(train_detector(gzip, 91));
  std::shared_ptr<const core::Detector> sed_model =
      std::make_shared<const core::Detector>(train_detector(sed, 17));

  std::vector<trace::CallEvent> events(std::uint64_t seed,
                                       std::size_t runs) const {
    std::vector<trace::CallEvent> out;
    for (const auto& trace :
         workload::collect_traces(gzip, runs, seed).traces) {
      out.insert(out.end(), trace.events.begin(), trace.events.end());
    }
    return out;
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

ServiceConfig pump_config(std::size_t capacity, BackpressurePolicy policy) {
  ServiceConfig config;
  config.num_workers = 1;
  config.manual_pump = true;
  config.queue_capacity = capacity;
  config.policy = policy;
  return config;
}

/// `count` events of `events` from `from`, wrapping around, as one frame.
EventBatch frame_of(const std::vector<trace::CallEvent>& events,
                    std::size_t from, std::size_t count) {
  EventBatch batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.append(events[(from + i) % events.size()]);
  }
  return batch;
}

core::MonitorStats standalone_stats(
    const std::vector<trace::CallEvent>& events) {
  core::OnlineMonitor monitor(*fixture().gzip_model);
  for (const auto& event : events) monitor.on_event(event);
  return monitor.stats();
}

void expect_same_stats(const core::MonitorStats& actual,
                       const core::MonitorStats& expected) {
  EXPECT_EQ(actual.events_seen, expected.events_seen);
  EXPECT_EQ(actual.events_observed, expected.events_observed);
  EXPECT_EQ(actual.windows_scored, expected.windows_scored);
  EXPECT_EQ(actual.windows_flagged, expected.windows_flagged);
  EXPECT_EQ(actual.alarms, expected.alarms);
}

TEST(EventBatchTest, AppendedEventsDecodeAndWalkBack) {
  std::vector<trace::CallEvent> events(3);
  events[0].caller = "main";
  events[0].name = "read";
  events[1].kind = ir::CallKind::kLibcall;
  events[1].caller = "compress_block";
  events[1].name = "malloc";
  events[2].name = "close";  // no site

  EventBatch batch;
  EXPECT_TRUE(batch.empty());
  for (const auto& event : events) batch.append(event);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.bytes(), net::encode_event_batch_payload(events));

  const EventBatch parsed = EventBatch::parse(batch.bytes());
  ASSERT_EQ(parsed.size(), 3u);
  EventCursor cursor(parsed);
  for (const auto& event : events) {
    const EventView view = cursor.next();
    EXPECT_EQ(view.kind, event.kind);
    EXPECT_EQ(view.site, event.caller);
    EXPECT_EQ(view.callee, event.name);
  }
  EXPECT_EQ(cursor.offset(parsed), parsed.bytes().size());

  // parse refuses what the decoder refuses, with the same message.
  std::string bad = batch.bytes();
  bad[EventBatch::kHeaderSize] = 9;  // first event's kind byte
  try {
    (void)EventBatch::parse(bad);
    ADD_FAILURE() << "a bad kind byte parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "frame: unknown event kind 9");
  }
  EXPECT_THROW((void)net::decode_event_batch_payload(bad), std::runtime_error);
  EXPECT_THROW((void)EventBatch::parse(batch.bytes() + "x"),
               std::runtime_error);
}

// With tracing off, a warmed-up session's frame costs the same operator new
// calls whether it carries 16 events or 256, and only a few: the events
// travel as the frame's payload bytes from handle_frame to the monitor.
TEST(FrameHandOffTest, AllocationsDoNotScaleWithEvents) {
  auto registry = make_registry();
  ServiceConfig config = pump_config(1u << 16, BackpressurePolicy::kBlock);
  SessionManager manager(*registry, config);
  net::BinarySession session(manager);
  const auto hello = session.handle_frame(net::Frame{
      net::FrameOp::kHello, 0, net::encode_hello_payload("gzip", "a", "")});
  ASSERT_FALSE(hello.close);

  const std::vector<trace::CallEvent> events = fixture().events(5, 4);
  std::size_t next = 0;
  // A multiple of every queue-node item count, so the queue's node
  // allocations fall the same way for both sizes.
  constexpr std::size_t kFrames = 60;
  const auto make_frames = [&](std::size_t size) {
    std::vector<net::Frame> frames;
    for (std::size_t f = 0; f < kFrames; ++f) {
      frames.push_back({net::FrameOp::kEventBatch, 0,
                        frame_of(events, next, size).bytes()});
      next += size;
    }
    return frames;
  };
  const auto run = [&](std::vector<net::Frame> frames) {
    AllocationProbe probe;
    for (net::Frame& frame : frames) {
      const auto out = session.handle_frame(std::move(frame));
      if (out.close || out.bytes.empty()) ADD_FAILURE() << "frame refused";
      manager.drain();
    }
    return probe.calls();
  };

  (void)run(make_frames(256));  // warm-up: scratch, memo, queue nodes
  (void)run(make_frames(16));
  const std::size_t small = run(make_frames(16));
  const std::size_t large = run(make_frames(256));
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 8 * kFrames) << "more than a few allocations per frame";
  EXPECT_EQ(manager.session_stats("a").processed,
            2 * kFrames * (256 + 16));
}

// A RELOAD to a detector with a different alphabet lands while frames are
// queued: the session rebinds at that frame boundary, and every verdict is
// bit-identical to a standalone monitor fed the same events and rebound at
// the same boundary.
TEST(FrameHandOffTest, ReloadBetweenQueuedFramesMatchesAStandaloneRebind) {
  auto registry = make_registry();
  ServiceConfig config = pump_config(1u << 16, BackpressurePolicy::kBlock);
  config.monitor.decisions.enabled = true;
  config.monitor.decisions.sample_every = 1;
  config.monitor.decisions.ring_capacity = 1u << 14;
  SessionManager manager(*registry, config);
  manager.open_session("r", "gzip");

  const std::vector<trace::CallEvent> events = fixture().events(7, 3);
  constexpr std::size_t kFrame = 40;
  const std::size_t frames = events.size() / kFrame;
  ASSERT_GE(frames, 6u);
  const std::size_t scored_before = 2;  // frames scored before the reload
  const std::size_t queued_at_reload = 3;

  for (std::size_t f = 0; f < frames; ++f) {
    if (f == scored_before) manager.drain();
    if (f == scored_before + queued_at_reload) {
      manager.reload_model("gzip", fixture().sed_model);
    }
    const SubmitTally tally =
        manager.submit_batch("r", frame_of(events, f * kFrame, kFrame));
    EXPECT_EQ(tally.accepted, kFrame);
  }
  manager.drain();

  // The frames queued at the reload scored after it: the standalone
  // monitor rebinds ahead of the first of them.
  core::OnlineMonitor expected(*fixture().gzip_model, nullptr, config.monitor);
  for (std::size_t f = 0; f < frames; ++f) {
    if (f == scored_before) expected.rebind(*fixture().sed_model);
    for (std::size_t i = 0; i < kFrame; ++i) {
      expected.on_event(events[f * kFrame + i]);
    }
  }

  const SessionStats stats = manager.session_stats("r");
  expect_same_stats(stats.monitor, expected.stats());
  const auto served = manager.recent_decisions("r", 1u << 14);
  const auto& reference = expected.recent_decisions();
  ASSERT_EQ(served.size(), reference.size());
  ASSERT_GT(served.size(), 0u);
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].window_index, reference[i].window_index) << i;
    EXPECT_EQ(std::memcmp(&served[i].log_likelihood,
                          &reference[i].log_likelihood, sizeof(double)),
              0)
        << i;
    EXPECT_EQ(served[i].flagged, reference[i].flagged) << i;
    EXPECT_EQ(served[i].unknown_symbol, reference[i].unknown_symbol) << i;
    EXPECT_EQ(served[i].alarm, reference[i].alarm) << i;
  }
}

// Under block, a frame larger than the whole queue waits for an empty
// queue instead of for room it can never get.
TEST(FrameHandOffTest, BlockAdmitsAFrameLargerThanTheQueue) {
  const std::vector<trace::CallEvent> events = fixture().events(3, 2);
  {
    auto registry = make_registry();
    SessionManager manager(*registry,
                           pump_config(8, BackpressurePolicy::kBlock));
    manager.open_session("big", "gzip");
    EXPECT_EQ(manager.submit_batch("big", frame_of(events, 0, 5)).accepted,
              5u);
    const SubmitTally tally =
        manager.submit_batch("big", frame_of(events, 5, 20));
    EXPECT_EQ(tally.accepted, 20u);
    EXPECT_EQ(tally.dropped + tally.rejected, 0u);
    manager.drain();
    const SessionStats stats = manager.session_stats("big");
    EXPECT_EQ(stats.processed, 25u);
    expect_same_stats(
        stats.monitor,
        standalone_stats({events.begin(), events.begin() + 25}));
  }
  {
    // The same with a worker thread: each oversized frame waits for the
    // queue to empty, and none of them deadlocks.
    auto registry = make_registry();
    ServiceConfig config = pump_config(8, BackpressurePolicy::kBlock);
    config.manual_pump = false;
    SessionManager manager(*registry, config);
    manager.open_session("big", "gzip");
    for (std::size_t f = 0; f < 10; ++f) {
      EXPECT_EQ(manager.submit_batch("big", frame_of(events, f * 20, 20))
                    .accepted,
                20u);
    }
    manager.drain();
    EXPECT_EQ(manager.session_stats("big").processed, 200u);
  }
}

// Drop-oldest evicts whole frames and the front of the next one, each
// event counted against the session it belonged to; a frame larger than
// the queue also loses its own front.
TEST(FrameHandOffTest, DropOldestTrimsAcrossAFrameBoundary) {
  auto registry = make_registry();
  SessionManager manager(*registry,
                         pump_config(10, BackpressurePolicy::kDropOldest));
  manager.open_session("victim", "gzip");
  manager.open_session("hog", "gzip");
  const std::vector<trace::CallEvent> events = fixture().events(4, 2);

  EXPECT_EQ(manager.submit_batch("victim", frame_of(events, 0, 3)).accepted,
            3u);
  EXPECT_EQ(manager.submit_batch("victim", frame_of(events, 3, 4)).accepted,
            4u);
  // 7 queued, room for 3: the 5 oldest go — all of the first frame and
  // the first two events of the second.
  const SubmitTally hog = manager.submit_batch("hog", frame_of(events, 0, 8));
  EXPECT_EQ(hog.accepted, 8u);
  EXPECT_EQ(hog.dropped, 5u);
  EXPECT_EQ(hog.rejected, 0u);
  EXPECT_EQ(manager.session_stats("victim").dropped, 5u);
  EXPECT_EQ(manager.session_stats("hog").dropped, 0u);

  manager.drain();
  const SessionStats victim = manager.session_stats("victim");
  EXPECT_EQ(victim.enqueued, 7u);
  EXPECT_EQ(victim.processed, 2u);
  EXPECT_EQ(manager.session_stats("hog").processed, 8u);

  // 13 events into an empty 10-event queue: the frame's own first 3 go.
  const SubmitTally big = manager.submit_batch("hog", frame_of(events, 8, 13));
  EXPECT_EQ(big.accepted, 13u);
  EXPECT_EQ(big.dropped, 3u);
  manager.drain();
  const SessionStats hog_stats = manager.session_stats("hog");
  EXPECT_EQ(hog_stats.dropped, 3u);
  EXPECT_EQ(hog_stats.enqueued, 21u);
  EXPECT_EQ(hog_stats.processed, 18u);
  // The hog scored its first frame, then the last 10 of the second.
  std::vector<trace::CallEvent> scored(events.begin(), events.begin() + 8);
  scored.insert(scored.end(), events.begin() + 11, events.begin() + 21);
  expect_same_stats(hog_stats.monitor, standalone_stats(scored));
  EXPECT_EQ(manager.metrics_registry().snapshot().counters.at(
                "cmarkov_serve_events_dropped_total"),
            8u);
}

// Reject queues exactly the prefix that fits and refuses the rest.
TEST(FrameHandOffTest, RejectAdmitsExactlyThePrefixThatFits) {
  auto registry = make_registry();
  SessionManager manager(*registry,
                         pump_config(40, BackpressurePolicy::kReject));
  manager.open_session("p", "gzip");
  const std::vector<trace::CallEvent> events = fixture().events(6, 2);
  ASSERT_GE(events.size(), 50u);

  EXPECT_EQ(manager.submit_batch("p", frame_of(events, 0, 30)).accepted, 30u);
  const SubmitTally tally = manager.submit_batch("p", frame_of(events, 30, 20));
  EXPECT_EQ(tally.accepted, 10u);
  EXPECT_EQ(tally.rejected, 10u);
  EXPECT_EQ(tally.dropped, 0u);
  // A full queue rejects a whole frame.
  EXPECT_EQ(manager.submit_batch("p", frame_of(events, 50, 5)).rejected, 5u);

  manager.drain();
  const SessionStats stats = manager.session_stats("p");
  EXPECT_EQ(stats.enqueued, 40u);
  EXPECT_EQ(stats.rejected, 15u);
  EXPECT_EQ(stats.processed, 40u);
  expect_same_stats(stats.monitor,
                    standalone_stats({events.begin(), events.begin() + 40}));
}

}  // namespace
}  // namespace cmarkov::serve
