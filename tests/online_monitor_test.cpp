// Tests for the streaming OnlineMonitor.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <thread>
#include <utility>

#include "src/attack/exploit_driver.hpp"
#include "src/core/online_monitor.hpp"
#include "src/hmm/random_init.hpp"
#include "src/util/rng.hpp"
#include "src/workload/testcase_generator.hpp"
#include "tests/reference_record.hpp"

namespace cmarkov::core {
namespace {

struct Fixture {
  workload::ProgramSuite suite = workload::make_gzip_suite();
  Detector detector = [this] {
    DetectorConfig config;
    config.pipeline.filter = analysis::CallFilter::kSyscalls;
    config.training.max_iterations = 8;
    config.target_fp = 0.001;
    Detector d = Detector::build(suite.module(), config);
    d.train(workload::collect_traces(suite, 40, 91).traces);
    return d;
  }();
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(OnlineMonitorTest, RequiresTrainedDetector) {
  DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  const Detector untrained =
      Detector::build(fixture().suite.module(), config);
  EXPECT_THROW((OnlineMonitor{untrained}), std::invalid_argument);
  MonitorOptions bad;
  bad.windows_to_alarm = 0;
  EXPECT_THROW(OnlineMonitor(fixture().detector, nullptr, bad),
               std::invalid_argument);
}

TEST(OnlineMonitorTest, WindowFillsBeforeScoring) {
  OnlineMonitor monitor(fixture().detector);
  const auto collection = workload::collect_traces(fixture().suite, 1, 7);
  const auto& events = collection.traces.front().events;
  const std::size_t window =
      fixture().detector.config().segments.length;
  std::size_t syscalls_fed = 0;
  for (const auto& event : events) {
    const auto update = monitor.on_event(event);
    if (analysis::filter_matches(analysis::CallFilter::kSyscalls,
                                 event.kind)) {
      ++syscalls_fed;
      // On-stream events complete the window once `window` of them arrived.
      EXPECT_EQ(update.window_complete, syscalls_fed >= window);
    } else {
      // Off-stream events never produce a scored window.
      EXPECT_FALSE(update.window_complete);
    }
    if (syscalls_fed >= window + 3) break;
  }
}

TEST(OnlineMonitorTest, BenignStreamRaisesFewAlarms) {
  OnlineMonitor monitor(fixture().detector);
  const auto collection = workload::collect_traces(fixture().suite, 10, 77);
  std::size_t alarms = 0;
  for (const auto& trace : collection.traces) {
    for (const auto& event : trace.events) {
      if (monitor.on_event(event).alarm) ++alarms;
    }
    monitor.reset_window();
  }
  const auto& stats = monitor.stats();
  EXPECT_GT(stats.windows_scored, 100u);
  // Calibrated at 0.1% segment FP.
  EXPECT_LT(static_cast<double>(stats.windows_flagged) /
                static_cast<double>(stats.windows_scored),
            0.05);
  EXPECT_EQ(stats.alarms, alarms);
}

TEST(OnlineMonitorTest, AttackStreamRaisesAlarm) {
  OnlineMonitor monitor(fixture().detector);
  const auto attacks = attack::build_attack_traces(
      fixture().suite, attack::gzip_payloads(), 5);
  std::size_t alarms = 0;
  for (const auto& attack : attacks) {
    for (const auto& event : attack.trace.events) {
      if (monitor.on_event(event).alarm) ++alarms;
    }
    monitor.reset_window();
  }
  EXPECT_GT(alarms, 0u);
}

TEST(OnlineMonitorTest, SymbolizerResolvesRawEvents) {
  const trace::Symbolizer symbolizer(fixture().suite.cfg());
  OnlineMonitor monitor(fixture().detector, &symbolizer);
  auto collection = workload::collect_traces(fixture().suite, 2, 13);
  std::size_t flagged = 0;
  std::size_t scored = 0;
  for (auto& trace : collection.traces) {
    for (auto event : trace.events) {
      event.caller.clear();  // arrives raw, as from a kernel feed
      const auto update = monitor.on_event(event);
      if (update.window_complete) {
        ++scored;
        flagged += update.flagged;
      }
    }
  }
  ASSERT_GT(scored, 10u);
  // With on-the-fly symbolization the benign stream still mostly passes.
  EXPECT_LT(static_cast<double>(flagged) / static_cast<double>(scored),
            0.1);
}

TEST(OnlineMonitorTest, HysteresisRequiresConsecutiveWindows) {
  MonitorOptions options;
  options.windows_to_alarm = 1000000;  // effectively never
  OnlineMonitor monitor(fixture().detector, nullptr, options);
  const auto attacks = attack::build_attack_traces(
      fixture().suite, attack::gzip_payloads(), 5);
  std::size_t alarms = 0;
  for (const auto& attack : attacks) {
    for (const auto& event : attack.trace.events) {
      if (monitor.on_event(event).alarm) ++alarms;
    }
  }
  EXPECT_EQ(alarms, 0u);
  EXPECT_GT(monitor.stats().windows_flagged, 0u);
}

TEST(OnlineMonitorTest, CooldownSuppressesAlarmBursts) {
  MonitorOptions noisy;
  noisy.cooldown_events = 0;
  MonitorOptions calm;
  calm.cooldown_events = 1000000;

  const auto attacks = attack::build_attack_traces(
      fixture().suite, attack::gzip_payloads(), 3);

  OnlineMonitor monitor_noisy(fixture().detector, nullptr, noisy);
  OnlineMonitor monitor_calm(fixture().detector, nullptr, calm);
  std::size_t noisy_alarms = 0;
  std::size_t calm_alarms = 0;
  for (const auto& attack : attacks) {
    for (const auto& event : attack.trace.events) {
      if (monitor_noisy.on_event(event).alarm) ++noisy_alarms;
      if (monitor_calm.on_event(event).alarm) ++calm_alarms;
    }
  }
  EXPECT_LE(calm_alarms, noisy_alarms);
  EXPECT_LE(calm_alarms, 1u);
}

// Deterministic flagged-window generator: an unknown call name is outside
// the model's alphabet, so every complete window containing it is flagged.
trace::CallEvent unknown_event() {
  trace::CallEvent event;
  event.kind = ir::CallKind::kSyscall;
  event.name = "__never_trained__";
  event.caller = "main";
  return event;
}

/// Feeds `count` always-flagged events and returns the 1-based indices of
/// the events on which an alarm fired.
std::vector<std::size_t> alarm_positions(MonitorOptions options,
                                         std::size_t count) {
  OnlineMonitor monitor(fixture().detector, nullptr, options);
  std::vector<std::size_t> positions;
  for (std::size_t i = 1; i <= count; ++i) {
    if (monitor.on_event(unknown_event()).alarm) positions.push_back(i);
  }
  return positions;
}

// The documented cooldown/hysteresis interaction (see MonitorOptions): with
// windows_to_alarm=3 and cooldown_events=10 over a persistently flagged
// stream, the first alarm needs the window to fill (L events) plus a
// 3-window streak, and every later alarm fires exactly when the cooldown
// expires — never inside it, and without needing a fresh 3-window streak.
TEST(OnlineMonitorTest, CooldownAndHysteresisInteractAsDocumented) {
  const std::size_t window = fixture().detector.config().segments.length;
  MonitorOptions options;
  options.windows_to_alarm = 3;
  options.cooldown_events = 10;

  const auto positions = alarm_positions(options, window + 45);
  const std::size_t first = window + 2;  // 3rd flagged window
  EXPECT_EQ(positions,
            (std::vector<std::size_t>{first, first + 10, first + 20,
                                      first + 30, first + 40}));
}

TEST(OnlineMonitorTest, AlarmNeverRefiresInsideCooldownWindow) {
  MonitorOptions options;
  options.windows_to_alarm = 2;
  options.cooldown_events = 25;
  const auto positions = alarm_positions(options, 120);
  ASSERT_GE(positions.size(), 2u);
  for (std::size_t i = 1; i < positions.size(); ++i) {
    // Strictly no alarm until the cooldown has fully elapsed.
    EXPECT_GE(positions[i] - positions[i - 1], options.cooldown_events);
  }
}

TEST(OnlineMonitorTest, ZeroCooldownAlarmsEveryStreak) {
  const std::size_t window = fixture().detector.config().segments.length;
  MonitorOptions options;
  options.windows_to_alarm = 3;
  options.cooldown_events = 0;

  // Streak resets on each alarm, so alarms fire every 3 flagged windows.
  const auto positions = alarm_positions(options, window + 8);
  const std::size_t first = window + 2;
  EXPECT_EQ(positions,
            (std::vector<std::size_t>{first, first + 3, first + 6}));
}

TEST(OnlineMonitorTest, ResetWindowClearsCooldownAndStreak) {
  MonitorOptions options;
  options.windows_to_alarm = 1;
  options.cooldown_events = 1000000;
  OnlineMonitor monitor(fixture().detector, nullptr, options);
  const std::size_t window = fixture().detector.config().segments.length;
  std::size_t alarms = 0;
  for (std::size_t i = 0; i < window + 5; ++i) {
    alarms += monitor.on_event(unknown_event()).alarm;
  }
  EXPECT_EQ(alarms, 1u);  // the huge cooldown suppresses everything after

  monitor.reset_window();  // process restart: hysteresis state is forgotten
  for (std::size_t i = 0; i < window + 5; ++i) {
    alarms += monitor.on_event(unknown_event()).alarm;
  }
  EXPECT_EQ(alarms, 2u);
}

TEST(OnlineMonitorTest, OffStreamEventsAreIgnoredButCounted) {
  OnlineMonitor monitor(fixture().detector);  // syscall model
  trace::CallEvent libcall;
  libcall.kind = ir::CallKind::kLibcall;
  libcall.name = "malloc";
  libcall.caller = "main";
  for (int i = 0; i < 50; ++i) {
    const auto update = monitor.on_event(libcall);
    EXPECT_FALSE(update.window_complete);
  }
  EXPECT_EQ(monitor.stats().events_seen, 50u);
  EXPECT_EQ(monitor.stats().events_observed, 0u);
}

std::vector<trace::CallEvent> benign_events(std::uint64_t seed,
                                            std::size_t runs = 3) {
  std::vector<trace::CallEvent> events;
  for (const auto& trace :
       workload::collect_traces(fixture().suite, runs, seed).traces) {
    events.insert(events.end(), trace.events.begin(), trace.events.end());
  }
  return events;
}

TEST(OnlineMonitorTest, SnapshotRestoreResumesBitIdentically) {
  MonitorOptions options;
  options.windows_to_alarm = 2;
  options.cooldown_events = 5;
  const std::vector<trace::CallEvent> events = benign_events(13);
  ASSERT_GT(events.size(), 20u);
  const std::size_t cut = events.size() / 2 + 1;  // mid-window on purpose

  OnlineMonitor straight(fixture().detector, nullptr, options);
  OnlineMonitor interrupted(fixture().detector, nullptr, options);
  for (std::size_t i = 0; i < cut; ++i) {
    straight.on_event(events[i]);
    interrupted.on_event(events[i]);
  }

  // Freeze, destroy, resume on a brand-new monitor: every per-event update
  // (score, flagged, alarm, window_complete) must match the monitor that
  // was never interrupted.
  const MonitorSnapshot frozen = interrupted.snapshot();
  OnlineMonitor resumed(fixture().detector, nullptr, options);
  resumed.restore(frozen);
  for (std::size_t i = cut; i < events.size(); ++i) {
    const MonitorUpdate a = straight.on_event(events[i]);
    const MonitorUpdate b = resumed.on_event(events[i]);
    EXPECT_EQ(a.window_complete, b.window_complete) << i;
    EXPECT_EQ(a.log_likelihood, b.log_likelihood) << i;  // exact, not near
    EXPECT_EQ(a.flagged, b.flagged) << i;
    EXPECT_EQ(a.alarm, b.alarm) << i;
  }
  const MonitorSnapshot end_a = straight.snapshot();
  const MonitorSnapshot end_b = resumed.snapshot();
  EXPECT_EQ(end_a.window, end_b.window);
  EXPECT_EQ(end_a.consecutive_flagged, end_b.consecutive_flagged);
  EXPECT_EQ(end_a.cooldown_remaining, end_b.cooldown_remaining);
  EXPECT_EQ(end_a.stats.events_seen, end_b.stats.events_seen);
  EXPECT_EQ(end_a.stats.windows_scored, end_b.stats.windows_scored);
  EXPECT_EQ(end_a.stats.windows_flagged, end_b.stats.windows_flagged);
  EXPECT_EQ(end_a.stats.alarms, end_b.stats.alarms);
}

TEST(OnlineMonitorTest, RestoreRejectsForeignWindow) {
  OnlineMonitor monitor(fixture().detector);
  MonitorSnapshot foreign;
  // A window longer than this detector's segment length can only have come
  // from a different model.
  foreign.window.assign(
      fixture().detector.config().segments.length + 1, 0);
  EXPECT_THROW(monitor.restore(foreign), std::invalid_argument);
}

TEST(OnlineMonitorTest, RebindKeepsStatsAndCooldownResetsWindow) {
  MonitorOptions options;
  options.windows_to_alarm = 1;
  options.cooldown_events = 10000;
  OnlineMonitor monitor(fixture().detector, nullptr, options);
  // Drive to an alarm so a cooldown is pending.
  const auto attacks = attack::build_attack_traces(
      fixture().suite, attack::gzip_payloads(), 5);
  for (const auto& attack : attacks) {
    if (monitor.stats().alarms > 0) break;
    for (const auto& event : attack.trace.events) monitor.on_event(event);
  }
  ASSERT_GT(monitor.stats().alarms, 0u);
  const MonitorStats before = monitor.stats();
  const std::size_t cooldown_before = monitor.snapshot().cooldown_remaining;
  ASSERT_GT(cooldown_before, 0u);

  monitor.rebind(fixture().detector);
  const MonitorSnapshot after = monitor.snapshot();
  EXPECT_TRUE(after.window.empty());            // old alphabet is dead
  EXPECT_EQ(after.consecutive_flagged, 0u);
  EXPECT_EQ(after.cooldown_remaining, cooldown_before);  // carries over
  EXPECT_EQ(after.stats.events_seen, before.events_seen);
  EXPECT_EQ(after.stats.alarms, before.alarms);
}

TEST(OnlineMonitorTest, StateBytesAndStorageRecycling) {
  OnlineMonitor monitor(fixture().detector);
  const std::size_t bytes = monitor.state_bytes();
  EXPECT_GE(bytes, sizeof(OnlineMonitor));
  for (const auto& event : benign_events(19, 1)) monitor.on_event(event);
  // Scoring may grow the scratch buffers, never shrink them — and once a
  // window has been scored, the kernel's two alpha rows must be part of
  // the per-session bill (the shared kernel image must NOT be).
  ASSERT_GT(monitor.stats().windows_scored, 0u);
  const std::size_t states = fixture().detector.model().num_states();
  EXPECT_GE(monitor.state_bytes(), bytes + 2 * states * sizeof(double));
  EXPECT_LT(monitor.state_bytes(), monitor.kernel()->image_bytes());

  MonitorStorage recycled = monitor.release_storage();
  EXPECT_GE(recycled.window.capacity(),
            fixture().detector.config().segments.length);
  EXPECT_GE(recycled.scratch.capacity(), 2 * states);
  // A monitor built from recycled storage behaves like a cold one.
  OnlineMonitor fresh(fixture().detector, nullptr, {}, std::move(recycled));
  EXPECT_EQ(fresh.stats().events_seen, 0u);
  EXPECT_TRUE(fresh.snapshot().window.empty());
}

std::vector<trace::CallEvent> mixed_stream() {
  // Benign traffic, then attack traffic, with a call the model has never
  // seen in any context sprinkled in — exercising the healthy, flagged,
  // and unknown-symbol (-inf) scoring branches.
  std::vector<trace::CallEvent> events = benign_events(29, 2);
  for (const auto& attack : attack::build_attack_traces(
           fixture().suite, attack::gzip_payloads(), 2)) {
    events.insert(events.end(), attack.trace.events.begin(),
                  attack.trace.events.end());
  }
  trace::CallEvent unseen;
  unseen.kind = ir::CallKind::kSyscall;
  unseen.name = "__not_in_any_profile__";
  unseen.caller = "nowhere";
  for (std::size_t i = 40; i < events.size(); i += 97) {
    events.insert(events.begin() + static_cast<std::ptrdiff_t>(i), unseen);
  }
  return events;
}

TEST(OnlineMonitorTest, KernelPathBitIdenticalToReferencePath) {
  // Every window scores through the compiled ScoringKernel, audited ones
  // included. A tracing monitor that audits every window must agree
  // EXACTLY with the reference recursion (Detector::score_segment) on each
  // window — same double bits, not approximately.
  MonitorOptions audited;
  audited.decisions.enabled = true;
  audited.decisions.ring_capacity = 4;
  audited.decisions.sample_every = 1;
  OnlineMonitor monitor(fixture().detector, nullptr, audited);

  std::size_t windows = 0;
  std::size_t unknown_windows = 0;
  std::size_t flagged_windows = 0;
  for (const auto& event : mixed_stream()) {
    const MonitorUpdate update = monitor.on_event(event);
    if (!update.window_complete) continue;
    ++windows;
    const SegmentVerdict ref =
        fixture().detector.score_segment(monitor.window());
    unknown_windows += ref.unknown_symbol;
    flagged_windows += ref.flagged;
    EXPECT_EQ(update.log_likelihood, ref.log_likelihood);  // exact, not near
    EXPECT_EQ(update.flagged, ref.flagged);
    EXPECT_EQ(update.unknown_symbol, ref.unknown_symbol);
    ASSERT_NE(update.decision, nullptr);
    EXPECT_EQ(update.decision->log_likelihood, ref.log_likelihood);
  }
  // All three scoring branches must actually have been compared.
  ASSERT_GT(windows, 100u);
  ASSERT_GT(unknown_windows, 0u);
  ASSERT_GT(flagged_windows, unknown_windows);
}

TEST(OnlineMonitorTest, KernelAuditRecordsMatchReferenceRecords) {
  // The record built from the kernel's audit outputs (per-step scales and
  // argmax states) must equal the one the reference recursion yields, field
  // by field with exact doubles, for every window of the stream — healthy,
  // flagged and unknown-symbol windows alike.
  MonitorOptions audited;
  audited.decisions.enabled = true;
  audited.decisions.sample_every = 1;
  audited.decisions.ring_capacity = 1;
  OnlineMonitor monitor(fixture().detector, nullptr, audited);
  std::size_t records = 0;
  std::size_t unknown_records = 0;
  for (const auto& event : mixed_stream()) {
    const MonitorUpdate update = monitor.on_event(event);
    if (!update.window_complete) continue;
    ASSERT_NE(update.decision, nullptr);
    ++records;
    unknown_records += update.decision->unknown_symbol;
    test_support::expect_same_record(
        *update.decision,
        test_support::reference_record(fixture().detector, monitor.window()));
  }
  ASSERT_GT(records, 100u);
  ASSERT_GT(unknown_records, 0u);
}

TEST(OnlineMonitorTest, SnapshotRestoresIdenticallyWithAndWithoutAuditing) {
  // Window ids are interchangeable between the kernel and the alphabet
  // (the kernel interns to the same ids and unknown sentinel), so a
  // snapshot must rescore exactly like the reference recursion whether
  // restored into a plain or an audited monitor.
  const std::vector<trace::CallEvent> events = mixed_stream();
  const std::size_t cut = events.size() / 2 + 3;  // mid-window on purpose
  OnlineMonitor source(fixture().detector);
  for (std::size_t i = 0; i < cut; ++i) source.on_event(events[i]);
  const MonitorSnapshot frozen = source.snapshot();

  MonitorOptions audited;
  audited.decisions.enabled = true;
  audited.decisions.ring_capacity = 4;
  OnlineMonitor plain_resumed(fixture().detector);
  OnlineMonitor audited_resumed(fixture().detector, nullptr, audited);
  plain_resumed.restore(frozen);
  audited_resumed.restore(frozen);
  for (std::size_t i = cut; i < events.size(); ++i) {
    const MonitorUpdate a = audited_resumed.on_event(events[i]);
    const MonitorUpdate b = plain_resumed.on_event(events[i]);
    ASSERT_EQ(a.window_complete, b.window_complete) << i;
    EXPECT_EQ(a.log_likelihood, b.log_likelihood) << i;
    EXPECT_EQ(a.flagged, b.flagged) << i;
    EXPECT_EQ(a.unknown_symbol, b.unknown_symbol) << i;
    if (a.window_complete) {
      EXPECT_EQ(a.log_likelihood,
                fixture().detector.score_segment(audited_resumed.window()).log_likelihood)
          << i;
    }
  }
  ASSERT_GT(plain_resumed.stats().windows_scored,
            frozen.stats.windows_scored);
}

/// `count` events drawn uniformly from `detector`'s alphabet: each window
/// of them is, with overwhelming probability, one never seen. With
/// `unknown_every`, every unknown_every-th event is instead a call the
/// model never saw.
std::vector<trace::CallEvent> random_alphabet_events(
    std::size_t count, std::uint64_t seed,
    const Detector& detector = fixture().detector,
    std::size_t unknown_every = 0) {
  const auto& symbols = detector.alphabet().symbols();
  Rng rng(seed);
  std::vector<trace::CallEvent> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    trace::CallEvent& event = events[i];
    if (unknown_every > 0 && i % unknown_every == unknown_every - 1) {
      event = unknown_event();
      continue;
    }
    const std::string& symbol = rng.pick(symbols);
    const std::size_t at = symbol.find('@');
    event.kind = ir::CallKind::kSyscall;
    event.name = symbol.substr(0, at);
    event.caller = at == std::string::npos ? "" : symbol.substr(at + 1);
  }
  return events;
}

/// A 64-symbol model, as wide as the serve models: its 15-id windows take
/// two key words (6 bits per id), where the fixture's take one.
const Detector& wide_detector() {
  static const Detector wide = [] {
    Rng rng(5);
    hmm::Alphabet alphabet;
    for (int k = 0; k < 64; ++k) alphabet.intern("call" + std::to_string(k));
    return Detector::from_parts(fixture().detector.config(),
                                hmm::randomly_initialized_hmm(6, 64, rng),
                                alphabet, -40.0, true);
  }();
  return wide;
}

/// A 300-symbol model: 9 bits per id, so its 15-id windows take 135 bits,
/// three key words, and every slide carries bits across two word borders.
const Detector& wider_detector() {
  static const Detector wider = [] {
    Rng rng(9);
    hmm::Alphabet alphabet;
    for (int k = 0; k < 300; ++k) alphabet.intern("op" + std::to_string(k));
    return Detector::from_parts(fixture().detector.config(),
                                hmm::randomly_initialized_hmm(4, 300, rng),
                                alphabet, -80.0, true);
  }();
  return wider;
}

TEST(OnlineMonitorTest, MemoHitsReturnTheReferenceBits) {
  // Recurring benign windows, then more distinct windows than the memo
  // holds (evicting most of the first pass), then the benign feed again.
  // Hit or miss, every window's verdict is the reference recursion's.
  std::vector<trace::CallEvent> events = mixed_stream();
  const auto distinct =
      random_alphabet_events(ScoringKernel::kMemoEntries + 2000, 7);
  events.insert(events.end(), distinct.begin(), distinct.end());
  const auto again = mixed_stream();
  events.insert(events.end(), again.begin(), again.end());

  OnlineMonitor monitor(fixture().detector);
  std::size_t windows = 0;
  std::size_t hits = 0;
  for (const auto& event : events) {
    const MonitorUpdate update = monitor.on_event(event);
    if (!update.window_complete) continue;
    ++windows;
    hits += update.memo_hit;
    const SegmentVerdict ref =
        fixture().detector.score_segment(monitor.window());
    EXPECT_EQ(update.log_likelihood, ref.log_likelihood);  // exact bits
    EXPECT_EQ(update.flagged, ref.flagged);
    EXPECT_EQ(update.unknown_symbol, ref.unknown_symbol);
    EXPECT_FALSE(update.memo_hit && update.unknown_symbol);
  }
  ASSERT_GT(windows, ScoringKernel::kMemoEntries + 2000);
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, windows - ScoringKernel::kMemoEntries);

  // Windows of wide_detector() that differ only in their last two ids
  // share the first key word and often a set: only the whole key tells
  // them apart.
  const Detector& wide = wide_detector();
  const auto kernel = ScoringKernel::compile(wide);
  KernelScratch scratch;
  hmm::ObservationSeq window(kernel->window_length(), 1);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t a = 0; a < 64; ++a) {
      for (std::size_t b = 0; b < 64; ++b) {
        window[window.size() - 2] = a;
        window[window.size() - 1] = b;
        EXPECT_EQ(kernel->score(window, scratch).verdict.log_likelihood,
                  wide.score_segment(window).log_likelihood);
      }
    }
  }
}

TEST(OnlineMonitorTest, SharedKernelMemoIsExactUnderConcurrentScoring) {
  // Four threads score overlapping random picks from one pool of windows
  // through one kernel, racing on the same memo entries (the pool is
  // larger than the memo, so inserts also evict, whatever its size).
  // Every verdict must be the reference recursion's.
  const Detector& detector = wide_detector();
  const auto kernel = ScoringKernel::compile(detector);
  const std::size_t length = kernel->window_length();
  Rng rng(11);
  std::vector<hmm::ObservationSeq> pool(ScoringKernel::kMemoEntries + 2000,
                                        hmm::ObservationSeq(length));
  for (auto& window : pool) {
    for (auto& id : window) id = rng.index(kernel->num_symbols());
  }
  std::vector<double> reference;
  for (const auto& window : pool) {
    reference.push_back(detector.score_segment(window).log_likelihood);
  }
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> hits{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng picks(100 + t);
      KernelScratch scratch;
      for (std::size_t i = 0; i < 4000; ++i) {
        // Half the picks come from a hot 64-window prefix of the pool.
        const std::size_t at =
            picks.index(2) == 0 ? picks.index(64) : picks.index(pool.size());
        const WindowScore scored = kernel->score(pool[at], scratch);
        if (scored.verdict.log_likelihood != reference[at]) ++mismatches;
        if (scored.memo_hit) ++hits;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
}

TEST(OnlineMonitorTest, MemoHoldsAWorkingSetOfSixThousandWindows) {
  // The stream models recur over 1.2k-7k distinct windows each. Replay
  // a pool of 6000 distinct 64-symbol windows twice, in the same order,
  // through one kernel: with two candidate sets per key the second pass
  // must find 99% of them in the memo (one 4-way set per key kept about
  // two thirds), and every verdict, hit or miss, must be the reference
  // recursion's.
  const Detector& detector = wide_detector();
  const auto kernel = ScoringKernel::compile(detector);
  Rng rng(23);
  std::vector<hmm::ObservationSeq> pool(
      6000, hmm::ObservationSeq(kernel->window_length()));
  for (auto& window : pool) {
    for (auto& id : window) id = rng.index(kernel->num_symbols());
  }
  KernelScratch scratch;
  std::size_t hits[2] = {0, 0};
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (const auto& window : pool) {
      const WindowScore scored = kernel->score(window, scratch);
      EXPECT_EQ(scored.verdict.log_likelihood,
                detector.score_segment(window).log_likelihood);
      hits[pass] += scored.memo_hit;
    }
  }
  EXPECT_EQ(hits[0], 0u);  // distinct windows: nothing to reuse yet
  const double share = static_cast<double>(hits[1]) / pool.size();
  EXPECT_GE(share, 0.99) << hits[1] << " of " << pool.size();
}

/// What a monitor's caller sees of its windows, held to the reference:
/// the ids it was fed, in a ring of the detector's segment length.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(const Detector& detector) : detector_(&detector) {}

  /// Feeds `events` to `monitor` (bound to this detector) and checks every
  /// complete window: window() holds the last segment-length ids fed, the
  /// ids the drift feed receives, and the verdict is score_segment's, bit
  /// for bit. Returns the memo hits.
  std::size_t feed(OnlineMonitor& monitor,
                   std::span<const trace::CallEvent> events) {
    const std::size_t length = detector_->config().segments.length;
    std::size_t hits = 0;
    for (const trace::CallEvent& event : events) {
      ids_.push_back(monitor.kernel()->find_observation(event.name,
                                                        event.caller));
      if (ids_.size() > length) ids_.erase(ids_.begin());
      const MonitorUpdate update = monitor.on_event(event);
      EXPECT_EQ(update.window_complete, ids_.size() == length);
      EXPECT_EQ(monitor.window(), ids_);
      if (!update.window_complete) continue;
      const SegmentVerdict ref = detector_->score_segment(ids_);
      EXPECT_EQ(update.log_likelihood, ref.log_likelihood);  // exact bits
      EXPECT_EQ(update.flagged, ref.flagged);
      EXPECT_EQ(update.unknown_symbol, ref.unknown_symbol);
      hits += update.memo_hit;
      windows_ += 1;
      unknown_windows_ += ref.unknown_symbol;
    }
    return hits;
  }

  /// The window the monitor was reset, rebound or restored to.
  void restart(const Detector& detector,
               hmm::ObservationSeq ids = hmm::ObservationSeq()) {
    detector_ = &detector;
    ids_ = std::move(ids);
  }
  std::size_t windows() const { return windows_; }
  std::size_t unknown_windows() const { return unknown_windows_; }

 private:
  const Detector* detector_;
  hmm::ObservationSeq ids_;
  std::size_t windows_ = 0;
  std::size_t unknown_windows_ = 0;
};

TEST(OnlineMonitorTest, MonitorMemoHoldsThreeQuartersOfItsEntries) {
  // A stream whose 6144 windows (0.75 x kMemoEntries) are all distinct,
  // replayed twice through one monitor: two-choice sets keep nearly the
  // whole working set, so the second pass hits almost all of the 6144
  // again. Its first length - 1 windows straddle both passes and are new.
  const Detector& detector = wide_detector();
  const std::size_t length = detector.config().segments.length;
  const std::size_t distinct = ScoringKernel::kMemoEntries * 3 / 4;
  const auto events =
      random_alphabet_events(distinct + length - 1, 41, detector);
  OnlineMonitor monitor(detector);
  ReferenceWindow reference(detector);
  const std::size_t first = reference.feed(monitor, events);
  EXPECT_EQ(first, 0u);
  const std::size_t second = reference.feed(monitor, events);
  ASSERT_EQ(reference.windows(), 2 * distinct + length - 1);
  const double share = static_cast<double>(second) / distinct;
  EXPECT_GE(share, 0.99) << second << " of " << distinct;
}

TEST(OnlineMonitorTest, SlidingKeyTracksUnknownIdsAndWordBorders) {
  // Unknown calls slide into and out of the window every 23 events, on
  // models of one (fixture), two (wide) and three (wider) key words: no
  // window holding one reaches the memo, and the first known window
  // after it keys the same as if the unknown id had never been there.
  for (const Detector* detector :
       {&std::as_const(fixture().detector), &wide_detector(),
        &wider_detector()}) {
    // The stream twice, so its known windows hit the memo.
    auto events = random_alphabet_events(600, 43, *detector, 23);
    const auto again = events;
    events.insert(events.end(), again.begin(), again.end());
    OnlineMonitor monitor(*detector);
    ReferenceWindow reference(*detector);
    EXPECT_GT(reference.feed(monitor, events), 0u);
    EXPECT_GT(reference.unknown_windows(), 0u);
    EXPECT_LT(reference.unknown_windows(), reference.windows());
  }

  // On the three-word model, ids that share their two low bits differ
  // only in the seven bits that slide in across the border of words 1
  // and 2 (the newest id sits at bits 126-134).
  const Detector& wider = wider_detector();
  EXPECT_EQ(ScoringKernel::compile(wider)->key_words(), 3u);
  Rng rng(45);
  std::vector<trace::CallEvent> events(400, unknown_event());
  for (auto& event : events) {
    event.name = "op" + std::to_string(4 * rng.index(75));
    event.caller.clear();
  }
  const auto again = events;
  events.insert(events.end(), again.begin(), again.end());
  OnlineMonitor monitor(wider);
  ReferenceWindow reference(wider);
  EXPECT_GT(reference.feed(monitor, events), 0u);
  EXPECT_EQ(reference.unknown_windows(), 0u);
}

/// A kernel whose memo holds every window of `events`, fed through a
/// monitor of its own.
std::shared_ptr<const ScoringKernel> warm_kernel(
    const Detector& detector, std::span<const trace::CallEvent> events) {
  auto kernel = ScoringKernel::compile(detector);
  OnlineMonitor warm(detector, nullptr, {}, {}, kernel);
  for (const trace::CallEvent& event : events) warm.on_event(event);
  return kernel;
}

TEST(OnlineMonitorTest, SlidingKeyIsRebuiltFromTheRing) {
  // Every way a monitor's ring changes other than by one event: restore
  // of a snapshot (full or mid-window) of another stream, reset_window
  // with an unknown id in the ring, rebind to models whose keys take 1, 3
  // and 2 words, and a monitor built from another model's pooled storage.
  // Each shares a kernel whose memo already holds every window of the
  // stream fed next, so a key or unknown count left over from the old
  // ring would hit entries of other ids, or none at all. Each must key its
  // windows from the ids it holds: the reference's verdicts and window()
  // ids, and hits once the old ids have slid out.
  const Detector& wide = wide_detector();
  const std::size_t length = wide.config().segments.length;
  const auto stream = random_alphabet_events(400, 47, wide, 31);
  const auto kernel = warm_kernel(wide, stream);
  const auto other = random_alphabet_events(2 * length, 71, wide);
  // Unknown ids sit at every 31st event, so the ring at `cut` holds one.
  const std::size_t cut = 130;

  for (const std::size_t held : {length + 3, length / 2}) {
    OnlineMonitor source(wide, nullptr, {}, {}, kernel);
    for (std::size_t i = 0; i < held; ++i) source.on_event(other[i]);
    const MonitorSnapshot frozen = source.snapshot();

    OnlineMonitor monitor(wide, nullptr, {}, {}, kernel);
    ReferenceWindow reference(wide);
    reference.feed(monitor, std::span(stream).first(cut));
    monitor.restore(frozen);
    reference.restart(wide, frozen.window);
    EXPECT_GT(reference.feed(monitor, std::span(stream).subspan(cut)), 0u);
  }

  OnlineMonitor monitor(wide, nullptr, {}, {}, kernel);
  ReferenceWindow reference(wide);
  reference.feed(monitor, std::span(stream).first(cut));
  monitor.reset_window();
  reference.restart(wide);
  EXPECT_GT(reference.feed(monitor, std::span(stream).subspan(cut)), 0u);
  reference.feed(monitor, std::span(stream).first(cut));
  for (const Detector* detector :
       {&std::as_const(fixture().detector), &wider_detector(), &wide}) {
    const auto events = random_alphabet_events(120, 53, *detector, 29);
    monitor.rebind(*detector, detector == &wide ? kernel
                                                : warm_kernel(*detector, events));
    reference.restart(*detector);
    EXPECT_GT(reference.feed(monitor, detector == &wide
                                          ? std::span(stream).subspan(cut)
                                          : std::span(events)),
              0u);
  }

  // Storage released by a three-word monitor mid-window keys a one-word
  // monitor, and the other way round.
  const auto narrow_events = random_alphabet_events(80, 61);
  const auto wider_events =
      random_alphabet_events(80, 67, wider_detector(), 23);
  OnlineMonitor wider_monitor(wider_detector(), nullptr, {}, {},
                              warm_kernel(wider_detector(), wider_events));
  ReferenceWindow wider_ref(wider_detector());
  wider_ref.feed(wider_monitor, std::span(wider_events).first(length + 5));
  OnlineMonitor narrow(fixture().detector, nullptr, {},
                       wider_monitor.release_storage(),
                       warm_kernel(fixture().detector, narrow_events));
  ReferenceWindow narrow_ref(fixture().detector);
  EXPECT_GT(narrow_ref.feed(narrow, narrow_events), 0u);
  OnlineMonitor wider_again(wider_detector(), nullptr, {},
                            narrow.release_storage(),
                            warm_kernel(wider_detector(), wider_events));
  ReferenceWindow wider_again_ref(wider_detector());
  EXPECT_GT(wider_again_ref.feed(wider_again, wider_events), 0u);
  EXPECT_GT(wider_again_ref.unknown_windows(), 0u);
}

TEST(OnlineMonitorTest, MemoHitRecordsMatchReferenceRecords) {
  // A sampled or flagged window that hits the memo runs no pass; the
  // record derived from its entry when read must equal the reference
  // recursion's.
  MonitorOptions audited;
  audited.decisions.enabled = true;
  audited.decisions.sample_every = 3;
  audited.decisions.always_on_flagged = true;
  audited.decisions.ring_capacity = 1;
  OnlineMonitor monitor(fixture().detector, nullptr, audited);
  std::vector<trace::CallEvent> events = mixed_stream();
  const auto again = mixed_stream();
  events.insert(events.end(), again.begin(), again.end());
  std::size_t hit_records = 0;
  std::size_t flagged_hit_records = 0;
  for (const auto& event : events) {
    const MonitorUpdate update = monitor.on_event(event);
    if (update.decision == nullptr) continue;
    test_support::expect_same_record(
        *update.decision,
        test_support::reference_record(fixture().detector, monitor.window()));
    hit_records += update.memo_hit;
    flagged_hit_records += update.memo_hit && update.flagged;
  }
  EXPECT_GT(hit_records, 0u);
  EXPECT_GT(flagged_hit_records, 0u);
}

TEST(OnlineMonitorTest, EachKernelMemoizesItsOwnModel) {
  // Two versions of one model see the same id windows: each kernel must
  // return its own model's bits, so a monitor rebound to a new version
  // never reads the old version's memo.
  const Detector& old_version = fixture().detector;
  DetectorConfig config = old_version.config();
  config.training.max_iterations = 3;
  Detector new_version = Detector::build(fixture().suite.module(), config);
  new_version.train(workload::collect_traces(fixture().suite, 40, 92).traces);
  const auto old_kernel = ScoringKernel::compile(old_version);
  const auto new_kernel = ScoringKernel::compile(new_version);

  const auto events = benign_events(31);
  OnlineMonitor monitor(old_version, nullptr, {}, {}, old_kernel);
  for (const auto& event : events) monitor.on_event(event);
  for (const auto& event : events) monitor.on_event(event);  // all hits now
  monitor.rebind(new_version, new_kernel);
  std::size_t windows = 0;
  std::size_t differing = 0;
  for (const auto& event : events) {
    const MonitorUpdate update = monitor.on_event(event);
    if (!update.window_complete) continue;
    ++windows;
    const double ref =
        new_version.score_segment(monitor.window()).log_likelihood;
    EXPECT_EQ(update.log_likelihood, ref);
    differing +=
        ref != old_version.score_segment(monitor.window()).log_likelihood;
  }
  ASSERT_GT(windows, 0u);
  EXPECT_GT(differing, 0u);

  // And directly on the two kernels, in either order.
  const hmm::ObservationSeq window(old_kernel->window_length(), 0);
  KernelScratch scratch;
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(old_kernel->score(window, scratch).verdict.log_likelihood,
              old_version.score_segment(window).log_likelihood);
    EXPECT_EQ(new_kernel->score(window, scratch).verdict.log_likelihood,
              new_version.score_segment(window).log_likelihood);
  }
  EXPECT_TRUE(old_kernel->score(window, scratch).memo_hit);
  EXPECT_THROW(old_kernel->score(hmm::ObservationSeq(3, 0), scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace cmarkov::core
