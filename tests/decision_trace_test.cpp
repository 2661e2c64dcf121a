// Tests for the decision audit trail (src/obs/trace/): BoundedLog drop
// accounting under concurrency, Tracer sampling semantics, per-symbol
// forward decompositions that sum exactly to the window log-likelihood,
// DecisionRecord assembly for known/unknown/impossible windows, monitor
// ring sampling, records derived when read (allocation-free admission,
// the scoring model kept across a rebind, the stored-bits check), and
// golden-file pins for the JSONL and Chrome-trace sinks. Regenerate goldens
// with CMARKOV_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/decision_log.hpp"
#include "src/core/detector.hpp"
#include "src/core/online_monitor.hpp"
#include "src/core/scoring_kernel.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/obs/run_profile.hpp"
#include "src/obs/trace/bounded_log.hpp"
#include "src/obs/trace/chrome_trace.hpp"
#include "src/obs/trace/decision_record.hpp"
#include "src/obs/trace/tracer.hpp"
#include "tests/allocation_probe.hpp"
#include "tests/reference_record.hpp"

namespace cmarkov {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

/// Hand-built 2-state / 2-symbol detector; deterministic by construction.
core::Detector tiny_detector(double threshold) {
  hmm::Hmm model;
  model.transition = Matrix::from_rows({{0.7, 0.3}, {0.4, 0.6}});
  model.emission = Matrix::from_rows({{0.9, 0.1}, {0.2, 0.8}});
  model.initial = {0.6, 0.4};
  hmm::Alphabet alphabet;
  alphabet.intern("read@main");
  alphabet.intern("write@main");
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kAll;
  config.segments.length = 3;
  return core::Detector::from_parts(config, std::move(model),
                                    std::move(alphabet), threshold,
                                    /*trained=*/true);
}

trace::CallEvent event(const std::string& name) {
  trace::CallEvent ev;
  ev.name = name;
  ev.caller = "main";
  ev.kind = ir::CallKind::kLibcall;
  return ev;
}

TEST(BoundedLogTest, AppendsThenDropsWithAccounting) {
  obs::BoundedLog<int> log(3);
  EXPECT_TRUE(log.append(10));
  EXPECT_TRUE(log.append(11));
  EXPECT_TRUE(log.append(12));
  EXPECT_FALSE(log.append(13));  // full: flight recorder, not a ring
  EXPECT_FALSE(log.append(14));
  EXPECT_EQ(log.appended(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.snapshot(), (std::vector<int>{10, 11, 12}));
}

TEST(BoundedLogTest, ZeroCapacityDropsEverything) {
  obs::BoundedLog<int> log(0);
  EXPECT_FALSE(log.append(1));
  EXPECT_EQ(log.appended(), 0u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_TRUE(log.snapshot().empty());
}

TEST(BoundedLogTest, ConcurrentAppendersAccountExactly) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 1000;
  constexpr std::size_t kCapacity = 512;
  obs::BoundedLog<std::size_t> log(kCapacity);
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) log.append(t * 10000 + i);
    });
  }
  for (auto& w : writers) w.join();
  // Every append either landed or was counted as dropped — no silent loss.
  EXPECT_EQ(log.appended(), kCapacity);
  EXPECT_EQ(log.dropped(), kThreads * kPerThread - kCapacity);
  EXPECT_EQ(log.snapshot().size(), kCapacity);
}

TEST(TracerTest, DisabledTracerSamplesAndRecordsNothing) {
  obs::Tracer tracer({.enabled = false, .sample_every = 1});
  EXPECT_FALSE(tracer.sample(false));
  EXPECT_FALSE(tracer.sample(true));  // force cannot override the switch
  EXPECT_FALSE(tracer.record(obs::SpanRecord{}));
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TracerTest, PeriodicSamplingAdmitsEveryNth) {
  obs::Tracer tracer({.enabled = true, .sample_every = 3});
  std::vector<bool> admitted;
  for (int i = 0; i < 7; ++i) admitted.push_back(tracer.sample(false));
  EXPECT_EQ(admitted,
            (std::vector<bool>{true, false, false, true, false, false, true}));
}

TEST(TracerTest, ExplicitTraceIdBypassesSampling) {
  obs::Tracer tracer({.enabled = true, .sample_every = 0});
  EXPECT_FALSE(tracer.sample(false));  // period 0: nothing sampled...
  EXPECT_TRUE(tracer.sample(true));    // ...except forced events
}

TEST(TracerTest, RecordsUntilFullThenCountsDrops) {
  obs::Tracer tracer({.enabled = true, .sample_every = 1});
  obs::SpanRecord span;
  span.name = "queue";
  for (std::size_t i = 0; i < obs::kTracerCapacity; ++i) {
    ASSERT_TRUE(tracer.record(span));
  }
  EXPECT_FALSE(tracer.record(span));
  EXPECT_EQ(tracer.recorded(), obs::kTracerCapacity);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_EQ(tracer.snapshot().size(), obs::kTracerCapacity);
}

TEST(ForwardDecompositionTest, ContributionsSumExactlyToLogLikelihood) {
  const core::Detector detector = tiny_detector(-10.0);
  const hmm::ObservationSeq segment{0, 1, 0};
  const hmm::ForwardResult forward =
      hmm::forward_scaled(detector.model(), segment);
  ASSERT_FALSE(forward.impossible);
  const std::vector<double> contributions =
      hmm::per_symbol_log_contributions(forward);
  ASSERT_EQ(contributions.size(), segment.size());
  double sum = 0.0;
  for (double c : contributions) sum += c;
  // Same addends in the same order as the forward pass: bit-identical.
  EXPECT_EQ(sum, forward.log_likelihood);
}

TEST(ForwardDecompositionTest, ImpossibleWindowPutsInfinityAtFailingStep) {
  hmm::Hmm model;
  model.transition = Matrix::from_rows({{0.5, 0.5}, {0.5, 0.5}});
  // Neither state can emit symbol 1.
  model.emission = Matrix::from_rows({{1.0, 0.0}, {1.0, 0.0}});
  model.initial = {0.5, 0.5};
  const hmm::ObservationSeq segment{0, 1, 0};
  const hmm::ForwardResult forward = hmm::forward_scaled(model, segment);
  ASSERT_TRUE(forward.impossible);
  const std::vector<double> contributions =
      hmm::per_symbol_log_contributions(forward);
  ASSERT_EQ(contributions.size(), 3u);
  EXPECT_GT(contributions[0], -kInf);
  EXPECT_EQ(contributions[1], -kInf);  // the step that killed the window
  EXPECT_EQ(contributions[2], 0.0);
  EXPECT_EQ(contributions[0] + contributions[1] + contributions[2],
            forward.log_likelihood);
}

/// Scores `segment` through the compiled kernel with audit outputs and
/// builds the decision record from them, as the monitor does.
obs::DecisionRecord kernel_record(const core::Detector& detector,
                                  const hmm::ObservationSeq& segment,
                                  core::SegmentVerdict& verdict) {
  const auto kernel = core::ScoringKernel::compile(detector);
  core::KernelScratch scratch;
  core::WindowAudit audit;
  verdict = kernel->score_window(segment, scratch, &audit);
  return detector.make_decision_record(segment, verdict, audit.scales,
                                       audit.alpha);
}

TEST(DecisionRecordTest, RecordMatchesVerdictAndLabels) {
  const core::Detector detector = tiny_detector(-1.0);
  const hmm::ObservationSeq segment{0, 1, 0};
  core::SegmentVerdict verdict;
  const obs::DecisionRecord record = kernel_record(detector, segment, verdict);
  EXPECT_TRUE(verdict.flagged);  // threshold -1 is above any real window
  EXPECT_EQ(record.log_likelihood, verdict.log_likelihood);
  EXPECT_EQ(record.threshold, -1.0);
  EXPECT_EQ(record.margin, verdict.log_likelihood - (-1.0));
  EXPECT_TRUE(record.flagged);
  EXPECT_FALSE(record.unknown_symbol);
  ASSERT_EQ(record.symbols.size(), 3u);
  EXPECT_EQ(record.symbols[0].label, "read@main");
  EXPECT_EQ(record.symbols[1].label, "write@main");
  EXPECT_EQ(record.symbols[1].position, 1u);
  // The acceptance bound: per-symbol contributions reproduce the verdict.
  EXPECT_NEAR(record.contribution_sum(), verdict.log_likelihood, 1e-9);
  EXPECT_EQ(record.contribution_sum(), verdict.log_likelihood);
  test_support::expect_same_record(
      record, test_support::reference_record(detector, segment));
}

TEST(DecisionRecordTest, UnknownSymbolAbsorbsTheInfinity) {
  const core::Detector detector = tiny_detector(-10.0);
  const hmm::ObservationSeq segment{0, 7, 1};  // 7 is out of vocabulary
  core::SegmentVerdict verdict;
  const obs::DecisionRecord record = kernel_record(detector, segment, verdict);
  EXPECT_TRUE(verdict.unknown_symbol);
  EXPECT_EQ(verdict.log_likelihood, -kInf);
  ASSERT_EQ(record.symbols.size(), 3u);
  EXPECT_FALSE(record.symbols[0].unknown);
  EXPECT_TRUE(record.symbols[1].unknown);
  EXPECT_EQ(record.symbols[1].label, "<unknown>");
  EXPECT_EQ(record.symbols[1].log_prob, -kInf);
  EXPECT_EQ(record.symbols[0].log_prob, 0.0);
  EXPECT_EQ(record.contribution_sum(), -kInf);
  test_support::expect_same_record(
      record, test_support::reference_record(detector, segment));
}

TEST(DecisionRecordTest, ZeroScaleStepReadsInfinityThenZeros) {
  // Every symbol is known, but no state can emit symbol 1: the window dies
  // at its second step. The failing step carries the -infinity; later
  // steps read 0 and state 0.
  hmm::Hmm model;
  model.transition = Matrix::from_rows({{0.5, 0.5}, {0.2, 0.8}});
  model.emission = Matrix::from_rows({{1.0, 0.0}, {1.0, 0.0}});
  model.initial = {0.3, 0.7};
  hmm::Alphabet alphabet;
  alphabet.intern("read@main");
  alphabet.intern("write@main");
  core::DetectorConfig config;
  config.segments.length = 4;
  const core::Detector detector = core::Detector::from_parts(
      config, std::move(model), std::move(alphabet), -10.0,
      /*trained=*/true);
  const hmm::ObservationSeq segment{0, 1, 0, 0};
  core::SegmentVerdict verdict;
  const obs::DecisionRecord record = kernel_record(detector, segment, verdict);
  EXPECT_FALSE(verdict.unknown_symbol);
  EXPECT_EQ(verdict.log_likelihood, -kInf);
  ASSERT_EQ(record.symbols.size(), 4u);
  EXPECT_GT(record.symbols[0].log_prob, -kInf);
  EXPECT_EQ(record.symbols[0].state, 1u);  // 0.7 * 1.0 beats 0.3 * 1.0
  EXPECT_EQ(record.symbols[1].log_prob, -kInf);
  EXPECT_EQ(record.symbols[1].state, 0u);
  for (std::size_t t = 2; t < 4; ++t) {
    EXPECT_EQ(record.symbols[t].log_prob, 0.0);
    EXPECT_EQ(record.symbols[t].state, 0u);
  }
  EXPECT_EQ(record.contribution_sum(), -kInf);
  test_support::expect_same_record(
      record, test_support::reference_record(detector, segment));
}

TEST(MonitorDecisionTest, PeriodicSamplingFillsBoundedRing) {
  const core::Detector detector = tiny_detector(-1e9);  // nothing flags
  core::MonitorOptions options;
  options.decisions.enabled = true;
  options.decisions.sample_every = 2;
  options.decisions.ring_capacity = 2;
  core::OnlineMonitor monitor(detector, nullptr, options);
  std::vector<std::uint64_t> recorded_windows;
  for (int i = 0; i < 8; ++i) {
    const core::MonitorUpdate update =
        monitor.on_event(event(i % 2 == 0 ? "read" : "write"));
    if (update.decision != nullptr) {
      recorded_windows.push_back(update.decision->window_index);
      EXPECT_TRUE(update.decision->sampled);
      EXPECT_FALSE(update.decision->flagged);
    }
  }
  // 6 scored windows (events 3..8); every 2nd sampled: windows 2, 4, 6.
  EXPECT_EQ(recorded_windows, (std::vector<std::uint64_t>{2, 4, 6}));
  // Ring keeps only the newest `ring_capacity` records.
  ASSERT_EQ(monitor.recent_decisions().size(), 2u);
  EXPECT_EQ(monitor.recent_decisions()[0].window_index, 4u);
  EXPECT_EQ(monitor.recent_decisions()[1].window_index, 6u);
}

TEST(MonitorDecisionTest, FlaggedWindowsAlwaysRecorded) {
  const core::Detector detector = tiny_detector(kInf);  // everything flags
  core::MonitorOptions options;
  options.decisions.enabled = true;
  options.decisions.sample_every = 0;  // periodic sampling off
  options.decisions.ring_capacity = 16;
  core::OnlineMonitor monitor(detector, nullptr, options);
  std::size_t records = 0;
  for (int i = 0; i < 6; ++i) {
    const core::MonitorUpdate update = monitor.on_event(event("read"));
    if (!update.window_complete) continue;
    ASSERT_NE(update.decision, nullptr);  // always-on-flagged guarantee
    EXPECT_TRUE(update.decision->flagged);
    EXPECT_FALSE(update.decision->sampled);
    EXPECT_EQ(update.decision->alarm, update.alarm);
    ++records;
  }
  EXPECT_EQ(records, 4u);  // windows complete from event 3 on
  EXPECT_EQ(monitor.recent_decisions().size(), 4u);
}

TEST(MonitorDecisionTest, DisabledTracingLeavesNoFootprint) {
  const core::Detector detector = tiny_detector(kInf);
  core::OnlineMonitor monitor(detector, nullptr, {});
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(monitor.on_event(event("read")).decision, nullptr);
  }
  EXPECT_TRUE(monitor.recent_decisions().empty());
}

/// A second 2-state model with its own alphabet, so a record's labels
/// tell which model explained it.
core::Detector other_detector() {
  hmm::Hmm model;
  model.transition = Matrix::from_rows({{0.2, 0.8}, {0.9, 0.1}});
  model.emission = Matrix::from_rows({{0.5, 0.5}, {0.3, 0.7}});
  model.initial = {0.1, 0.9};
  hmm::Alphabet alphabet;
  alphabet.intern("open@main");
  alphabet.intern("close@main");
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kAll;
  config.segments.length = 3;
  return core::Detector::from_parts(config, std::move(model),
                                    std::move(alphabet), kInf,
                                    /*trained=*/true);
}

TEST(MonitorDecisionTest, AdmittedWindowsAllocateNothingOnceWarm) {
  // Every window flags and every window is sampled: each one is admitted.
  // A warm ring overwrites its oldest entry in place, so admitting a
  // window copies its ids into a buffer the ring already holds.
  const core::Detector detector = tiny_detector(kInf);
  core::MonitorOptions options;
  options.decisions.enabled = true;
  options.decisions.sample_every = 1;
  options.decisions.always_on_flagged = true;
  options.decisions.ring_capacity = 8;
  core::OnlineMonitor monitor(detector, nullptr, options);
  const auto feed = [&monitor](std::size_t events) {
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < events; ++i) {
      const core::MonitorUpdate update = monitor.on_event(
          ir::CallKind::kLibcall, "main", i % 3 == 0 ? "write" : "read");
      admitted += update.decision != nullptr;
    }
    return admitted;
  };
  (void)feed(64);  // fills the ring, the scratch and the memo
  std::size_t admitted = 0;
  std::size_t allocations = 0;
  {
    const test_support::AllocationProbe probe;
    admitted = feed(256);
    allocations = probe.calls();
  }
  EXPECT_EQ(admitted, 256u);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(monitor.recent_entries().size(), 8u);
}

TEST(MonitorDecisionTest, RecordReadAfterRebindExplainsWithTheScoringModel) {
  // Records are derived when read, but from the model that scored each
  // window: the ring's older entries still explain themselves with the
  // first detector after the monitor moved on to the second.
  const core::Detector first = tiny_detector(kInf);
  const core::Detector second = other_detector();
  core::MonitorOptions options;
  options.decisions.enabled = true;
  options.decisions.sample_every = 1;
  options.decisions.ring_capacity = 16;
  core::OnlineMonitor monitor(first, nullptr, options);
  std::vector<std::pair<const core::Detector*, hmm::ObservationSeq>> scored;
  const auto feed = [&](const core::Detector& by, const char* a,
                        const char* b) {
    for (int i = 0; i < 5; ++i) {
      const core::MonitorUpdate update =
          monitor.on_event(ir::CallKind::kLibcall, "main", i % 2 ? b : a);
      if (update.decision != nullptr) scored.emplace_back(&by, monitor.window());
    }
  };
  feed(first, "read", "write");
  monitor.rebind(second);
  feed(second, "open", "close");

  const std::vector<obs::DecisionRecord> records = monitor.recent_decisions();
  ASSERT_EQ(records.size(), 6u);
  ASSERT_EQ(scored.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    test_support::expect_same_record(
        records[i],
        test_support::reference_record(*scored[i].first, scored[i].second));
  }
  EXPECT_EQ(records.front().symbols[0].label, "read@main");
  EXPECT_EQ(records.back().symbols[0].label, "open@main");
  EXPECT_NE(records.front().log_likelihood, -kInf);
  EXPECT_NE(records.back().log_likelihood, -kInf);
}

TEST(MonitorDecisionTest, ForgedLogLikelihoodBitsMakeTheReadThrow) {
  // The read re-runs the window's pass and checks the stored bits, so an
  // entry whose verdict its own window does not reproduce cannot be read.
  const core::Detector detector = tiny_detector(kInf);
  core::MonitorOptions options;
  options.decisions.enabled = true;
  options.decisions.sample_every = 1;
  core::OnlineMonitor monitor(detector, nullptr, options);
  for (int i = 0; i < 4; ++i) monitor.on_event(event("read"));
  core::DecisionEntry entry = monitor.recent_entries(1).at(0);
  EXPECT_NO_THROW((void)entry.record());
  entry.log_likelihood = std::nextafter(entry.log_likelihood, 0.0);
  EXPECT_THROW((void)entry.record(), std::logic_error);
}

TEST(GoldenTest, DecisionJsonlIsByteStable) {
  obs::DecisionRecord flagged;
  flagged.window_index = 7;
  flagged.session = "s1";
  flagged.trace_id = "t-42";
  flagged.log_likelihood = -12.5;
  flagged.threshold = -10.0;
  flagged.margin = -2.5;
  flagged.flagged = true;
  flagged.alarm = true;
  flagged.symbols.push_back({0, 0, "read@main", -3.25, 1, false});
  flagged.symbols.push_back({1, 1, "write@main", -9.25, 0, false});

  obs::DecisionRecord unknown;
  unknown.window_index = 8;
  unknown.session = "s1";
  unknown.log_likelihood = -kInf;
  unknown.threshold = -10.0;
  unknown.margin = -kInf;
  unknown.flagged = true;
  unknown.unknown_symbol = true;
  unknown.sampled = true;
  unknown.symbols.push_back({0, 7, "<unknown>", -kInf, 0, true});

  // One line per record, as DecisionLog::to_jsonl writes them.
  compare_golden("decision.jsonl", obs::decision_record_json(flagged) +
                                       "\n" +
                                       obs::decision_record_json(unknown) +
                                       "\n");
}

TEST(GoldenTest, ChromeTraceProfileIsByteStable) {
  obs::RunProfile profile;
  profile.begin("analyze");
  profile.end(0.25);
  profile.begin("fit");
  profile.begin("iteration");
  profile.end(0.5);
  profile.begin("iteration");  // merges with the previous sibling
  profile.end(0.5);
  profile.end(1.5);
  profile.finish(2.0);
  compare_golden("chrome_trace.json", obs::chrome_trace_json(profile));
}

TEST(GoldenTest, ChromeTraceSpansAreByteStable) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back({"queue", "s1", "t-42", 3, 100.0, 40.5, 1});
  spans.push_back({"score", "s1", "t-42", 3, 140.5, 59.5, 1});
  spans.push_back({"reply", "s1", "t-42", 3, 90.0, 120.0, 0});
  compare_golden("chrome_spans.json", obs::chrome_trace_json(spans));
}

}  // namespace
}  // namespace cmarkov
