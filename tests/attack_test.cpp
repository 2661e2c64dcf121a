// Unit tests for attack synthesis: Abnormal-S segments, ROP chains, the
// Table IV payload library and the exploit driver.
#include <gtest/gtest.h>

#include "src/attack/exploit_driver.hpp"
#include "src/trace/symbolizer.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::attack {
namespace {

workload::TraceCollection gzip_traces() {
  static const workload::ProgramSuite suite = workload::make_gzip_suite();
  return workload::collect_traces(suite, 12, 3);
}

TEST(LegitimateCallSetTest, DistinctPairsOnly) {
  const auto collection = gzip_traces();
  const auto legit = legitimate_call_set(collection.traces,
                                         analysis::CallFilter::kSyscalls);
  EXPECT_GT(legit.size(), 5u);
  // Sorted unique.
  for (std::size_t i = 1; i < legit.size(); ++i) {
    EXPECT_LT(legit[i - 1], legit[i]);
  }
  for (const auto& call : legit) {
    EXPECT_EQ(call.kind, ir::CallKind::kSyscall);
    EXPECT_FALSE(call.caller.empty());
  }
}

TEST(EventSegmentsTest, FixedLengthFilteredWindows) {
  const auto collection = gzip_traces();
  const auto segments =
      event_segments(collection.traces, analysis::CallFilter::kLibcalls, 15);
  ASSERT_FALSE(segments.empty());
  for (const auto& segment : segments) {
    EXPECT_EQ(segment.size(), 15u);
    for (const auto& event : segment) {
      EXPECT_EQ(event.kind, ir::CallKind::kLibcall);
    }
  }
}

TEST(AbnormalSTest, ReplacesTailWithLegitimateCalls) {
  const auto collection = gzip_traces();
  const auto filter = analysis::CallFilter::kSyscalls;
  const auto legit = legitimate_call_set(collection.traces, filter);
  const auto normal = event_segments(collection.traces, filter, 15);
  Rng rng(1);
  const auto abnormal = generate_abnormal_s(normal, legit, 50, rng);
  ASSERT_EQ(abnormal.size(), 50u);

  const std::set<LegitimateCall> known(legit.begin(), legit.end());
  for (const auto& segment : abnormal) {
    EXPECT_EQ(segment.size(), 15u);
    // Every call in the segment (including the mutated tail) is from the
    // legitimate call set — that is what makes Abnormal-S a rigorous test.
    for (const auto& event : segment) {
      EXPECT_TRUE(known.contains({event.name, event.caller, event.kind}));
    }
  }
}

TEST(AbnormalSTest, SegmentsDifferFromSources) {
  const auto collection = gzip_traces();
  const auto filter = analysis::CallFilter::kSyscalls;
  const auto legit = legitimate_call_set(collection.traces, filter);
  const auto normal = event_segments(collection.traces, filter, 15);
  std::set<std::vector<std::pair<std::string, std::string>>> normal_keys;
  for (const auto& segment : normal) {
    std::vector<std::pair<std::string, std::string>> key;
    for (const auto& e : segment) key.emplace_back(e.name, e.caller);
    normal_keys.insert(std::move(key));
  }
  Rng rng(2);
  const auto abnormal = generate_abnormal_s(normal, legit, 100, rng);
  std::size_t coincide = 0;
  for (const auto& segment : abnormal) {
    std::vector<std::pair<std::string, std::string>> key;
    for (const auto& e : segment) key.emplace_back(e.name, e.caller);
    if (normal_keys.contains(key)) ++coincide;
  }
  // Random tails occasionally recreate normal behaviour, but rarely.
  EXPECT_LT(coincide, 20u);
}

TEST(AbnormalSTest, RejectsDegenerateInputs) {
  Rng rng(3);
  EXPECT_THROW(generate_abnormal_s({}, {{"a", "f"}}, 1, rng),
               std::invalid_argument);
  const std::vector<EventSegment> normal = {
      {{ir::CallKind::kSyscall, "a", 0, "f"}}};
  EXPECT_THROW(generate_abnormal_s(normal, {}, 1, rng),
               std::invalid_argument);
  AbnormalSOptions options;
  options.segment_length = kAbnormalTailLength - 1;
  EXPECT_THROW(
      generate_abnormal_s(normal, {{"a", "f"}}, 1, rng, options),
      std::invalid_argument);
}

TEST(RopChainTest, PaperSegmentsHaveDocumentedShape) {
  EXPECT_EQ(gzip_rop_q1().size(), 15u);
  EXPECT_EQ(gzip_rop_q1().front().second, "uname");
  EXPECT_EQ(gzip_rop_q1().back().second, "chmod");
  EXPECT_EQ(gzip_rop_q2().size(), 18u);
  EXPECT_EQ(syscall_chain_payload().back().second, "execve");
}

TEST(RopChainTest, GadgetAddressesSymbolizeToWrongOrMissingContext) {
  const workload::ProgramSuite suite = workload::make_gzip_suite();
  Rng rng(4);
  trace::Trace rop = build_rop_trace(suite.cfg(), gzip_rop_q1(), rng);
  const trace::Symbolizer symbolizer(suite.cfg());
  symbolizer.symbolize(rop);
  ASSERT_EQ(rop.events.size(), 15u);
  std::size_t unknown = 0;
  for (const auto& event : rop.events) {
    EXPECT_FALSE(event.caller.empty());
    if (event.caller == trace::kUnknownCaller) ++unknown;
  }
  // With 75% mapped gadgets, some events resolve to functions (wrong
  // context) and some fall outside the image (missing context).
  EXPECT_GT(unknown, 0u);
  EXPECT_LT(unknown, rop.events.size());
}

TEST(PayloadLibraryTest, TableFourRoster) {
  EXPECT_EQ(gzip_payloads().size(), 2u);
  EXPECT_EQ(proftpd_backdoor_payloads().size(), 7u);
  const auto all = all_table4_payloads();
  EXPECT_EQ(all.size(), 10u);
  for (const auto& payload : all) {
    EXPECT_FALSE(payload.calls.empty()) << payload.name;
    EXPECT_FALSE(payload.vulnerability.empty());
  }
  // Every backdoor payload ends in command execution.
  for (const auto& payload : proftpd_backdoor_payloads()) {
    const auto& last = payload.calls.back().second;
    EXPECT_TRUE(last == "execve" || last == "write") << payload.name;
  }
}

TEST(ExploitDriverTest, AttackTracesSpliceBenignPrefixAndPayload) {
  const workload::ProgramSuite suite = workload::make_proftpd_suite();
  ExploitOptions options;
  options.traces_per_payload = 2;
  const auto attacks = build_attack_traces(
      suite, proftpd_backdoor_payloads(), 9, options);
  EXPECT_EQ(attacks.size(), 14u);
  for (const auto& attack : attacks) {
    EXPECT_GT(attack.payload_start, 0u);
    EXPECT_GT(attack.trace.events.size(), attack.payload_start);
    // Everything is symbolized.
    for (const auto& event : attack.trace.events) {
      EXPECT_FALSE(event.caller.empty());
    }
  }
}

TEST(ExploitDriverTest, AbnormalContextFractionInPaperRange) {
  const workload::ProgramSuite suite = workload::make_proftpd_suite();
  const auto collection = workload::collect_traces(suite, 20, 5);
  const auto legit = legitimate_call_set(collection.traces,
                                         analysis::CallFilter::kSyscalls);
  const auto attacks =
      build_attack_traces(suite, proftpd_backdoor_payloads(), 10);
  double total = 0.0;
  for (const auto& attack : attacks) {
    const double fraction = abnormal_context_fraction(
        attack, legit, analysis::CallFilter::kSyscalls);
    EXPECT_GE(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
    total += fraction;
  }
  // The paper reports 30-90% abnormal-context calls in exploit traces.
  const double mean = total / static_cast<double>(attacks.size());
  EXPECT_GT(mean, 0.3);
}

}  // namespace
}  // namespace cmarkov::attack
