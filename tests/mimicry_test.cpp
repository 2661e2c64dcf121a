// Tests for the mimicry-attack probe (Section II-A attack model).
#include <gtest/gtest.h>

#include <cmath>

#include "src/attack/mimicry.hpp"
#include "src/hmm/trainer.hpp"
#include "src/trace/segmenter.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::attack {
namespace {

struct Fixture {
  workload::ProgramSuite suite = workload::make_proftpd_suite();
  workload::TraceCollection collection =
      workload::collect_traces(suite, 25, 3);

  eval::BuiltModel trained(eval::ModelKind kind) {
    eval::ModelBuildOptions options;
    options.filter = analysis::CallFilter::kSyscalls;
    Rng rng(7);
    eval::BuiltModel model =
        eval::build_model(kind, suite, collection.traces, options, rng);
    trace::SegmentSet set;
    for (const auto& trace : collection.traces) {
      set.add_trace(model.encode(trace));
    }
    auto segments = set.to_vector();
    if (segments.size() > 250) segments.resize(250);
    hmm::TrainingOptions training;
    training.max_iterations = 6;
    hmm::Trainer trainer(model.hmm(), training);
    trainer.fit(segments);
    model.set_hmm(trainer.model());
    return model;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(MimicryTest, UnknownGoalDefeatsTheAttack) {
  const auto model = fixture().trained(eval::ModelKind::kCMarkov);
  const MimicryResult result = craft_mimicry(
      model, {"execve@attacker_function"});
  EXPECT_FALSE(result.goal_embedded);
  EXPECT_TRUE(std::isinf(result.log_likelihood));
  ASSERT_EQ(result.unknown_goals.size(), 1u);
  EXPECT_EQ(result.unknown_goals[0], "execve@attacker_function");
}

TEST(MimicryTest, EmbedsKnownGoalsInOrder) {
  const auto model = fixture().trained(eval::ModelKind::kRegularBasic);
  // proftpd makes socket/connect/send in normal operation.
  const MimicryResult result =
      craft_mimicry(model, {"socket", "connect"});
  ASSERT_TRUE(result.goal_embedded);
  EXPECT_TRUE(std::isfinite(result.log_likelihood));
  EXPECT_EQ(result.segment.size(), 15u);
  const auto socket_id = model.alphabet.find("socket").value();
  const auto connect_id = model.alphabet.find("connect").value();
  const auto socket_pos =
      std::find(result.segment.begin(), result.segment.end(), socket_id);
  const auto connect_pos =
      std::find(socket_pos, result.segment.end(), connect_id);
  EXPECT_NE(socket_pos, result.segment.end());
  EXPECT_NE(connect_pos, result.segment.end());
}

TEST(MimicryTest, GoalsLongerThanSegmentAreImpossible) {
  const auto model = fixture().trained(eval::ModelKind::kRegularBasic);
  std::vector<std::string> goals(20, "socket");
  MimicryOptions options;
  options.segment_length = 15;
  const MimicryResult result = craft_mimicry(model, goals, options);
  EXPECT_FALSE(result.goal_embedded);
}

TEST(MimicryTest, MoreGoalsCannotIncreaseBestLikelihood) {
  const auto model = fixture().trained(eval::ModelKind::kRegularBasic);
  const double one = craft_mimicry(model, {"dup2"}).log_likelihood;
  const double three =
      craft_mimicry(model, {"dup2", "dup2", "execve"}).log_likelihood;
  EXPECT_GE(one, three - 1e-9);
}

TEST(MimicryTest, ContextModelLeavesLessMimicryHeadroom) {
  // The paper's claim: quantitative scoring + context sensitivity makes
  // effective mimicry hard. The attacker wants a backdoor-ish goal chain;
  // compare the best achievable (per-call) likelihood under the basic model
  // vs the context model restricted to legitimate pairs.
  auto& f = fixture();
  const auto basic = f.trained(eval::ModelKind::kRegularBasic);
  const auto cmarkov = f.trained(eval::ModelKind::kCMarkov);

  const MimicryResult basic_attack =
      craft_mimicry(basic, {"socket", "connect", "dup2", "execve"});

  // Context attacker must pick legitimate contexts for each goal call; use
  // the ones observed in traces (spawn-like contexts do not exist for this
  // chain in proftpd's behaviour, so expect degradation or impossibility).
  const auto legit = legitimate_call_set(f.collection.traces,
                                         analysis::CallFilter::kSyscalls);
  auto context_goal = [&](const std::string& name) -> std::string {
    for (const auto& call : legit) {
      if (call.name == name) return name + "@" + call.caller;
    }
    return name + "@<none>";
  };
  const MimicryResult context_attack = craft_mimicry(
      cmarkov, {context_goal("socket"), context_goal("connect"),
                context_goal("dup2"), context_goal("execve")});

  if (!context_attack.goal_embedded) {
    // Strongest outcome: no legitimate-context embedding exists at all.
    SUCCEED();
    return;
  }
  // Otherwise the context model must make the best mimicry less likely
  // than the basic model does (normalized per symbol).
  EXPECT_LT(context_attack.log_likelihood, basic_attack.log_likelihood);
}

TEST(MimicryTest, PaddingPrefersLikelySymbols) {
  const auto model = fixture().trained(eval::ModelKind::kRegularBasic);
  const MimicryResult result = craft_mimicry(model, {"send"});
  ASSERT_TRUE(result.goal_embedded);
  // The crafted segment's likelihood should beat a naive segment that
  // repeats the goal everywhere.
  const auto send_id = model.alphabet.find("send").value();
  const hmm::ObservationSeq naive(15, send_id);
  EXPECT_GE(result.log_likelihood,
            model.score(naive) - 1e-9);
}

}  // namespace
}  // namespace cmarkov::attack
