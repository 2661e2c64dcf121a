// Unit tests for the static HMM initializer (the STILO/CMarkov construction)
// and the observation alphabet.
#include <gtest/gtest.h>

#include "src/analysis/aggregation.hpp"
#include "src/cfg/cfg_builder.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/hmm/static_init.hpp"
#include "src/ir/module.hpp"
#include "src/reduction/cluster_calls.hpp"

namespace cmarkov::hmm {
namespace {

reduction::ReducedModel reduced_of(const char* source,
                                   bool context_sensitive = true) {
  const auto module =
      cfg::build_module_cfg(ir::ProgramModule::from_source("t", source));
  const auto graph = cfg::CallGraph::build(module);
  static const analysis::UniformBranchHeuristic heuristic;
  auto aggregated = analysis::aggregate_program(module, graph, heuristic);
  auto matrix = context_sensitive
                    ? std::move(aggregated.program_matrix)
                    : analysis::project_context_insensitive(
                          aggregated.program_matrix);
  return reduction::reconstruct_reduced_model(
      matrix, reduction::identity_clustering(matrix));
}

TEST(AlphabetTest, InternAndLookup) {
  Alphabet alphabet;
  const auto a = alphabet.intern("read@f");
  const auto b = alphabet.intern("write@f");
  EXPECT_EQ(alphabet.intern("read@f"), a);
  EXPECT_EQ(alphabet.size(), 2u);
  EXPECT_EQ(alphabet.name(a), "read@f");
  EXPECT_EQ(alphabet.find("write@f"), std::optional<std::size_t>(b));
  EXPECT_EQ(alphabet.find("missing"), std::nullopt);
  EXPECT_THROW(alphabet.name(99), std::out_of_range);
}

TEST(EncodingTest, ContextSensitiveVsFree) {
  EXPECT_EQ(encode_observation("read", "f",
                               ObservationEncoding::kContextSensitive),
            "read@f");
  EXPECT_EQ(encode_observation("read", "f",
                               ObservationEncoding::kContextFree),
            "read");
  EXPECT_EQ(encode_observation("read", "",
                               ObservationEncoding::kContextSensitive),
            "read");
}

TEST(EncodingTest, SymbolOverloadRequiresExternal) {
  const auto sym =
      analysis::CallSymbol::external(ir::CallKind::kSyscall, "read", "f");
  EXPECT_EQ(encode_observation(sym, ObservationEncoding::kContextSensitive),
            "read@f");
  EXPECT_THROW(encode_observation(analysis::CallSymbol::entry("f"),
                                  ObservationEncoding::kContextSensitive),
               std::invalid_argument);
}

TEST(StaticInitTest, ChainProgramYieldsNearDeterministicModel) {
  const auto reduced = reduced_of(R"(
fn main() { sys("a"); sys("b"); sys("c"); }
)");
  Alphabet alphabet;
  const StaticInitResult result = statically_initialized_hmm(
      reduced, ObservationEncoding::kContextSensitive, alphabet);
  const Hmm& model = result.model;
  EXPECT_EQ(model.num_states(), 3u);
  EXPECT_NO_THROW(model.validate());

  // The state for "a" starts with pi ~ 1 and transitions to "b".
  const auto a_obs = alphabet.find("a@main");
  ASSERT_TRUE(a_obs.has_value());
  std::size_t a_state = 0;
  double best = -1.0;
  for (std::size_t s = 0; s < 3; ++s) {
    if (model.emission(s, *a_obs) > best) {
      best = model.emission(s, *a_obs);
      a_state = s;
    }
  }
  EXPECT_GT(model.initial[a_state], 0.9);
  EXPECT_GT(best, 0.9);
}

TEST(StaticInitTest, LegitimateSequenceOutscoresShuffled) {
  const auto reduced = reduced_of(R"(
fn main() {
  sys("open");
  sys("read");
  sys("write");
  sys("close");
}
)");
  Alphabet alphabet;
  const StaticInitResult result = statically_initialized_hmm(
      reduced, ObservationEncoding::kContextSensitive, alphabet);
  auto id = [&](const char* name) {
    return alphabet.find(std::string(name) + "@main").value();
  };
  const ObservationSeq good = {id("open"), id("read"), id("write"),
                               id("close")};
  const ObservationSeq bad = {id("close"), id("write"), id("read"),
                              id("open")};
  EXPECT_GT(sequence_log_likelihood(result.model, good),
            sequence_log_likelihood(result.model, bad) + 5.0);
}

TEST(StaticInitTest, AlphabetUnionCoversPreInternedTraceSymbols) {
  const auto reduced = reduced_of("fn main() { sys(\"a\"); }");
  Alphabet alphabet;
  alphabet.intern("dynamic_only@main");  // a symbol only traces produced
  const StaticInitResult result = statically_initialized_hmm(
      reduced, ObservationEncoding::kContextSensitive, alphabet);
  EXPECT_EQ(result.model.num_symbols(), alphabet.size());
  // The dynamic-only symbol is emittable (smoothing floor), not zero.
  const auto id = alphabet.find("dynamic_only@main").value();
  EXPECT_GT(result.model.emission(0, id), 0.0);
  EXPECT_LT(result.model.emission(0, id), 0.01);
}

TEST(StaticInitTest, ContextFreeEncodingMergesContexts) {
  const auto reduced = reduced_of(R"(
fn f() { sys("read"); }
fn g() { sys("read"); }
fn main() { f(); g(); }
)",
                                  /*context_sensitive=*/false);
  Alphabet alphabet;
  const StaticInitResult result = statically_initialized_hmm(
      reduced, ObservationEncoding::kContextFree, alphabet);
  // One merged "read" observation.
  EXPECT_TRUE(alphabet.find("read").has_value());
  EXPECT_FALSE(alphabet.find("read@f").has_value());
  EXPECT_EQ(result.model.num_states(), 1u);
}

TEST(StaticInitTest, ClusteredStatesEmitAllMembers) {
  const auto module = cfg::build_module_cfg(ir::ProgramModule::from_source(
      "t", R"(
fn main() {
  if (input()) { sys("a1"); } else { sys("a2"); }
  sys("end");
}
)"));
  const auto graph = cfg::CallGraph::build(module);
  static const analysis::UniformBranchHeuristic heuristic;
  auto aggregated = analysis::aggregate_program(module, graph, heuristic);
  Rng rng(7);
  reduction::ClusteringOptions clustering;
  clustering.min_calls_for_reduction = 0;
  clustering.k = 2;
  const auto clusters = reduction::cluster_calls(aggregated.program_matrix,
                                                 rng, clustering);
  const auto reduced = reduction::reconstruct_reduced_model(
      aggregated.program_matrix, clusters);

  Alphabet alphabet;
  const StaticInitResult result = statically_initialized_hmm(
      reduced, ObservationEncoding::kContextSensitive, alphabet);
  EXPECT_EQ(result.model.num_states(), 2u);
  // Some state emits both a1@main and a2@main with substantial mass.
  const auto a1 = alphabet.find("a1@main").value();
  const auto a2 = alphabet.find("a2@main").value();
  bool merged_state_found = false;
  for (std::size_t s = 0; s < 2; ++s) {
    if (result.model.emission(s, a1) > 0.25 &&
        result.model.emission(s, a2) > 0.25) {
      merged_state_found = true;
    }
  }
  EXPECT_TRUE(merged_state_found);
}

TEST(StaticInitTest, StateLabelsDescribeMembers) {
  const auto reduced = reduced_of("fn main() { sys(\"a\"); sys(\"b\"); }");
  Alphabet alphabet;
  const StaticInitResult result = statically_initialized_hmm(
      reduced, ObservationEncoding::kContextSensitive, alphabet);
  ASSERT_EQ(result.state_labels.size(), 2u);
  EXPECT_TRUE(result.state_labels[0] == "a@main" ||
              result.state_labels[1] == "a@main");
}

TEST(StaticInitTest, RejectsEmptyModel) {
  const auto reduced = reduced_of("fn main() { var x = 1; }");
  Alphabet alphabet;
  EXPECT_THROW(
      statically_initialized_hmm(
          reduced, ObservationEncoding::kContextSensitive, alphabet),
      std::invalid_argument);
}

}  // namespace
}  // namespace cmarkov::hmm
