// Property-based tests: invariants checked over randomized inputs and
// parameterized sweeps (TEST_P), per the evaluation-protocol invariants the
// paper's pipeline relies on.
#include <gtest/gtest.h>

#include <cmath>

#include "src/analysis/aggregation.hpp"
#include "src/cfg/cfg_builder.hpp"
#include "src/hmm/trainer.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/hmm/random_init.hpp"
#include "src/hmm/viterbi.hpp"
#include "src/ir/lexer.hpp"
#include "src/ir/module.hpp"
#include "src/ir/parser.hpp"
#include "src/ir/sema.hpp"
#include "src/trace/interpreter.hpp"
#include "src/trace/symbolizer.hpp"
#include "src/util/rng.hpp"

namespace cmarkov {
namespace {

/// Generates a random but well-formed MiniC program: `fn_count` leaf/inner
/// functions plus main, with input-driven branching and loops.
std::string random_program(Rng& rng, std::size_t fn_count) {
  std::string source;
  std::vector<std::string> defined;
  for (std::size_t f = 0; f < fn_count; ++f) {
    const std::string name = "f" + std::to_string(f);
    source += "fn " + name + "() {\n";
    const std::size_t stmts = 1 + rng.index(4);
    for (std::size_t s = 0; s < stmts; ++s) {
      switch (rng.index(5)) {
        case 0:
          source += "  sys(\"s" + std::to_string(rng.index(6)) + "\");\n";
          break;
        case 1:
          source += "  lib(\"l" + std::to_string(rng.index(6)) + "\");\n";
          break;
        case 2:
          if (!defined.empty()) {
            source += "  " + rng.pick(defined) + "();\n";
          } else {
            source += "  sys(\"s0\");\n";
          }
          break;
        case 3:
          source += "  if (input() % 2 == 0) { sys(\"s" +
                    std::to_string(rng.index(6)) + "\"); }\n";
          break;
        default:
          source +=
              "  var n" + std::to_string(s) + " = input() % 4;\n  while (n" +
              std::to_string(s) + " > 0) { lib(\"l" +
              std::to_string(rng.index(6)) + "\"); n" + std::to_string(s) +
              " = n" + std::to_string(s) + " - 1; }\n";
          break;
      }
    }
    source += "}\n";
    defined.push_back(name);
  }
  source += "fn main() {\n";
  for (const auto& name : defined) source += "  " + name + "();\n";
  source += "}\n";
  return source;
}

class RandomProgramProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramProperty, EntryRowOfAggregatedMatrixIsStochastic) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const std::string source = random_program(rng, 2 + rng.index(5));
  const auto module = cfg::build_module_cfg(
      ir::ProgramModule::from_source("rand", source));
  const auto graph = cfg::CallGraph::build(module);
  const analysis::UniformBranchHeuristic heuristic;
  const auto aggregated =
      analysis::aggregate_program(module, graph, heuristic);
  const auto& m = aggregated.program_matrix;

  // Property: probability mass leaving ENTRY is exactly 1 (every execution
  // has a first observable event or exits silently).
  const std::size_t entry =
      m.index_of(analysis::CallSymbol::entry("main"));
  EXPECT_NEAR(m.row_sum(entry), 1.0, 1e-9) << source;
  // Property: no cell is negative and no internal symbols remain.
  for (std::size_t r = 0; r < m.size(); ++r) {
    EXPECT_NE(m.symbol(r).kind, analysis::CallSymbol::Kind::kInternal);
    for (const auto& [c, p] : m.row(r)) {
      (void)c;
      EXPECT_GE(p, -1e-12);
    }
  }
}

TEST_P(RandomProgramProperty, InterpreterTracesStayInsideStaticAlphabet) {
  // Property: every (call, caller) pair observed dynamically must exist in
  // the context-sensitive static matrix (static analysis over-approximates
  // dynamic behaviour up to loops, which add no new symbols).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const std::string source = random_program(rng, 2 + rng.index(4));
  const auto program = ir::ProgramModule::from_source("rand", source);
  const auto module = cfg::build_module_cfg(program);
  const auto graph = cfg::CallGraph::build(module);
  const analysis::UniformBranchHeuristic heuristic;
  const auto aggregated =
      analysis::aggregate_program(module, graph, heuristic);

  const trace::Interpreter interpreter(module);
  const trace::Symbolizer symbolizer(module);
  for (int run = 0; run < 5; ++run) {
    std::vector<std::int64_t> inputs;
    for (int i = 0; i < 32; ++i) inputs.push_back(rng.uniform_int(0, 99));
    trace::SeededEnvironment environment(rng.engine()());
    auto result = interpreter.run(inputs, environment);
    symbolizer.symbolize(result.trace);
    for (const auto& event : result.trace.events) {
      const auto symbol = analysis::CallSymbol::external(
          event.kind, event.name, event.caller);
      EXPECT_TRUE(aggregated.program_matrix.contains(symbol))
          << symbol.to_string() << "\n"
          << source;
    }
  }
}

TEST_P(RandomProgramProperty, InterpreterIsDeterministic) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863);
  const std::string source = random_program(rng, 3);
  const auto module = cfg::build_module_cfg(
      ir::ProgramModule::from_source("rand", source));
  const trace::Interpreter interpreter(module);
  std::vector<std::int64_t> inputs;
  for (int i = 0; i < 24; ++i) inputs.push_back(rng.uniform_int(0, 99));
  const std::uint64_t env_seed = rng.engine()();

  trace::SeededEnvironment env_a(env_seed);
  trace::SeededEnvironment env_b(env_seed);
  const auto a = interpreter.run(inputs, env_a);
  const auto b = interpreter.run(inputs, env_b);
  EXPECT_EQ(a.exit_value, b.exit_value);
  ASSERT_EQ(a.trace.events.size(), b.trace.events.size());
  for (std::size_t i = 0; i < a.trace.events.size(); ++i) {
    EXPECT_EQ(a.trace.events[i].name, b.trace.events[i].name);
    EXPECT_EQ(a.trace.events[i].site_address, b.trace.events[i].site_address);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperty,
                         ::testing::Range(0, 12));

class RandomHmmProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomHmmProperty, ForwardProbabilitiesSumToOneOverAllSequences) {
  // Property: sum of P(obs) over every possible sequence of length L is 1.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const std::size_t states = 2 + rng.index(3);
  const std::size_t symbols = 2 + rng.index(2);
  const hmm::Hmm model =
      hmm::randomly_initialized_hmm(states, symbols, rng);

  const std::size_t length = 3;
  std::vector<std::size_t> seq(length, 0);
  double total = 0.0;
  while (true) {
    total += std::exp(hmm::sequence_log_likelihood(model, seq));
    std::size_t pos = 0;
    while (pos < length && ++seq[pos] == symbols) {
      seq[pos] = 0;
      ++pos;
    }
    if (pos == length) break;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(RandomHmmProperty, BaumWelchNeverDecreasesDataLikelihood) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 13);
  const std::size_t states = 2 + rng.index(2);
  const std::size_t symbols = 2 + rng.index(3);
  hmm::Hmm model = hmm::randomly_initialized_hmm(states, symbols, rng);

  std::vector<hmm::ObservationSeq> data;
  for (int s = 0; s < 12; ++s) {
    hmm::ObservationSeq seq;
    for (int t = 0; t < 10; ++t) seq.push_back(rng.index(symbols));
    data.push_back(std::move(seq));
  }
  hmm::TrainingOptions options;
  options.max_iterations = 6;
  options.min_improvement = -1.0;
  options.patience = 100;
  hmm::Trainer trainer(model, options);
  const auto report = trainer.fit(data);
  for (std::size_t i = 1; i < report.train_log_likelihood.size(); ++i) {
    EXPECT_GE(report.train_log_likelihood[i],
              report.train_log_likelihood[i - 1] - 1e-6);
  }
  EXPECT_NO_THROW(trainer.model().validate(1e-6));
}

TEST_P(RandomHmmProperty, ViterbiNeverBeatsForward) {
  // Property: the best single path's probability cannot exceed the total
  // probability over all paths.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 733 + 3);
  const hmm::Hmm model = hmm::randomly_initialized_hmm(3, 3, rng);
  for (int trial = 0; trial < 5; ++trial) {
    hmm::ObservationSeq seq;
    for (int t = 0; t < 8; ++t) seq.push_back(rng.index(3));
    const double forward = hmm::sequence_log_likelihood(model, seq);
    const double viterbi = hmm::viterbi_decode(model, seq).log_probability;
    EXPECT_LE(viterbi, forward + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHmmProperty, ::testing::Range(0, 10));

class FuzzProperty : public ::testing::TestWithParam<int> {};

TEST_P(FuzzProperty, ParserNeverCrashesOnMutatedSource) {
  // Property: arbitrary mutations of valid source either parse or raise
  // SyntaxError/SemaError — never crash or hang.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1);
  std::string source = random_program(rng, 3);
  const std::size_t mutations = 1 + rng.index(8);
  static const char kNoise[] = "(){};=+-*/%<>!&|\"abc123 \n";
  for (std::size_t m = 0; m < mutations; ++m) {
    const std::size_t pos = rng.index(source.size());
    switch (rng.index(3)) {
      case 0:  // replace
        source[pos] = kNoise[rng.index(sizeof(kNoise) - 2)];
        break;
      case 1:  // delete
        source.erase(pos, 1 + rng.index(4));
        break;
      default:  // insert
        source.insert(pos, 1, kNoise[rng.index(sizeof(kNoise) - 2)]);
        break;
    }
  }
  try {
    const auto module = ir::ProgramModule::from_source("fuzz", source);
    // Still valid after mutation: the whole pipeline must cope.
    const auto cfg = cfg::build_module_cfg(module);
    EXPECT_GT(cfg.functions.size(), 0u);
  } catch (const ir::SyntaxError&) {
  } catch (const ir::SemaError&) {
  }
}

TEST_P(FuzzProperty, RandomSourceRoundTripsThroughPrettyPrinter) {
  // Property: parse -> to_source -> parse is a fixed point.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503 + 11);
  const std::string source = random_program(rng, 2 + rng.index(4));
  const ir::Program first = ir::parse_program(source);
  const std::string printed = ir::to_source(first);
  const ir::Program second = ir::parse_program(printed);
  EXPECT_EQ(ir::to_source(second), printed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProperty, ::testing::Range(0, 15));

}  // namespace
}  // namespace cmarkov
