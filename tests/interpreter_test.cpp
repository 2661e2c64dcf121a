// Unit tests for the CFG interpreter: arithmetic semantics, control flow,
// call/return plumbing, input streams, trace emission and guard rails.
#include <gtest/gtest.h>

#include "src/cfg/cfg_builder.hpp"
#include "src/ir/module.hpp"
#include "src/trace/interpreter.hpp"

namespace cmarkov::trace {
namespace {

/// Environment that returns a fixed value for every external call.
class FixedEnvironment final : public ExternalEnvironment {
 public:
  explicit FixedEnvironment(std::int64_t value) : value_(value) {}
  std::int64_t on_external_call(ir::CallKind, const std::string&,
                                std::span<const std::int64_t>) override {
    return value_;
  }

 private:
  std::int64_t value_;
};

/// Environment recording call arguments.
class RecordingEnvironment final : public ExternalEnvironment {
 public:
  std::int64_t on_external_call(ir::CallKind, const std::string&,
                                std::span<const std::int64_t> args) override {
    last_args.assign(args.begin(), args.end());
    return 0;
  }
  std::vector<std::int64_t> last_args;
};

RunResult run(const char* source, std::vector<std::int64_t> inputs = {},
              std::int64_t external_value = 0) {
  const auto module =
      cfg::build_module_cfg(ir::ProgramModule::from_source("t", source));
  const Interpreter interpreter(module);
  FixedEnvironment environment(external_value);
  return interpreter.run(inputs, environment);
}

TEST(InterpreterTest, ReturnsExitValue) {
  const RunResult result = run("fn main() { return 41 + 1; }");
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.exit_value, 42);
}

TEST(InterpreterTest, ArithmeticSemantics) {
  const RunResult result =
      run("fn main() { return 7 * 3 - 10 / 2 + 9 % 4; }");
  EXPECT_EQ(result.exit_value, 21 - 5 + 1);
}

TEST(InterpreterTest, DivisionAndModuloByZeroYieldZero) {
  EXPECT_EQ(run("fn main() { return 5 / 0; }").exit_value, 0);
  EXPECT_EQ(run("fn main() { return 5 % 0; }").exit_value, 0);
}

TEST(InterpreterTest, ComparisonAndLogicalOperators) {
  EXPECT_EQ(run("fn main() { return 2 < 3; }").exit_value, 1);
  EXPECT_EQ(run("fn main() { return 3 <= 2; }").exit_value, 0);
  EXPECT_EQ(run("fn main() { return 5 == 5; }").exit_value, 1);
  EXPECT_EQ(run("fn main() { return 5 != 5; }").exit_value, 0);
  EXPECT_EQ(run("fn main() { return 1 && 7; }").exit_value, 1);
  EXPECT_EQ(run("fn main() { return 0 || 0; }").exit_value, 0);
  EXPECT_EQ(run("fn main() { return !3; }").exit_value, 0);
  EXPECT_EQ(run("fn main() { return - (2 + 3); }").exit_value, -5);
}

TEST(InterpreterTest, BranchFollowsCondition) {
  const char* source = R"(
fn main() {
  if (input() > 5) { return 100; } else { return 200; }
}
)";
  EXPECT_EQ(run(source, {9}).exit_value, 100);
  EXPECT_EQ(run(source, {3}).exit_value, 200);
}

TEST(InterpreterTest, WhileLoopIterates) {
  const RunResult result = run(R"(
fn main() {
  var n = input();
  var total = 0;
  while (n > 0) {
    total = total + n;
    n = n - 1;
  }
  return total;
}
)",
                               {5});
  EXPECT_EQ(result.exit_value, 15);
}

TEST(InterpreterTest, FunctionCallsPassArgsAndReturnValues) {
  const RunResult result = run(R"(
fn add(a, b) { return a + b; }
fn twice(x) { return add(x, x); }
fn main() { return twice(21); }
)");
  EXPECT_EQ(result.exit_value, 42);
}

TEST(InterpreterTest, RecursionWorks) {
  const RunResult result = run(R"(
fn fact(n) {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
fn main() { return fact(6); }
)");
  EXPECT_EQ(result.exit_value, 720);
}

TEST(InterpreterTest, InputStreamExhaustionYieldsDefault) {
  const RunResult result = run(R"(
fn main() { return input() + input() + input(); }
)",
                               {10, 20});
  EXPECT_EQ(result.exit_value, 30);  // third input() -> 0
}

TEST(InterpreterTest, ExternalCallsEmitEventsInOrder) {
  const RunResult result = run(R"(
fn main() {
  sys("open");
  lib("malloc");
  sys("close");
}
)");
  ASSERT_EQ(result.trace.events.size(), 3u);
  EXPECT_EQ(result.trace.events[0].name, "open");
  EXPECT_EQ(result.trace.events[0].kind, ir::CallKind::kSyscall);
  EXPECT_EQ(result.trace.events[1].name, "malloc");
  EXPECT_EQ(result.trace.events[1].kind, ir::CallKind::kLibcall);
  EXPECT_EQ(result.trace.events[2].name, "close");
  // Events carry distinct site addresses.
  EXPECT_NE(result.trace.events[0].site_address,
            result.trace.events[2].site_address);
}

TEST(InterpreterTest, ExternalCallResultsFlowIntoProgram) {
  const RunResult result = run("fn main() { return sys(\"read\") * 2; }", {},
                               /*external_value=*/21);
  EXPECT_EQ(result.exit_value, 42);
}

TEST(InterpreterTest, ExternalCallArgumentsAreEvaluated) {
  const auto module = cfg::build_module_cfg(ir::ProgramModule::from_source(
      "t", "fn main() { sys(\"write\", 1 + 2, 10); }"));
  const Interpreter interpreter(module);
  RecordingEnvironment environment;
  interpreter.run({}, environment);
  EXPECT_EQ(environment.last_args,
            (std::vector<std::int64_t>{3, 10}));
}

TEST(InterpreterTest, StepLimitGuardsInfiniteLoops) {
  const RunResult result = run("fn main() { while (1) { } }");
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.hit_step_limit);
  EXPECT_EQ(result.steps, kMaxInterpreterSteps + 1);
}

TEST(InterpreterTest, DepthLimitTurnsCallsIntoZero) {
  // Each frame returns the deepest n reached: the call made from
  // stack depth kMaxCallDepth (main plus down(1..255)) yields 0.
  const RunResult result = run(R"(
fn down(n) {
  var r = down(n + 1);
  if (r == 0) { return n; }
  return r;
}
fn main() { return down(1); }
)");
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.hit_depth_limit);
  EXPECT_EQ(result.exit_value,
            static_cast<std::int64_t>(kMaxCallDepth) - 1);
}

TEST(InterpreterTest, SeededEnvironmentIsDeterministic) {
  const auto module = cfg::build_module_cfg(ir::ProgramModule::from_source(
      "t", "fn main() { return sys(\"a\") + sys(\"b\") * 100; }"));
  const Interpreter interpreter(module);
  SeededEnvironment env_a(123);
  SeededEnvironment env_b(123);
  EXPECT_EQ(interpreter.run({}, env_a).exit_value,
            interpreter.run({}, env_b).exit_value);
}

TEST(InterpreterTest, VarWithoutInitializerIsZero) {
  EXPECT_EQ(run("fn main() { var x; return x; }").exit_value, 0);
}

}  // namespace
}  // namespace cmarkov::trace
