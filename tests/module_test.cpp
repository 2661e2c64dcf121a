// Tests for ProgramModule construction paths and program statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "src/ir/lexer.hpp"
#include "src/ir/module.hpp"
#include "src/ir/parser.hpp"
#include "src/ir/sema.hpp"

namespace cmarkov::ir {
namespace {

constexpr const char* kSource = R"(
fn helper(a) {
  if (a > 0) {
    sys("read");
  }
  return a;
}
fn main() {
  var x = input();
  while (x > 0) {
    lib("malloc");
    helper(x);
    x = x - 1;
  }
  sys("exit_group");
}
)";

TEST(ModuleTest, FromSourceParsesAndValidates) {
  const ProgramModule module = ProgramModule::from_source("demo", kSource);
  EXPECT_EQ(module.name(), "demo");
  EXPECT_EQ(module.entry_point(), "main");
  const auto defines = [&](std::string_view name) {
    return std::ranges::any_of(module.program().functions,
                               [&](const auto& fn) { return fn.name == name; });
  };
  EXPECT_TRUE(defines("helper"));
  EXPECT_FALSE(defines("missing"));
}

TEST(ModuleTest, StatsCountTheRightThings) {
  const ProgramModule module = ProgramModule::from_source("demo", kSource);
  const ProgramStats& stats = module.stats();
  EXPECT_EQ(stats.functions, 2u);
  EXPECT_EQ(stats.syscall_sites, 2u);   // read, exit_group
  EXPECT_EQ(stats.libcall_sites, 1u);   // malloc
  EXPECT_EQ(stats.external_call_sites, 3u);
  EXPECT_EQ(stats.internal_call_sites, 1u);  // helper(x)
  EXPECT_EQ(stats.branch_statements, 2u);    // if + while
  EXPECT_GT(stats.statements, 5u);
  EXPECT_GT(stats.source_lines, 10u);
}

TEST(ModuleTest, FromSourceRejectsSyntaxAndSemaErrors) {
  EXPECT_THROW(ProgramModule::from_source("bad", "fn main( {"), SyntaxError);
  EXPECT_THROW(ProgramModule::from_source("bad", "fn main() { x = 1; }"),
               SemaError);
  EXPECT_THROW(ProgramModule::from_source("bad", "fn notmain() { }"),
               SemaError);
}

TEST(ModuleTest, CustomEntryPoint) {
  const ProgramModule module =
      ProgramModule::from_source("svc", "fn serve() { sys(\"accept\"); }",
                                 "serve");
  EXPECT_EQ(module.entry_point(), "serve");
}

TEST(ModuleTest, FromAstGeneratesSource) {
  Program program = parse_program(kSource);
  const ProgramModule module =
      ProgramModule::from_ast("ast-built", std::move(program));
  EXPECT_FALSE(module.source().empty());
  // The generated source reparses to the same statistics.
  const ProgramModule reparsed =
      ProgramModule::from_source("reparsed", module.source());
  EXPECT_EQ(reparsed.stats().statements, module.stats().statements);
  EXPECT_EQ(reparsed.stats().external_call_sites,
            module.stats().external_call_sites);
}

TEST(ModuleTest, SourceLinesSkipBlanks) {
  const ProgramModule module = ProgramModule::from_source(
      "spaced", "fn main() {\n\n\n  sys(\"a\");\n\n}\n");
  EXPECT_EQ(module.stats().source_lines, 3u);  // fn, sys, closing brace
}

TEST(ComputeStatsTest, CountsNestedExpressions) {
  const Program program = parse_program(
      "fn main() { var x = sys(\"a\") + lib(\"b\", sys(\"c\")); }");
  const ProgramStats stats = compute_stats(program);
  EXPECT_EQ(stats.syscall_sites, 2u);
  EXPECT_EQ(stats.libcall_sites, 1u);
}

}  // namespace
}  // namespace cmarkov::ir
