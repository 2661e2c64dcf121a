// Unit tests for AST -> CFG lowering: block structure, call splitting,
// terminators, address assignment, register wiring.
#include <gtest/gtest.h>

#include "src/cfg/cfg_builder.hpp"
#include "src/ir/module.hpp"

namespace cmarkov::cfg {
namespace {

ModuleCfg lower(const char* source) {
  return build_module_cfg(ir::ProgramModule::from_source("test", source));
}

std::size_t count_external_calls(const FunctionCfg& fn) {
  std::size_t count = 0;
  for (const auto& block : fn.blocks) {
    if (block.external_call() != nullptr) ++count;
  }
  return count;
}

TEST(CfgBuilderTest, StraightLineSingleReturnBlock) {
  const ModuleCfg module = lower("fn main() { var x = 1 + 2; }");
  const FunctionCfg& fn = module.require("main");
  // Straight-line code without calls stays in the entry block.
  const auto& entry = fn.block(fn.entry);
  EXPECT_TRUE(std::holds_alternative<ReturnTerm>(entry.terminator));
  EXPECT_EQ(entry.external_call(), nullptr);
  EXPECT_EQ(entry.internal_call(), nullptr);
}

TEST(CfgBuilderTest, CallSplitsBlock) {
  const ModuleCfg module =
      lower("fn main() { sys(\"read\"); sys(\"write\"); }");
  const FunctionCfg& fn = module.require("main");
  EXPECT_EQ(count_external_calls(fn), 2u);
  // Each call block holds at most one call and ends in a jump.
  for (const auto& block : fn.blocks) {
    std::size_t calls = 0;
    for (const auto& instr : block.instructions) {
      if (std::holds_alternative<ExternalCallInstr>(instr) ||
          std::holds_alternative<InternalCallInstr>(instr)) {
        ++calls;
      }
    }
    EXPECT_LE(calls, 1u);
    if (calls == 1) {
      EXPECT_TRUE(std::holds_alternative<JumpTerm>(block.terminator));
    }
  }
}

TEST(CfgBuilderTest, IfElseProducesDiamond) {
  const ModuleCfg module = lower(R"(
fn main() {
  var x = input();
  if (x > 0) { x = 1; } else { x = 2; }
  x = 3;
}
)");
  const FunctionCfg& fn = module.require("main");
  const auto& entry = fn.block(fn.entry);
  const auto* branch = std::get_if<BranchTerm>(&entry.terminator);
  ASSERT_NE(branch, nullptr);
  EXPECT_NE(branch->if_true, branch->if_false);
  // Both arms jump to the same merge block.
  const auto& then_block = fn.block(branch->if_true);
  const auto& else_block = fn.block(branch->if_false);
  const auto* then_jump = std::get_if<JumpTerm>(&then_block.terminator);
  const auto* else_jump = std::get_if<JumpTerm>(&else_block.terminator);
  ASSERT_NE(then_jump, nullptr);
  ASSERT_NE(else_jump, nullptr);
  EXPECT_EQ(then_jump->target, else_jump->target);
}

TEST(CfgBuilderTest, WhileProducesBackEdge) {
  const ModuleCfg module = lower(R"(
fn main() {
  var n = input();
  while (n > 0) { n = n - 1; }
}
)");
  const FunctionCfg& fn = module.require("main");
  const auto backs = fn.back_edges();
  ASSERT_EQ(backs.size(), 1u);
  // The back edge returns to the condition-evaluation (header) block.
  const auto& header = fn.block(backs[0].second);
  EXPECT_TRUE(std::holds_alternative<BranchTerm>(header.terminator));
}

TEST(CfgBuilderTest, NestedLoopsProduceTwoBackEdges) {
  const ModuleCfg module = lower(R"(
fn main() {
  var i = input();
  while (i > 0) {
    var j = input();
    while (j > 0) { j = j - 1; }
    i = i - 1;
  }
}
)");
  EXPECT_EQ(module.require("main").back_edges().size(), 2u);
}

TEST(CfgBuilderTest, CodeAfterReturnIsUnreachable) {
  const ModuleCfg module = lower("fn main() { return; sys(\"never\"); }");
  const FunctionCfg& fn = module.require("main");
  // The unreachable call exists but is not in the reverse post order.
  EXPECT_EQ(count_external_calls(fn), 1u);
  const auto rpo = fn.reverse_post_order();
  for (BlockId id : rpo) {
    EXPECT_EQ(fn.block(id).external_call(), nullptr);
  }
}

TEST(CfgBuilderTest, FunctionsGetDisjointAddressRanges) {
  const ModuleCfg module = lower(R"(
fn a() { sys("x"); }
fn b() { sys("y"); }
fn main() { a(); b(); }
)");
  const FunctionCfg& a = module.require("a");
  const FunctionCfg& b = module.require("b");
  EXPECT_LT(a.base_address, a.end_address);
  EXPECT_LE(a.end_address, b.base_address);
  EXPECT_LT(b.base_address, b.end_address);
}

TEST(CfgBuilderTest, CallAddressesLieWithinTheirFunction) {
  const ModuleCfg module = lower(R"(
fn helper() { sys("read"); lib("malloc"); }
fn main() { helper(); }
)");
  const FunctionCfg& helper = module.require("helper");
  for (const auto& block : helper.blocks) {
    if (const auto* call = block.external_call()) {
      EXPECT_GE(call->address, helper.base_address);
      EXPECT_LT(call->address, helper.end_address);
    }
  }
}

TEST(CfgBuilderTest, SiteIdsAreUniqueAcrossModule) {
  const ModuleCfg module = lower(R"(
fn f() { sys("a"); sys("a"); }
fn main() { f(); sys("a"); }
)");
  std::set<std::uint32_t> ids;
  std::size_t sites = 0;
  for (const auto& fn : module.functions) {
    for (const auto& block : fn.blocks) {
      if (const auto* call = block.external_call()) {
        ids.insert(call->site_id);
        ++sites;
      }
      if (const auto* call = block.internal_call()) {
        ids.insert(call->site_id);
        ++sites;
      }
    }
  }
  EXPECT_EQ(ids.size(), sites);
}

TEST(CfgBuilderTest, ParamsOccupyLeadingRegisters) {
  const ModuleCfg module =
      lower("fn f(a, b) { return a + b; } fn main() { f(1, 2); }");
  const FunctionCfg& f = module.require("f");
  EXPECT_EQ(f.params.size(), 2u);
  EXPECT_GE(f.num_registers, 2u);
}

TEST(CfgBuilderTest, CallInLoopConditionSplitsHeader) {
  const ModuleCfg module = lower(R"(
fn main() {
  while (sys("read") > 0) { lib("work"); }
}
)");
  const FunctionCfg& fn = module.require("main");
  // Loop still has a back edge and both calls exist.
  EXPECT_GE(fn.back_edges().size(), 1u);
  EXPECT_EQ(count_external_calls(fn), 2u);
}

TEST(CfgBuilderTest, SourceLinesCollected) {
  const ModuleCfg module = lower("fn main() {\n  var x = 1;\n  x = 2;\n}");
  const auto lines = module.require("main").source_lines();
  EXPECT_GE(lines.size(), 2u);
}

TEST(CfgBuilderTest, ReversePostOrderStartsAtEntry) {
  const ModuleCfg module = lower(R"(
fn main() {
  if (input()) { sys("a"); } else { sys("b"); }
  sys("c");
}
)");
  const FunctionCfg& fn = module.require("main");
  const auto rpo = fn.reverse_post_order();
  ASSERT_FALSE(rpo.empty());
  EXPECT_EQ(rpo.front(), fn.entry);
  // RPO visits every reachable block exactly once.
  std::set<BlockId> distinct(rpo.begin(), rpo.end());
  EXPECT_EQ(distinct.size(), rpo.size());
}

}  // namespace
}  // namespace cmarkov::cfg
