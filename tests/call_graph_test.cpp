// Unit tests for call-graph construction, SCC condensation order, and
// reachability.
#include <gtest/gtest.h>

#include <map>

#include "src/cfg/call_graph.hpp"
#include "src/cfg/cfg_builder.hpp"
#include "src/cfg/dot_export.hpp"
#include "src/ir/module.hpp"

namespace cmarkov::cfg {
namespace {

CallGraph graph_of(const char* source) {
  const ModuleCfg module =
      build_module_cfg(ir::ProgramModule::from_source("test", source));
  return CallGraph::build(module);
}

TEST(CallGraphTest, EdgesAndSiteCounts) {
  const CallGraph graph = graph_of(R"(
fn leaf() { sys("x"); }
fn mid() { leaf(); leaf(); }
fn main() { mid(); leaf(); }
)");
  EXPECT_TRUE(graph.has_edge("main", "mid"));
  EXPECT_TRUE(graph.has_edge("main", "leaf"));
  EXPECT_TRUE(graph.has_edge("mid", "leaf"));
  EXPECT_FALSE(graph.has_edge("leaf", "mid"));

  std::map<std::pair<std::string, std::string>, std::size_t> counts;
  for (const auto& edge : graph.edges()) {
    counts[{edge.caller, edge.callee}] = edge.site_count;
  }
  EXPECT_EQ((counts[{"mid", "leaf"}]), 2u);
  EXPECT_EQ((counts[{"main", "leaf"}]), 1u);
}

TEST(CallGraphTest, Callees) {
  const CallGraph graph = graph_of(R"(
fn a() { }
fn b() { a(); }
fn main() { a(); b(); }
)");
  EXPECT_EQ(graph.callees("main"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(graph.callees("a").empty());
  EXPECT_EQ(graph.callees("b"), (std::vector<std::string>{"a"}));
}

TEST(CallGraphTest, SccOrderIsCalleesFirst) {
  const CallGraph graph = graph_of(R"(
fn c() { }
fn b() { c(); }
fn a() { b(); }
fn main() { a(); }
)");
  std::map<std::string, std::size_t> position;
  const auto& order = graph.scc_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const auto& fn : order[i]) position[fn] = i;
  }
  EXPECT_LT(position["c"], position["b"]);
  EXPECT_LT(position["b"], position["a"]);
  EXPECT_LT(position["a"], position["main"]);
}

TEST(CallGraphTest, MutualRecursionFormsOneScc) {
  const CallGraph graph = graph_of(R"(
fn even(n) { if (n == 0) { return 1; } return odd(n - 1); }
fn odd(n) { if (n == 0) { return 0; } return even(n - 1); }
fn main() { even(4); }
)");
  EXPECT_TRUE(graph.in_cycle_with("even", "odd"));
  EXPECT_TRUE(graph.in_cycle_with("even", "even"));
  EXPECT_FALSE(graph.in_cycle_with("main", "even"));
  // even/odd share an SCC that precedes main's.
  bool found_pair_scc = false;
  for (const auto& scc : graph.scc_order()) {
    if (scc.size() == 2) found_pair_scc = true;
  }
  EXPECT_TRUE(found_pair_scc);
}

TEST(CallGraphTest, SelfRecursionIsACycle) {
  const CallGraph graph = graph_of(R"(
fn f(n) { if (n > 0) { f(n - 1); } return n; }
fn main() { f(3); }
)");
  EXPECT_TRUE(graph.in_cycle_with("f", "f"));
  EXPECT_FALSE(graph.in_cycle_with("main", "main"));
}

TEST(CallGraphTest, ReachableFromEntry) {
  const CallGraph graph = graph_of(R"(
fn used() { }
fn unused() { }
fn main() { used(); }
)");
  const auto reachable = graph.reachable_from("main");
  EXPECT_TRUE(reachable.contains("main"));
  EXPECT_TRUE(reachable.contains("used"));
  EXPECT_FALSE(reachable.contains("unused"));
}

TEST(CallGraphTest, EveryFunctionAppearsInExactlyOneScc) {
  const CallGraph graph = graph_of(R"(
fn a() { b(); }
fn b() { a(); c(); }
fn c() { }
fn main() { a(); }
)");
  std::map<std::string, int> seen;
  for (const auto& scc : graph.scc_order()) {
    for (const auto& fn : scc) seen[fn] += 1;
  }
  EXPECT_EQ(seen.size(), 4u);
  for (const auto& [fn, count] : seen) {
    EXPECT_EQ(count, 1) << fn;
  }
}

TEST(CallGraphTest, DotExportMentionsEveryEdge) {
  const CallGraph graph = graph_of(R"(
fn helper() { }
fn main() { helper(); }
)");
  const std::string dot = to_dot(graph);
  EXPECT_NE(dot.find("\"main\" -> \"helper\""), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(CfgDotExportTest, RendersCallLabels) {
  const ModuleCfg module = build_module_cfg(
      ir::ProgramModule::from_source("test", R"(
fn main() { if (input()) { sys("read"); } }
)"));
  const std::string dot = to_dot(module.require("main"));
  EXPECT_NE(dot.find("sys:read@main"), std::string::npos);
  EXPECT_NE(dot.find("[label=\"T\"]"), std::string::npos);
}

}  // namespace
}  // namespace cmarkov::cfg
