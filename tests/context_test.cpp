// Unit tests for CallSymbol, CallFilter and the sparse labeled
// CallTransitionMatrix, plus the STILO context-insensitive projection.
#include <gtest/gtest.h>

#include "src/analysis/context.hpp"

namespace cmarkov::analysis {
namespace {

TEST(CallSymbolTest, FactoryAndToString) {
  const auto entry = CallSymbol::entry("main");
  const auto exit = CallSymbol::exit();
  const auto ext =
      CallSymbol::external(ir::CallKind::kSyscall, "read", "f");
  const auto internal = CallSymbol::internal("helper");
  EXPECT_EQ(entry.to_string(), "ENTRY(main)");
  EXPECT_EQ(exit.to_string(), "EXIT");
  EXPECT_EQ(ext.to_string(), "sys:read@f");
  EXPECT_EQ(internal.to_string(), "<helper>");
}

TEST(CallSymbolTest, OrderingDistinguishesContext) {
  const auto read_f = CallSymbol::external(ir::CallKind::kSyscall, "read", "f");
  const auto read_g = CallSymbol::external(ir::CallKind::kSyscall, "read", "g");
  EXPECT_NE(read_f, read_g);
  EXPECT_EQ(read_f.without_context(), read_g.without_context());
}

TEST(CallSymbolTest, KindDistinguishesSysAndLib) {
  const auto sys_open =
      CallSymbol::external(ir::CallKind::kSyscall, "open", "f");
  const auto lib_open =
      CallSymbol::external(ir::CallKind::kLibcall, "open", "f");
  EXPECT_NE(sys_open, lib_open);
  EXPECT_EQ(lib_open.to_string(), "lib:open@f");
}

TEST(CallFilterTest, Matching) {
  EXPECT_TRUE(filter_matches(CallFilter::kSyscalls, ir::CallKind::kSyscall));
  EXPECT_FALSE(filter_matches(CallFilter::kSyscalls, ir::CallKind::kLibcall));
  EXPECT_TRUE(filter_matches(CallFilter::kLibcalls, ir::CallKind::kLibcall));
  EXPECT_FALSE(filter_matches(CallFilter::kLibcalls, ir::CallKind::kSyscall));
  EXPECT_TRUE(filter_matches(CallFilter::kAll, ir::CallKind::kSyscall));
  EXPECT_TRUE(filter_matches(CallFilter::kAll, ir::CallKind::kLibcall));
  EXPECT_EQ(call_filter_name(CallFilter::kSyscalls), "syscall");
  EXPECT_EQ(call_filter_name(CallFilter::kLibcalls), "libcall");
}

TEST(CallTransitionMatrixTest, AddSymbolIsIdempotent) {
  CallTransitionMatrix m;
  const auto sym = CallSymbol::external(ir::CallKind::kSyscall, "a", "f");
  const auto i1 = m.add_symbol(sym);
  const auto i2 = m.add_symbol(sym);
  EXPECT_EQ(i1, i2);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.index_of(sym), i1);
}

TEST(CallTransitionMatrixTest, UnknownSymbolThrows) {
  CallTransitionMatrix m;
  EXPECT_THROW(m.index_of(CallSymbol::entry("x")), std::out_of_range);
  EXPECT_FALSE(m.contains(CallSymbol::entry("x")));
}

TEST(CallTransitionMatrixTest, ProbAccumulationAndOverwrite) {
  CallTransitionMatrix m;
  const auto a = m.add_symbol(CallSymbol::internal("a"));
  const auto b = m.add_symbol(CallSymbol::internal("b"));
  EXPECT_DOUBLE_EQ(m.prob(a, b), 0.0);
  m.add_prob(a, b, 0.25);
  m.add_prob(a, b, 0.25);
  EXPECT_DOUBLE_EQ(m.prob(a, b), 0.5);
  m.set_prob(a, b, 0.1);
  EXPECT_DOUBLE_EQ(m.prob(a, b), 0.1);
  m.set_prob(a, b, 0.0);
  EXPECT_DOUBLE_EQ(m.prob(a, b), 0.0);
  EXPECT_EQ(m.nonzero_count(), 0u);
}

TEST(CallTransitionMatrixTest, RowAndColumnSums) {
  CallTransitionMatrix m;
  const auto a = m.add_symbol(CallSymbol::internal("a"));
  const auto b = m.add_symbol(CallSymbol::internal("b"));
  const auto c = m.add_symbol(CallSymbol::internal("c"));
  m.set_prob(a, b, 0.3);
  m.set_prob(a, c, 0.7);
  m.set_prob(b, c, 1.0);
  EXPECT_DOUBLE_EQ(m.row_sum(a), 1.0);
  EXPECT_DOUBLE_EQ(m.col_sum(c), 1.7);
  EXPECT_DOUBLE_EQ(m.col_sum(a), 0.0);
}

TEST(CallTransitionMatrixTest, ExternalIndicesFiltersKinds) {
  CallTransitionMatrix m;
  m.add_symbol(CallSymbol::entry("f"));
  const auto e1 =
      m.add_symbol(CallSymbol::external(ir::CallKind::kSyscall, "a", "f"));
  m.add_symbol(CallSymbol::internal("g"));
  const auto e2 =
      m.add_symbol(CallSymbol::external(ir::CallKind::kLibcall, "b", "f"));
  m.add_symbol(CallSymbol::exit("f"));
  EXPECT_EQ(m.external_indices(), (std::vector<std::size_t>{e1, e2}));
}

TEST(ProjectionTest, MergesContextsAndSumsProbabilities) {
  CallTransitionMatrix m;
  const auto entry = m.add_symbol(CallSymbol::entry("main"));
  const auto read_f =
      m.add_symbol(CallSymbol::external(ir::CallKind::kSyscall, "read", "f"));
  const auto read_g =
      m.add_symbol(CallSymbol::external(ir::CallKind::kSyscall, "read", "g"));
  const auto write_f =
      m.add_symbol(CallSymbol::external(ir::CallKind::kSyscall, "write", "f"));
  m.set_prob(entry, read_f, 0.5);
  m.set_prob(entry, read_g, 0.5);
  m.set_prob(read_f, write_f, 0.5);
  m.set_prob(read_g, write_f, 0.5);

  const CallTransitionMatrix projected = project_context_insensitive(m);
  const auto read =
      CallSymbol::external(ir::CallKind::kSyscall, "read", "");
  const auto write =
      CallSymbol::external(ir::CallKind::kSyscall, "write", "");
  EXPECT_EQ(projected.size(), 3u);  // ENTRY, read, write
  EXPECT_DOUBLE_EQ(projected.prob(CallSymbol::entry("main"), read), 1.0);
  EXPECT_DOUBLE_EQ(projected.prob(read, write), 1.0);
}

TEST(ProjectionTest, PreservesEntryExitAndInternalSymbols) {
  CallTransitionMatrix m;
  m.add_symbol(CallSymbol::entry("main"));
  m.add_symbol(CallSymbol::exit("main"));
  m.add_symbol(CallSymbol::internal("helper"));
  const CallTransitionMatrix projected = project_context_insensitive(m);
  EXPECT_TRUE(projected.contains(CallSymbol::entry("main")));
  EXPECT_TRUE(projected.contains(CallSymbol::exit("main")));
  EXPECT_TRUE(projected.contains(CallSymbol::internal("helper")));
}

TEST(CallTransitionMatrixTest, ToStringListsNonZeroCells) {
  CallTransitionMatrix m;
  const auto a = m.add_symbol(CallSymbol::internal("a"));
  const auto b = m.add_symbol(CallSymbol::internal("b"));
  m.set_prob(a, b, 0.5);
  const std::string text = m.to_string();
  EXPECT_NE(text.find("<a> -> <b> : 0.5"), std::string::npos);
}

}  // namespace
}  // namespace cmarkov::analysis
