// Unit tests for the addr2line-style Symbolizer and trace encoding.
#include <gtest/gtest.h>

#include "src/cfg/cfg_builder.hpp"
#include "src/ir/module.hpp"
#include "src/trace/interpreter.hpp"
#include "src/trace/symbolizer.hpp"

namespace cmarkov::trace {
namespace {

cfg::ModuleCfg lower(const char* source) {
  return cfg::build_module_cfg(ir::ProgramModule::from_source("t", source));
}

TEST(SymbolizerTest, ResolvesAddressesToContainingFunction) {
  const auto module = lower(R"(
fn helper() { sys("read"); }
fn main() { helper(); }
)");
  const Symbolizer symbolizer(module);
  const auto& helper = module.require("helper");
  EXPECT_EQ(symbolizer.resolve(helper.base_address),
            std::optional<std::string>("helper"));
  EXPECT_EQ(symbolizer.resolve(helper.end_address - 1),
            std::optional<std::string>("helper"));
}

TEST(SymbolizerTest, AddressesOutsideImageAreUnresolved) {
  const auto module = lower("fn main() { }");
  const Symbolizer symbolizer(module);
  EXPECT_EQ(symbolizer.resolve(0x1), std::nullopt);
  EXPECT_EQ(symbolizer.resolve(0xffffffffffull), std::nullopt);
}

TEST(SymbolizerTest, SymbolizeFillsCallers) {
  const auto module = lower(R"(
fn worker() { sys("write"); }
fn main() { sys("open"); worker(); }
)");
  const Interpreter interpreter(module);
  SeededEnvironment environment(1);
  RunResult run = interpreter.run({}, environment);
  const Symbolizer symbolizer(module);
  symbolizer.symbolize(run.trace);
  ASSERT_EQ(run.trace.events.size(), 2u);
  EXPECT_EQ(run.trace.events[0].caller, "main");
  EXPECT_EQ(run.trace.events[1].caller, "worker");
}

TEST(SymbolizerTest, GrandparentContextResolved) {
  const auto module = lower(R"(
fn inner() { sys("write"); }
fn outer() { inner(); }
fn main() { sys("open"); outer(); }
)");
  const Interpreter interpreter(module);
  SeededEnvironment environment(1);
  RunResult run = interpreter.run({}, environment);
  const Symbolizer symbolizer(module);
  symbolizer.symbolize(run.trace);
  ASSERT_EQ(run.trace.events.size(), 2u);
  // open is made from main directly: no grandparent.
  EXPECT_EQ(run.trace.events[0].caller, "main");
  EXPECT_EQ(run.trace.events[0].grandcaller, kNoGrandcaller);
  // write is made from inner, which was called from outer.
  EXPECT_EQ(run.trace.events[1].caller, "inner");
  EXPECT_EQ(run.trace.events[1].grandcaller, "outer");
}

TEST(TraceEncodingTest, DeepContextEncoding) {
  Trace trace;
  trace.events = {
      {ir::CallKind::kSyscall, "write", 0, "inner", 0, "outer"},
      {ir::CallKind::kSyscall, "open", 0, "main", 0, "-"},
  };
  hmm::Alphabet alphabet;
  const auto encoded =
      encode_trace(trace, analysis::CallFilter::kSyscalls,
                   hmm::ObservationEncoding::kDeepContext, alphabet);
  ASSERT_EQ(encoded.size(), 2u);
  EXPECT_EQ(alphabet.name(encoded[0]), "write@inner@outer");
  EXPECT_EQ(alphabet.name(encoded[1]), "open@main@-");
}

TEST(SymbolizerTest, ForgedAddressesGetUnknownCaller) {
  const auto module = lower("fn main() { }");
  const Symbolizer symbolizer(module);
  Trace trace;
  CallEvent event;
  event.kind = ir::CallKind::kSyscall;
  event.name = "execve";
  event.site_address = 0xdeadbeefcafeull;
  trace.events.push_back(event);
  symbolizer.symbolize(trace);
  EXPECT_EQ(trace.events[0].caller, kUnknownCaller);
}

TEST(TraceEncodingTest, FilterAndEncoding) {
  Trace trace;
  trace.program = "t";
  trace.events = {
      {ir::CallKind::kSyscall, "read", 0, "f"},
      {ir::CallKind::kLibcall, "malloc", 0, "g"},
      {ir::CallKind::kSyscall, "write", 0, "f"},
  };
  EXPECT_EQ(trace.count(analysis::CallFilter::kSyscalls), 2u);
  EXPECT_EQ(trace.count(analysis::CallFilter::kLibcalls), 1u);
  EXPECT_EQ(trace.count(analysis::CallFilter::kAll), 3u);

  hmm::Alphabet alphabet;
  const auto encoded =
      encode_trace(trace, analysis::CallFilter::kSyscalls,
                   hmm::ObservationEncoding::kContextSensitive, alphabet);
  ASSERT_EQ(encoded.size(), 2u);
  EXPECT_EQ(alphabet.name(encoded[0]), "read@f");
  EXPECT_EQ(alphabet.name(encoded[1]), "write@f");
}

TEST(TraceEncodingTest, ContextSensitiveRequiresSymbolizedTrace) {
  Trace trace;
  trace.events = {{ir::CallKind::kSyscall, "read", 0, ""}};
  hmm::Alphabet alphabet;
  EXPECT_THROW(
      encode_trace(trace, analysis::CallFilter::kSyscalls,
                   hmm::ObservationEncoding::kContextSensitive, alphabet),
      std::invalid_argument);
  // Context-free encoding tolerates missing callers.
  EXPECT_NO_THROW(
      encode_trace(trace, analysis::CallFilter::kSyscalls,
                   hmm::ObservationEncoding::kContextFree, alphabet));
}

TEST(TraceEncodingTest, FrozenEncodingMapsUnknownsToSentinel) {
  hmm::Alphabet alphabet;
  alphabet.intern("read@f");
  Trace trace;
  trace.events = {
      {ir::CallKind::kSyscall, "read", 0, "f"},
      {ir::CallKind::kSyscall, "read", 0, "attacker"},  // wrong context
  };
  const auto encoded =
      encode_trace_frozen(trace, analysis::CallFilter::kSyscalls,
                          hmm::ObservationEncoding::kContextSensitive,
                          alphabet, alphabet.size());
  ASSERT_EQ(encoded.size(), 2u);
  EXPECT_EQ(encoded[0], 0u);
  EXPECT_EQ(encoded[1], alphabet.size());  // sentinel
  EXPECT_EQ(alphabet.size(), 1u);          // not extended
}

}  // namespace
}  // namespace cmarkov::trace
