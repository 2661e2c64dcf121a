// Unit tests for the synthetic binary image and the [SYSCALL...RET] gadget
// scanner (Table III machinery).
#include <gtest/gtest.h>

#include "src/attack/abnormal_s.hpp"
#include "src/gadget/gadget_scanner.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::gadget {
namespace {

TEST(BinaryImageTest, SynthesizeFromModuleKeepsRealSyscallSites) {
  const workload::ProgramSuite suite = workload::make_gzip_suite();
  const BinaryImage image = BinaryImage::synthesize(suite.cfg(), 42);
  EXPECT_EQ(image.name(), "gzip");

  // Every genuine syscall site appears as a named kSyscall instruction at
  // its real address.
  std::map<std::uint64_t, std::string> sites;
  for (const auto& fn : suite.cfg().functions) {
    for (const auto& block : fn.blocks) {
      const auto* call = block.external_call();
      if (call != nullptr && call->kind == ir::CallKind::kSyscall) {
        sites.emplace(call->address, call->callee);
      }
    }
  }
  ASSERT_FALSE(sites.empty());
  std::map<std::uint64_t, const Instruction*> by_address;
  for (const auto& instr : image.instructions()) {
    by_address.emplace(instr.address, &instr);
  }
  for (const auto& [address, name] : sites) {
    auto it = by_address.find(address);
    ASSERT_NE(it, by_address.end());
    EXPECT_EQ(it->second->op, Opcode::kSyscall);
    EXPECT_EQ(it->second->syscall_name, name);
  }
}

TEST(BinaryImageTest, AddressesAreStrictlyIncreasing) {
  const workload::ProgramSuite suite = workload::make_grep_suite();
  const BinaryImage image = BinaryImage::synthesize(suite.cfg(), 1);
  for (std::size_t i = 1; i < image.instructions().size(); ++i) {
    EXPECT_LT(image.instructions()[i - 1].address,
              image.instructions()[i].address);
  }
}

TEST(BinaryImageTest, DeterministicPerSeed) {
  const workload::ProgramSuite suite = workload::make_sed_suite();
  const BinaryImage a = BinaryImage::synthesize(suite.cfg(), 7);
  const BinaryImage b = BinaryImage::synthesize(suite.cfg(), 7);
  ASSERT_EQ(a.instructions().size(), b.instructions().size());
  for (std::size_t i = 0; i < a.instructions().size(); ++i) {
    EXPECT_EQ(a.instructions()[i].op, b.instructions()[i].op);
  }
}

TEST(BinaryImageTest, LibrarySynthesisHasWrappersAndRets) {
  const BinaryImage libc =
      BinaryImage::synthesize_library("libc.so", 200, 40, 3);
  EXPECT_EQ(libc.name(), "libc.so");
  std::size_t rets = 0;
  std::size_t named_syscalls = 0;
  for (const auto& instr : libc.instructions()) {
    if (instr.op == Opcode::kRet) ++rets;
    if (instr.op == Opcode::kSyscall && !instr.syscall_name.empty()) {
      ++named_syscalls;
    }
  }
  EXPECT_GE(rets, 200u);  // one epilogue per function at minimum
  EXPECT_GT(named_syscalls, 10u);
}

TEST(GadgetScannerTest, FindsWindowsEndingInRet) {
  const BinaryImage libc =
      BinaryImage::synthesize_library("libc.so", 300, 30, 5);
  const auto short_gadgets = find_syscall_ret_gadgets(libc, 2);
  const auto long_gadgets = find_syscall_ret_gadgets(libc, 10);
  // Longer windows can only find more gadgets.
  EXPECT_GE(long_gadgets.size(), short_gadgets.size());
  for (const auto& gadget : long_gadgets) {
    EXPECT_GE(gadget.length, 2u);
    EXPECT_LE(gadget.length, 10u);
    EXPECT_LT(gadget.syscall_address, gadget.ret_address);
  }
}

TEST(GadgetScannerTest, ControlTransfersBreakGadgets) {
  // A gadget window must be straight-line: the scanner never reports a
  // gadget whose intermediate instructions include call/jump/branch/ret.
  const BinaryImage libc =
      BinaryImage::synthesize_library("libc.so", 100, 50, 9);
  const auto& instrs = libc.instructions();
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    index_of.emplace(instrs[i].address, i);
  }
  for (const auto& gadget : find_syscall_ret_gadgets(libc, 10)) {
    const std::size_t begin = index_of.at(gadget.syscall_address);
    const std::size_t end = index_of.at(gadget.ret_address);
    for (std::size_t i = begin + 1; i < end; ++i) {
      EXPECT_NE(instrs[i].op, Opcode::kCall);
      EXPECT_NE(instrs[i].op, Opcode::kJump);
      EXPECT_NE(instrs[i].op, Opcode::kBranch);
      EXPECT_NE(instrs[i].op, Opcode::kRet);
    }
  }
}

TEST(GadgetScannerTest, ContextCompatibilityRequiresLegitimatePair) {
  const workload::ProgramSuite suite = workload::make_gzip_suite();
  const BinaryImage image = BinaryImage::synthesize(suite.cfg(), 11);
  const trace::Symbolizer symbolizer(suite.cfg());

  const auto collection = workload::collect_traces(suite, 20, 2);
  const auto legit_vec = attack::legitimate_call_set(
      collection.traces, analysis::CallFilter::kSyscalls);
  const std::set<attack::LegitimateCall> legit(legit_vec.begin(),
                                               legit_vec.end());

  const GadgetCounts with_context =
      count_gadgets(image, 10, &symbolizer, legit);
  const GadgetCounts no_context = count_gadgets(image, 10, nullptr, legit);
  EXPECT_EQ(with_context.raw, no_context.raw);
  EXPECT_EQ(no_context.context_compatible, 0u);
  // Context enforcement prunes the census (the paper's core claim).
  EXPECT_LE(with_context.context_compatible, with_context.raw);
}

TEST(GadgetScannerTest, CountsGrowWithLength) {
  const workload::ProgramSuite suite = workload::make_bash_suite();
  const BinaryImage image = BinaryImage::synthesize(suite.cfg(), 13);
  const trace::Symbolizer symbolizer(suite.cfg());
  const std::set<attack::LegitimateCall> empty;
  const auto len2 = count_gadgets(image, 2, &symbolizer, empty);
  const auto len6 = count_gadgets(image, 6, &symbolizer, empty);
  const auto len10 = count_gadgets(image, 10, &symbolizer, empty);
  EXPECT_LE(len2.raw, len6.raw);
  EXPECT_LE(len6.raw, len10.raw);
}

}  // namespace
}  // namespace cmarkov::gadget
