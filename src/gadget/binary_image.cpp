#include "src/gadget/binary_image.hpp"

#include <map>
#include <iterator>

namespace cmarkov::gadget {

namespace {

/// Probability that a filler slot is a RET — real x86 code is dense in
/// unintended 0xc3 bytes, which is what makes ROP viable at all.
constexpr double kStrayRetRate = 0.02;
/// Probability that a filler slot decodes to an unintended syscall
/// instruction (its effective syscall number is attacker-controlled, so
/// such gadgets count toward the raw census but can never produce a
/// legitimate (name, caller) observation).
constexpr double kStraySyscallRate = 0.01;
/// Benign filler opcodes and their relative weights.
constexpr Opcode kFillerOps[] = {
    Opcode::kArith, Opcode::kMov,  Opcode::kLoad,   Opcode::kStore,
    Opcode::kPush,  Opcode::kPop,  Opcode::kCall,   Opcode::kJump,
    Opcode::kBranch, Opcode::kNop,
};
constexpr double kFillerWeights[] = {24, 22, 12, 10, 6, 6, 6, 4, 8, 2};
static_assert(std::size(kFillerOps) == std::size(kFillerWeights));

Instruction filler_instruction(std::uint64_t address, Rng& rng) {
  Instruction instr;
  instr.address = address;
  if (rng.chance(kStrayRetRate)) {
    instr.op = Opcode::kRet;
  } else if (rng.chance(kStraySyscallRate)) {
    instr.op = Opcode::kSyscall;  // unintended decoding, name unknown
  } else {
    instr.op = kFillerOps[rng.weighted_index(kFillerWeights)];
  }
  return instr;
}

}  // namespace

BinaryImage BinaryImage::synthesize(const cfg::ModuleCfg& module,
                                    std::uint64_t seed) {
  BinaryImage image;
  image.name_ = module.program_name;
  Rng rng(seed ^ 0xb17a6e);

  for (const auto& fn : module.functions) {
    // Real syscall sites of this function, by address.
    std::map<std::uint64_t, std::string> sites;
    for (const auto& block : fn.blocks) {
      const auto* call = block.external_call();
      if (call != nullptr && call->kind == ir::CallKind::kSyscall) {
        sites.emplace(call->address, call->callee);
      }
    }

    const std::uint64_t stride = 4;  // matches LoweringOptions default
    const std::uint64_t end = std::max(fn.end_address, fn.base_address + stride);
    for (std::uint64_t addr = fn.base_address; addr < end; addr += stride) {
      auto site = sites.find(addr);
      if (site != sites.end()) {
        Instruction instr;
        instr.address = addr;
        instr.op = Opcode::kSyscall;
        instr.syscall_name = site->second;
        image.instructions_.push_back(std::move(instr));
      } else if (addr + stride >= end) {
        // Function epilogue.
        image.instructions_.push_back({addr, Opcode::kRet, {}});
        continue;
      } else {
        image.instructions_.push_back(filler_instruction(addr, rng));
      }
      // Misaligned decodings: each 4-byte slot offers 3 more positions a
      // ROP compiler can jump into, decoding to unintended instructions.
      for (std::uint64_t sub = 1; sub < stride; ++sub) {
        image.instructions_.push_back(
            filler_instruction(addr + sub, rng));
      }
    }
  }
  return image;
}

BinaryImage BinaryImage::synthesize_library(
    std::string name, std::size_t function_count,
    std::size_t instructions_per_function, std::uint64_t seed) {
  BinaryImage image;
  image.name_ = std::move(name);
  Rng rng(seed ^ 0x11bc);

  // Library syscall wrappers: a fraction of functions contain one genuine
  // syscall instruction (read/write/open wrappers etc.).
  static const char* const kWrapperNames[] = {
      "read", "write", "open", "close", "mmap",  "brk",
      "stat", "ioctl", "recv", "send",  "fcntl", "lseek",
  };

  std::uint64_t base = 0x7f0000000000ULL;
  for (std::size_t f = 0; f < function_count; ++f) {
    const bool is_wrapper = rng.chance(0.2);
    const std::size_t wrapper_slot =
        is_wrapper ? 1 + rng.index(instructions_per_function > 2
                                       ? instructions_per_function - 2
                                       : 1)
                   : 0;
    for (std::size_t i = 0; i < instructions_per_function; ++i) {
      const std::uint64_t addr = base + i * 4;
      if (is_wrapper && i == wrapper_slot) {
        Instruction instr;
        instr.address = addr;
        instr.op = Opcode::kSyscall;
        instr.syscall_name =
            kWrapperNames[rng.index(std::size(kWrapperNames))];
        image.instructions_.push_back(std::move(instr));
      } else if (i + 1 == instructions_per_function) {
        image.instructions_.push_back({addr, Opcode::kRet, {}});
      } else {
        image.instructions_.push_back(filler_instruction(addr, rng));
      }
    }
    base += instructions_per_function * 4 + 0x40;
  }
  return image;
}

}  // namespace cmarkov::gadget
