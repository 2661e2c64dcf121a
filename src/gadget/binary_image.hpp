// Synthetic binary image: an instruction-level rendering of a lowered
// module, used by the ROP-gadget census of Table III. Real gadget scanners
// decode the text section of an ELF binary; here the image is synthesized
// from the module's code layout so gadget addresses stay consistent with
// the Symbolizer's function ranges.
//
// The image contains the program's genuine syscall instructions (at their
// real call-site addresses, carrying their real call names) plus a sprinkle
// of "unintended" instructions — the misaligned decodings ROP compilers
// feast on — whose syscall numbers are effectively random.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cfg/cfg.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::gadget {

enum class Opcode : std::uint8_t {
  kArith,
  kMov,
  kLoad,
  kStore,
  kPush,
  kPop,
  kCall,
  kJump,
  kBranch,
  kSyscall,
  kRet,
  kNop,
};

struct Instruction {
  std::uint64_t address = 0;
  Opcode op = Opcode::kNop;
  /// Call name for kSyscall instructions ("" for unintended decodings with
  /// an unpredictable syscall number).
  std::string syscall_name;
};

class BinaryImage {
 public:
  /// Synthesizes the image of a lowered module: one instruction slot per
  /// address unit, genuine syscall call sites preserved, function
  /// epilogues ending in RET, deterministic given (module, seed).
  static BinaryImage synthesize(const cfg::ModuleCfg& module,
                                std::uint64_t seed);

  /// Synthesizes a shared-library image ("libc.so" row of Table III): no
  /// module, just `function_count` ranges of typical library code.
  static BinaryImage synthesize_library(std::string name,
                                        std::size_t function_count,
                                        std::size_t instructions_per_function,
                                        std::uint64_t seed);

  const std::string& name() const { return name_; }
  const std::vector<Instruction>& instructions() const {
    return instructions_;
  }

 private:
  std::string name_;
  std::vector<Instruction> instructions_;  // address-ordered
};

}  // namespace cmarkov::gadget
