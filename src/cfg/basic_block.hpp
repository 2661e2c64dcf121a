// Basic blocks and the three-address instruction set MiniC lowers to.
//
// Lowering splits a block after every call instruction, so a basic block
// contains at most one call. This matches the granularity of the paper's
// analysis (Definition 1/4: a CFG node "makes a call").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/ir/ast.hpp"

namespace cmarkov::cfg {

using BlockId = std::uint32_t;
using RegId = std::uint32_t;

inline constexpr BlockId kInvalidBlock = static_cast<BlockId>(-1);

/// dst = constant
struct ConstInstr {
  RegId dst;
  std::int64_t value;
  int line = 0;
};

/// dst = src
struct MoveInstr {
  RegId dst;
  RegId src;
  int line = 0;
};

/// dst = lhs <op> rhs (strict evaluation; && and || are non-short-circuit)
struct BinInstr {
  ir::BinaryOp op;
  RegId dst;
  RegId lhs;
  RegId rhs;
  int line = 0;
};

/// dst = <op> src
struct UnInstr {
  ir::UnaryOp op;
  RegId dst;
  RegId src;
  int line = 0;
};

/// dst = next test-case input value
struct InputInstr {
  RegId dst;
  int line = 0;
};

/// dst = sys("callee")/lib("callee") — an observable external call.
/// `address` is the synthetic code address of the call site; the tracer
/// records it and the symbolizer maps it back to the caller function,
/// mirroring the paper's strace/ltrace + addr2line pipeline.
struct ExternalCallInstr {
  ir::CallKind kind;
  std::string callee;
  RegId dst;
  std::vector<RegId> args;
  std::uint32_t site_id = 0;
  std::uint64_t address = 0;
  int line = 0;
};

/// dst = callee(args) for a MiniC-defined function.
struct InternalCallInstr {
  std::string callee;
  RegId dst;
  std::vector<RegId> args;
  std::uint32_t site_id = 0;
  std::uint64_t address = 0;
  int line = 0;
};

using Instr = std::variant<ConstInstr, MoveInstr, BinInstr, UnInstr,
                           InputInstr, ExternalCallInstr, InternalCallInstr>;

/// Unconditional edge.
struct JumpTerm {
  BlockId target = kInvalidBlock;
};

/// Two-way conditional edge (condition != 0 → if_true).
struct BranchTerm {
  RegId condition;
  BlockId if_true = kInvalidBlock;
  BlockId if_false = kInvalidBlock;
  int line = 0;
};

/// Function return.
struct ReturnTerm {
  std::optional<RegId> value;
};

using Terminator = std::variant<JumpTerm, BranchTerm, ReturnTerm>;

struct BasicBlock {
  BlockId id = kInvalidBlock;
  std::vector<Instr> instructions;
  Terminator terminator = ReturnTerm{};

  /// Successor block ids implied by the terminator (0, 1 or 2).
  std::vector<BlockId> successors() const;

  /// Pointer to this block's call instruction, or nullptr. At most one call
  /// per block by construction.
  const ExternalCallInstr* external_call() const;
  const InternalCallInstr* internal_call() const;
};

/// Returns the source line of an instruction (for coverage accounting).
int instr_line(const Instr& instr);

}  // namespace cmarkov::cfg
