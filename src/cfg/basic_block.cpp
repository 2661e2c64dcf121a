#include "src/cfg/basic_block.hpp"

namespace cmarkov::cfg {

std::vector<BlockId> BasicBlock::successors() const {
  return std::visit(
      [](const auto& term) -> std::vector<BlockId> {
        using T = std::decay_t<decltype(term)>;
        if constexpr (std::is_same_v<T, JumpTerm>) {
          return {term.target};
        } else if constexpr (std::is_same_v<T, BranchTerm>) {
          return {term.if_true, term.if_false};
        } else {
          return {};
        }
      },
      terminator);
}

const ExternalCallInstr* BasicBlock::external_call() const {
  for (const auto& instr : instructions) {
    if (const auto* call = std::get_if<ExternalCallInstr>(&instr)) {
      return call;
    }
  }
  return nullptr;
}

const InternalCallInstr* BasicBlock::internal_call() const {
  for (const auto& instr : instructions) {
    if (const auto* call = std::get_if<InternalCallInstr>(&instr)) {
      return call;
    }
  }
  return nullptr;
}

int instr_line(const Instr& instr) {
  return std::visit([](const auto& i) { return i.line; }, instr);
}

}  // namespace cmarkov::cfg
