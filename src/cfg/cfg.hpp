// Per-function control-flow graphs and the module-level container the
// analysis pipeline consumes (the paper's Definition 1).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cfg/basic_block.hpp"

namespace cmarkov::cfg {

/// CFG of one MiniC function after lowering to three-address code.
class FunctionCfg {
 public:
  std::string name;
  std::vector<std::string> params;  // parameter i lives in register i
  BlockId entry = kInvalidBlock;
  std::vector<BasicBlock> blocks;
  std::size_t num_registers = 0;
  /// Synthetic load address of the function's code (symbolizer ranges).
  std::uint64_t base_address = 0;
  /// One past the highest instruction address in the function.
  std::uint64_t end_address = 0;

  const BasicBlock& block(BlockId id) const;
  BasicBlock& block(BlockId id);

  std::size_t block_count() const { return blocks.size(); }

  /// Back edges (u, v) found by DFS from the entry: edge u->v where v is on
  /// the current DFS stack. Cutting these yields the acyclic subgraph the
  /// probability propagation runs on (the paper defers loop behaviour to
  /// dynamic training).
  std::vector<std::pair<BlockId, BlockId>> back_edges() const;

  /// Blocks in reverse post order over forward (non-back) edges, starting at
  /// the entry. Unreachable blocks are excluded.
  std::vector<BlockId> reverse_post_order() const;

  /// Set of distinct source lines covered by the function's instructions
  /// and branch terminators (denominator of line coverage, Table I).
  std::vector<int> source_lines() const;
};

/// All function CFGs of a program, plus entry-point metadata.
class ModuleCfg {
 public:
  std::string program_name;
  std::string entry_point;
  std::vector<FunctionCfg> functions;

  const FunctionCfg* find(const std::string& name) const;
  const FunctionCfg& require(const std::string& name) const;

  /// function name -> index into `functions`.
  std::map<std::string, std::size_t> index_by_name() const;
};

}  // namespace cmarkov::cfg
