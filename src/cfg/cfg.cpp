#include "src/cfg/cfg.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace cmarkov::cfg {

const BasicBlock& FunctionCfg::block(BlockId id) const {
  if (id >= blocks.size()) throw std::out_of_range("FunctionCfg::block");
  return blocks[id];
}

BasicBlock& FunctionCfg::block(BlockId id) {
  if (id >= blocks.size()) throw std::out_of_range("FunctionCfg::block");
  return blocks[id];
}

namespace {

enum class Mark : std::uint8_t { kUnvisited, kOnStack, kDone };

void dfs_back_edges(const FunctionCfg& cfg, BlockId node,
                    std::vector<Mark>& marks,
                    std::vector<std::pair<BlockId, BlockId>>& out) {
  marks[node] = Mark::kOnStack;
  for (BlockId succ : cfg.block(node).successors()) {
    if (marks[succ] == Mark::kOnStack) {
      out.emplace_back(node, succ);
    } else if (marks[succ] == Mark::kUnvisited) {
      dfs_back_edges(cfg, succ, marks, out);
    }
  }
  marks[node] = Mark::kDone;
}

}  // namespace

std::vector<std::pair<BlockId, BlockId>> FunctionCfg::back_edges() const {
  std::vector<std::pair<BlockId, BlockId>> out;
  if (blocks.empty()) return out;
  std::vector<Mark> marks(blocks.size(), Mark::kUnvisited);
  dfs_back_edges(*this, entry, marks, out);
  return out;
}

std::vector<BlockId> FunctionCfg::reverse_post_order() const {
  std::vector<BlockId> order;
  if (blocks.empty()) return order;

  const auto backs = back_edges();
  std::set<std::pair<BlockId, BlockId>> back_set(backs.begin(), backs.end());

  std::vector<bool> visited(blocks.size(), false);
  std::vector<BlockId> post;
  // Iterative post-order DFS over forward edges only.
  struct Frame {
    BlockId node;
    std::vector<BlockId> succs;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  visited[entry] = true;
  stack.push_back({entry, block(entry).successors(), 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    bool descended = false;
    while (top.next < top.succs.size()) {
      const BlockId succ = top.succs[top.next++];
      if (back_set.contains({top.node, succ})) continue;
      if (visited[succ]) continue;
      visited[succ] = true;
      stack.push_back({succ, block(succ).successors(), 0});
      descended = true;
      break;
    }
    if (!descended && !stack.empty() && stack.back().next >= stack.back().succs.size()) {
      post.push_back(stack.back().node);
      stack.pop_back();
    }
  }
  order.assign(post.rbegin(), post.rend());
  return order;
}

std::vector<int> FunctionCfg::source_lines() const {
  std::set<int> lines;
  for (const auto& b : blocks) {
    for (const auto& instr : b.instructions) {
      const int line = instr_line(instr);
      if (line > 0) lines.insert(line);
    }
    if (const auto* branch = std::get_if<BranchTerm>(&b.terminator)) {
      if (branch->line > 0) lines.insert(branch->line);
    }
  }
  return {lines.begin(), lines.end()};
}

const FunctionCfg* ModuleCfg::find(const std::string& name) const {
  for (const auto& fn : functions) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

const FunctionCfg& ModuleCfg::require(const std::string& name) const {
  const FunctionCfg* fn = find(name);
  if (fn == nullptr) {
    throw std::invalid_argument("ModuleCfg: no function named '" + name +
                                "'");
  }
  return *fn;
}

std::map<std::string, std::size_t> ModuleCfg::index_by_name() const {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < functions.size(); ++i) {
    index.emplace(functions[i].name, i);
  }
  return index;
}

}  // namespace cmarkov::cfg
