#include "src/cfg/call_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace cmarkov::cfg {

namespace {

/// Iterative Tarjan SCC over function names.
class TarjanScc {
 public:
  TarjanScc(const std::vector<std::string>& nodes,
            const std::map<std::string, std::set<std::string>>& out)
      : nodes_(nodes), out_(out) {
    for (std::size_t i = 0; i < nodes.size(); ++i) index_of_[nodes[i]] = i;
    state_.resize(nodes.size());
  }

  std::vector<std::vector<std::string>> run() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (state_[i].index == kUnset) strong_connect(i);
    }
    return std::move(sccs_);
  }

 private:
  static constexpr std::size_t kUnset = static_cast<std::size_t>(-1);

  struct NodeState {
    std::size_t index = kUnset;
    std::size_t lowlink = kUnset;
    bool on_stack = false;
  };

  struct Frame {
    std::size_t node;
    std::vector<std::size_t> succs;
    std::size_t next = 0;
  };

  std::vector<std::size_t> successors(std::size_t node) const {
    std::vector<std::size_t> out;
    auto it = out_.find(nodes_[node]);
    if (it == out_.end()) return out;
    for (const auto& callee : it->second) {
      out.push_back(index_of_.at(callee));
    }
    return out;
  }

  void strong_connect(std::size_t root) {
    std::vector<Frame> frames;
    open_node(root);
    frames.push_back({root, successors(root), 0});
    while (!frames.empty()) {
      Frame& top = frames.back();
      if (top.next < top.succs.size()) {
        const std::size_t succ = top.succs[top.next++];
        if (state_[succ].index == kUnset) {
          open_node(succ);
          frames.push_back({succ, successors(succ), 0});
        } else if (state_[succ].on_stack) {
          state_[top.node].lowlink =
              std::min(state_[top.node].lowlink, state_[succ].index);
        }
        continue;
      }
      // All successors processed: close the node.
      const std::size_t node = top.node;
      frames.pop_back();
      if (!frames.empty()) {
        state_[frames.back().node].lowlink = std::min(
            state_[frames.back().node].lowlink, state_[node].lowlink);
      }
      if (state_[node].lowlink == state_[node].index) {
        std::vector<std::string> scc;
        while (true) {
          const std::size_t member = stack_.back();
          stack_.pop_back();
          state_[member].on_stack = false;
          scc.push_back(nodes_[member]);
          if (member == node) break;
        }
        sccs_.push_back(std::move(scc));
      }
    }
  }

  void open_node(std::size_t node) {
    state_[node].index = counter_;
    state_[node].lowlink = counter_;
    ++counter_;
    state_[node].on_stack = true;
    stack_.push_back(node);
  }

  const std::vector<std::string>& nodes_;
  const std::map<std::string, std::set<std::string>>& out_;
  std::map<std::string, std::size_t> index_of_;
  std::vector<NodeState> state_;
  std::vector<std::size_t> stack_;
  std::vector<std::vector<std::string>> sccs_;
  std::size_t counter_ = 0;
};

}  // namespace

CallGraph CallGraph::build(const ModuleCfg& module) {
  CallGraph graph;
  std::set<std::string> known;
  for (const auto& fn : module.functions) {
    graph.functions_.push_back(fn.name);
    known.insert(fn.name);
  }

  std::map<std::pair<std::string, std::string>, std::size_t> site_counts;
  for (const auto& fn : module.functions) {
    for (const auto& block : fn.blocks) {
      const auto* call = block.internal_call();
      if (call == nullptr) continue;
      if (!known.contains(call->callee)) {
        throw std::invalid_argument("call graph: call to unknown function '" +
                                    call->callee + "'");
      }
      site_counts[{fn.name, call->callee}] += 1;
      graph.out_[fn.name].insert(call->callee);
    }
  }
  for (const auto& [pair, count] : site_counts) {
    graph.edges_.push_back({pair.first, pair.second, count});
  }

  // Tarjan emits an SCC only after all SCCs it can reach; that is exactly
  // the callees-first order aggregation wants.
  graph.sccs_ = TarjanScc(graph.functions_, graph.out_).run();
  for (std::size_t i = 0; i < graph.sccs_.size(); ++i) {
    for (const auto& name : graph.sccs_[i]) graph.scc_of_[name] = i;
  }
  return graph;
}

std::vector<std::string> CallGraph::callees(const std::string& caller) const {
  auto it = out_.find(caller);
  if (it == out_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

bool CallGraph::has_edge(const std::string& caller,
                         const std::string& callee) const {
  auto it = out_.find(caller);
  return it != out_.end() && it->second.contains(callee);
}

bool CallGraph::in_cycle_with(const std::string& a,
                              const std::string& b) const {
  auto ia = scc_of_.find(a);
  auto ib = scc_of_.find(b);
  if (ia == scc_of_.end() || ib == scc_of_.end()) return false;
  if (ia->second != ib->second) return false;
  if (a != b) return true;
  // Same function: a cycle only if it calls itself or sits in a multi-node
  // SCC.
  return sccs_[ia->second].size() > 1 || has_edge(a, a);
}

}  // namespace cmarkov::cfg
