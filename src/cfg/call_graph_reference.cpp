// Test oracle of the call graph, built into cmarkov_oracle: no shipped
// binary asks which functions main reaches.
#include "src/cfg/call_graph.hpp"

namespace cmarkov::cfg {

std::set<std::string> CallGraph::reachable_from(
    const std::string& entry) const {
  std::set<std::string> seen;
  std::vector<std::string> frontier{entry};
  while (!frontier.empty()) {
    const std::string fn = std::move(frontier.back());
    frontier.pop_back();
    if (!seen.insert(fn).second) continue;
    for (const auto& callee : callees(fn)) frontier.push_back(callee);
  }
  return seen;
}

}  // namespace cmarkov::cfg
