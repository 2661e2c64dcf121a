// Call graph over MiniC functions, with SCC condensation. The aggregation
// step (Section IV) inlines callee call-transition matrices bottom-up, so it
// needs callees ordered before callers; call-graph cycles (recursion) are
// collapsed and treated as pass-through, matching the paper's policy of
// leaving recursion to dynamic training.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cfg/cfg.hpp"

namespace cmarkov::cfg {

/// One caller -> callee edge with the number of syntactic call sites.
struct CallEdge {
  std::string caller;
  std::string callee;
  std::size_t site_count = 0;
};

class CallGraph {
 public:
  /// Builds from lowered CFGs. Unknown callees throw (run sema first).
  static CallGraph build(const ModuleCfg& module);

  const std::vector<std::string>& functions() const { return functions_; }
  const std::vector<CallEdge>& edges() const { return edges_; }

  /// Callees of `caller` (deduplicated, sorted).
  std::vector<std::string> callees(const std::string& caller) const;

  bool has_edge(const std::string& caller, const std::string& callee) const;

  /// Functions reachable from the entry point (inclusive). A test oracle:
  /// the suite tests hold every program to reaching (nearly) all of its
  /// functions from main. Defined in the cmarkov_oracle library
  /// (call_graph_reference.cpp), which no shipped binary links.
  std::set<std::string> reachable_from(const std::string& entry) const;

  /// Strongly connected components in reverse topological order of the
  /// condensation: every call from component i lands in some component j <=
  /// i, so processing components in index order visits callees before
  /// callers. Within a component the order is arbitrary.
  const std::vector<std::vector<std::string>>& scc_order() const {
    return sccs_;
  }

  /// True if `a` and `b` are in the same SCC (mutual recursion), or a == b
  /// with a self-loop.
  bool in_cycle_with(const std::string& a, const std::string& b) const;

 private:
  std::vector<std::string> functions_;
  std::vector<CallEdge> edges_;
  std::map<std::string, std::set<std::string>> out_;
  std::vector<std::vector<std::string>> sccs_;
  std::map<std::string, std::size_t> scc_of_;
};

}  // namespace cmarkov::cfg
