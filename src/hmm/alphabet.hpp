// Observation alphabet: interning of call observation strings to dense ids.
//
// The four compared models differ in how a call event maps to an observation
// symbol: context-sensitive models (CMarkov, Regular-context) observe
// "name@caller", context-insensitive ones (STILO, Regular-basic) observe
// "name". ObservationEncoding fixes that mapping in one place so static
// initialization and trace encoding agree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/context.hpp"

namespace cmarkov::hmm {

// Two finer-than-paper granularities exist as extensions, both testing the
// paper's position that 1-level caller context is the sweet spot:
//  - kSiteSensitive (program-counter context a la Sekar's FSA): the
//    observation also carries the call-site address, distinguishing
//    same-named calls within one function;
//  - kDeepContext (VtPath-style 2-level stack context): the observation
//    carries the caller AND the caller's caller.
// Only trace encoding can produce these observations (the static model
// merges sites and keeps 1 level by design), so they are used with
// randomly initialized models.
enum class ObservationEncoding {
  kContextSensitive,
  kContextFree,
  kSiteSensitive,
  kDeepContext,
};

/// Renders one call event as an observation string. For kSiteSensitive use
/// encode_site_observation (this overload has no site address and falls
/// back to caller context).
std::string encode_observation(const std::string& call_name,
                               const std::string& caller,
                               ObservationEncoding encoding);

/// Site-granular observation: "name@caller+0x<site>".
std::string encode_site_observation(const std::string& call_name,
                                    const std::string& caller,
                                    std::uint64_t site_address);

/// Renders a static-analysis call symbol as an observation string (must be
/// an external symbol).
std::string encode_observation(const analysis::CallSymbol& symbol,
                               ObservationEncoding encoding);

/// Bidirectional string <-> id mapping. Ids are dense and stable in
/// insertion order.
class Alphabet {
 public:
  /// Returns the id for `symbol`, inserting it if new.
  std::size_t intern(const std::string& symbol);

  /// Id of an existing symbol, or nullopt.
  std::optional<std::size_t> find(const std::string& symbol) const;

  const std::string& name(std::size_t id) const;

  std::size_t size() const { return symbols_.size(); }

  const std::vector<std::string>& symbols() const { return symbols_; }

 private:
  std::vector<std::string> symbols_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace cmarkov::hmm
