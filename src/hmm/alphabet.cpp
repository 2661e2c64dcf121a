#include "src/hmm/alphabet.hpp"

#include <cstdio>
#include <stdexcept>

namespace cmarkov::hmm {

std::string encode_observation(const std::string& call_name,
                               const std::string& caller,
                               ObservationEncoding encoding) {
  // Without a site address (static-analysis symbols), site encoding falls
  // back to caller context — the static matrix merges sites by design.
  if (encoding == ObservationEncoding::kContextFree || caller.empty()) {
    return call_name;
  }
  return call_name + "@" + caller;
}

std::string encode_site_observation(const std::string& call_name,
                                    const std::string& caller,
                                    std::uint64_t site_address) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "+0x%llx",
                static_cast<unsigned long long>(site_address));
  if (caller.empty()) return call_name + suffix;
  return call_name + "@" + caller + suffix;
}

std::string encode_observation(const analysis::CallSymbol& symbol,
                               ObservationEncoding encoding) {
  if (symbol.kind != analysis::CallSymbol::Kind::kExternal) {
    throw std::invalid_argument(
        "encode_observation: not an external call symbol: " +
        symbol.to_string());
  }
  return encode_observation(symbol.name, symbol.context, encoding);
}

std::size_t Alphabet::intern(const std::string& symbol) {
  auto it = index_.find(symbol);
  if (it != index_.end()) return it->second;
  const std::size_t id = symbols_.size();
  symbols_.push_back(symbol);
  index_.emplace(symbol, id);
  return id;
}

std::optional<std::size_t> Alphabet::find(const std::string& symbol) const {
  auto it = index_.find(symbol);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& Alphabet::name(std::size_t id) const {
  if (id >= symbols_.size()) throw std::out_of_range("Alphabet::name");
  return symbols_[id];
}

}  // namespace cmarkov::hmm
