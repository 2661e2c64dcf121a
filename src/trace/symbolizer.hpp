// Address-to-function resolution — the addr2line stand-in. Built from the
// synthetic code layout the CFG builder assigned; resolution results are
// cached implicitly by the O(log n) range lookup (the paper notes addr2line
// results "can be cached").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/cfg/cfg.hpp"
#include "src/trace/event.hpp"

namespace cmarkov::trace {

class Symbolizer {
 public:
  /// Indexes the address ranges of every function in the module.
  explicit Symbolizer(const cfg::ModuleCfg& module);

  /// Function containing `address`, or nullopt for addresses outside every
  /// function (e.g. forged ROP return addresses into unmapped regions).
  std::optional<std::string> resolve(std::uint64_t address) const;

  /// Fills `caller` on every event from its site address. Events whose
  /// address resolves nowhere get caller "?" — the distinguishable
  /// "missing/incorrect context" signal the paper reports for attack
  /// traces.
  void symbolize(Trace& trace) const;

 private:
  struct Range {
    std::uint64_t begin;
    std::uint64_t end;  // exclusive
    std::string function;
  };
  std::vector<Range> ranges_;  // sorted by begin
};

/// Marker caller assigned to unresolvable addresses.
inline constexpr const char* kUnknownCaller = "?";

/// Marker grandcaller for events issued from the entry function (there is
/// no caller's caller).
inline constexpr const char* kNoGrandcaller = "-";

}  // namespace cmarkov::trace
