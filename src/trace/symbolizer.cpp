#include "src/trace/symbolizer.hpp"

#include <algorithm>
#include <stdexcept>

namespace cmarkov::trace {

Symbolizer::Symbolizer(const cfg::ModuleCfg& module) {
  for (const auto& fn : module.functions) {
    // Functions with no instructions still occupy their base address.
    const std::uint64_t end = std::max(fn.end_address, fn.base_address + 1);
    ranges_.push_back({fn.base_address, end, fn.name});
  }
  std::sort(ranges_.begin(), ranges_.end(),
            [](const Range& a, const Range& b) { return a.begin < b.begin; });
  for (std::size_t i = 1; i < ranges_.size(); ++i) {
    if (ranges_[i].begin < ranges_[i - 1].end) {
      throw std::invalid_argument("Symbolizer: overlapping function ranges");
    }
  }
}

std::optional<std::string> Symbolizer::resolve(std::uint64_t address) const {
  // First range with begin > address, then step back.
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), address,
      [](std::uint64_t addr, const Range& r) { return addr < r.begin; });
  if (it == ranges_.begin()) return std::nullopt;
  --it;
  if (address >= it->begin && address < it->end) return it->function;
  return std::nullopt;
}

void Symbolizer::symbolize(Trace& trace) const {
  for (auto& event : trace.events) {
    event.caller = resolve(event.site_address).value_or(kUnknownCaller);
    // Grandparent context: "-" at the entry function (no caller's caller),
    // "?" for forged/unmapped stack contents.
    if (event.grandparent_address == 0) {
      event.grandcaller = kNoGrandcaller;
    } else {
      event.grandcaller =
          resolve(event.grandparent_address).value_or(kUnknownCaller);
    }
  }
}

}  // namespace cmarkov::trace
