#include "src/attack/abnormal_s.hpp"

#include <set>
#include <stdexcept>

namespace cmarkov::attack {

std::vector<LegitimateCall> legitimate_call_set(
    const std::vector<trace::Trace>& traces, analysis::CallFilter filter) {
  std::set<LegitimateCall> distinct;
  for (const auto& trace : traces) {
    for (const auto& event : trace.events) {
      if (!analysis::filter_matches(filter, event.kind)) continue;
      // First insertion wins; its addresses become the representatives.
      distinct.insert({event.name, event.caller, event.kind,
                       event.site_address, event.grandparent_address,
                       event.grandcaller});
    }
  }
  return {distinct.begin(), distinct.end()};
}

std::vector<EventSegment> event_segments(
    const std::vector<trace::Trace>& traces, analysis::CallFilter filter,
    std::size_t length) {
  if (length == 0) throw std::invalid_argument("event_segments: length == 0");
  std::vector<EventSegment> out;
  for (const auto& trace : traces) {
    EventSegment filtered;
    for (const auto& event : trace.events) {
      if (analysis::filter_matches(filter, event.kind)) {
        filtered.push_back(event);
      }
    }
    if (filtered.size() < length) continue;
    for (std::size_t start = 0; start + length <= filtered.size(); ++start) {
      out.emplace_back(filtered.begin() + static_cast<std::ptrdiff_t>(start),
                       filtered.begin() +
                           static_cast<std::ptrdiff_t>(start + length));
    }
  }
  return out;
}

namespace {

trace::CallEvent to_event(const LegitimateCall& call) {
  trace::CallEvent event;
  event.kind = call.kind;
  event.name = call.name;
  event.caller = call.caller;
  // Representative legitimate contexts: keeps site-/deep-granular
  // encodings honest (the replaced calls look legitimate at every context
  // granularity).
  event.site_address = call.site_address;
  event.grandparent_address = call.grandparent_address;
  event.grandcaller = call.grandcaller;
  return event;
}

bool same_calls(const EventSegment& a, const EventSegment& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].caller != b[i].caller ||
        a[i].kind != b[i].kind) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<EventSegment> generate_abnormal_s(
    const std::vector<EventSegment>& normal_segments,
    const std::vector<LegitimateCall>& legitimate, std::size_t count,
    Rng& rng, const AbnormalSOptions& options) {
  if (normal_segments.empty()) {
    throw std::invalid_argument("generate_abnormal_s: no normal segments");
  }
  if (legitimate.empty()) {
    throw std::invalid_argument("generate_abnormal_s: empty legitimate set");
  }
  if (options.segment_length < kAbnormalTailLength) {
    throw std::invalid_argument(
        "generate_abnormal_s: segment shorter than the replaced tail");
  }

  std::vector<EventSegment> out;
  out.reserve(count);
  while (out.size() < count) {
    const EventSegment& base = rng.pick(normal_segments);
    EventSegment mutated = base;
    if (mutated.size() > options.segment_length) {
      mutated.resize(options.segment_length);
    }
    const std::size_t tail =
        std::min(kAbnormalTailLength, mutated.size());
    bool changed = false;
    for (std::size_t attempt = 0; attempt < 8 && !changed; ++attempt) {
      for (std::size_t i = mutated.size() - tail; i < mutated.size(); ++i) {
        mutated[i] = to_event(rng.pick(legitimate));
      }
      changed = !same_calls(mutated, base);
    }
    if (!changed) continue;  // degenerate call set; try another base
    out.push_back(std::move(mutated));
  }
  return out;
}

}  // namespace cmarkov::attack
