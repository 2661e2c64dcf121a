// Abnormal-S synthesis (Section V-A): synthetic abnormal segments built by
// replacing the last 4 calls of a normal 15-call segment with calls drawn
// randomly from the program's legitimate call set.
//
// Generation happens at the *event* level ((name, caller) pairs), so the
// same abnormal segment can be encoded under every model's observation
// scheme — context-sensitive and context-free models are judged on
// identical abnormal behaviour.
#pragma once

#include <cstddef>
#include <vector>

#include "src/analysis/context.hpp"
#include "src/trace/event.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::attack {

/// One (name, caller) pair of the legitimate call set. `site_address`,
/// `grandparent_address` and `grandcaller` are representative values for
/// the pair (used when synthesizing events so that site-/deep-granular
/// encodings observe legitimate contexts); they do not participate in
/// identity/ordering.
struct LegitimateCall {
  std::string name;
  std::string caller;
  ir::CallKind kind = ir::CallKind::kSyscall;
  std::uint64_t site_address = 0;
  std::uint64_t grandparent_address = 0;
  std::string grandcaller;

  friend bool operator==(const LegitimateCall& a, const LegitimateCall& b) {
    return a.name == b.name && a.caller == b.caller && a.kind == b.kind;
  }
  friend auto operator<=>(const LegitimateCall& a, const LegitimateCall& b) {
    if (auto c = a.name <=> b.name; c != 0) return c;
    if (auto c = a.caller <=> b.caller; c != 0) return c;
    return a.kind <=> b.kind;
  }
};

/// Distinct calls observed in a set of symbolized traces, filtered to one
/// stream. This is the paper's "legitimate call set".
std::vector<LegitimateCall> legitimate_call_set(
    const std::vector<trace::Trace>& traces, analysis::CallFilter filter);

/// An event-level segment (usually 15 events).
using EventSegment = std::vector<trace::CallEvent>;

/// Cuts symbolized traces into event segments of `length` (stride 1),
/// filtered to one stream.
std::vector<EventSegment> event_segments(
    const std::vector<trace::Trace>& traces, analysis::CallFilter filter,
    std::size_t length = 15);

/// Trailing calls each Abnormal-S segment replaces (the paper replaces 4).
inline constexpr std::size_t kAbnormalTailLength = 4;

struct AbnormalSOptions {
  /// At least kAbnormalTailLength.
  std::size_t segment_length = 15;
};

/// Generates `count` Abnormal-S segments: each picks a random normal
/// segment and replaces its last kAbnormalTailLength calls with random
/// legitimate calls. Segments that happen to equal their source are
/// re-rolled (a few retries), since an unchanged segment is not abnormal.
std::vector<EventSegment> generate_abnormal_s(
    const std::vector<EventSegment>& normal_segments,
    const std::vector<LegitimateCall>& legitimate, std::size_t count,
    Rng& rng, const AbnormalSOptions& options = {});

}  // namespace cmarkov::attack
