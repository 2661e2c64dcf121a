// Online monitoring: streaming anomaly detection over a live call-event
// feed (the auditd-style production deployment the paper sketches for its
// implementation section). Each incoming event slides a window of the
// detector's segment length; complete windows are scored against the
// trained HMM and alarms are raised with simple hysteresis (consecutive
// flagged windows + cooldown) to keep alert volume manageable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "src/core/decision_log.hpp"
#include "src/core/detector.hpp"
#include "src/core/scoring_kernel.hpp"
#include "src/trace/symbolizer.hpp"

namespace cmarkov::core {

// Hysteresis/cooldown semantics (asserted by online_monitor_test):
//   - A streak of consecutive flagged windows is kept; any clean window
//     resets it, and raising an alarm resets it.
//   - An alarm fires on a flagged window when the streak reaches
//     `windows_to_alarm` AND no cooldown is pending.
//   - `cooldown_events` counts *events fed* (on- or off-stream), not scored
//     windows. While the cooldown is pending no alarm can fire, but flagged
//     windows still extend the streak — so if the anomaly persists, the
//     first flagged window at or after cooldown expiry re-alarms
//     immediately; a fresh `windows_to_alarm` streak is NOT required.
//   - Net effect for a persistent anomaly: the first alarm needs
//     `windows_to_alarm` flagged windows, then one alarm every
//     `cooldown_events` events (or every `windows_to_alarm` windows when
//     the cooldown is 0).
/// Decision-audit sampling (docs/OBSERVABILITY.md). When enabled, scored
/// windows selected by the guard are recorded in a bounded ring, and each
/// can be read back as a full `cmarkov.decision.v1` DecisionRecord
/// (per-symbol forward contributions, argmax states, unknown-call marks,
/// threshold margin):
///   - every `sample_every`-th scored window is recorded (0 disables the
///     periodic sample);
///   - flagged windows and alarms are always recorded when
///     `always_on_flagged` is set, regardless of the period.
/// Every window scores through the compiled kernel's memo
/// (ScoringKernel::score): a miss runs one two-row pass and a hit runs
/// none, recorded or not. No admitted window runs a pass on the scoring
/// thread. The ring keeps a DecisionEntry (the window's ids, the verdict,
/// the scoring model), and its alpha rows, scales and argmax states are
/// recomputed when the record is read (DecisionEntry::record). So tracing
/// costs the sampling branch and an id copy out of the window ring per
/// admitted window, into an entry whose buffer the ring reuses; reading a
/// record costs one kept-rows pass.
struct DecisionTraceOptions {
  bool enabled = false;
  /// Record every Nth scored window (1 = all, 0 = only flagged/alarms).
  std::size_t sample_every = 0;
  /// Always record flagged windows and alarms (the audit-trail guarantee:
  /// no anomaly verdict without its explanation).
  bool always_on_flagged = true;
  /// Records retained per monitor; older records are evicted.
  std::size_t ring_capacity = 32;
};

struct MonitorStats {
  std::size_t events_seen = 0;
  std::size_t events_observed = 0;  ///< events matching the model's stream
  std::size_t windows_scored = 0;
  std::size_t windows_flagged = 0;
  std::size_t alarms = 0;
};

/// Recyclable heap buffers backing a monitor's sliding window and scoring
/// scratch — the dominant per-session allocation of the serving tier. The
/// session manager pools these across session open/evict cycles so a
/// million-session churn does not hammer the allocator; a default-built
/// value is an ordinary cold start.
struct MonitorStorage {
  std::vector<std::size_t> window;
  hmm::ObservationSeq segment;
  /// The window's memo key words (ScoringKernel::slide_key).
  std::vector<std::uint64_t> key;
  /// Flat forward scratch for the kernel path (two alpha rows).
  std::vector<double> scratch;
};

/// Complete scoring state of a monitor, linearized. All fields are exact
/// integers, so a snapshot -> restore round trip is bit-identical: a
/// restored monitor produces the same verdicts, scores, and decision
/// records as one that was never interrupted (asserted by
/// online_monitor_test and serve_net_test). The decision-audit ring is
/// deliberately NOT part of the snapshot — it is a flight recorder, not
/// scoring state.
struct MonitorSnapshot {
  /// Encoded window observation ids, oldest first (alphabet indices of the
  /// model the monitor was bound to; meaningless under a different model).
  std::vector<std::size_t> window;
  std::size_t consecutive_flagged = 0;
  std::size_t cooldown_remaining = 0;
  MonitorStats stats;
};

struct MonitorOptions {
  /// Consecutive flagged windows required before an alarm fires.
  std::size_t windows_to_alarm = 1;
  /// Events suppressed after an alarm before the next one may fire.
  std::size_t cooldown_events = 0;
  /// Per-window decision audit records (off by default).
  DecisionTraceOptions decisions;
};

/// Per-event monitoring outcome.
struct MonitorUpdate {
  /// False while the window is still filling.
  bool window_complete = false;
  double log_likelihood = 0.0;
  /// Window scored below the detector threshold (or contains an unknown
  /// observation).
  bool flagged = false;
  /// Window contained a call the model has never seen in that context.
  bool unknown_symbol = false;
  /// Alarm fired on this event (hysteresis + cooldown applied).
  bool alarm = false;
  /// The window's verdict came from the kernel's window memo
  /// (ScoringKernel::score) instead of a forward pass.
  bool memo_hit = false;
  /// Audit entry for this window when decision tracing admitted it; null
  /// otherwise (record() derives the full record). Points into the
  /// monitor's ring — valid until the next on_event call on the same
  /// monitor. The window's ids are OnlineMonitor::window().
  const DecisionEntry* decision = nullptr;
};

class OnlineMonitor {
 public:
  /// `detector` must be trained and must outlive the monitor (or be
  /// replaced via rebind before it dies). `symbolizer` may be null when
  /// events arrive pre-symbolized; otherwise raw site addresses are
  /// resolved on the fly (cached-addr2line deployment). `storage` donates
  /// recycled buffers (see MonitorStorage); the window ring is sized to
  /// the detector's segment length either way. `kernel` is the compiled
  /// scoring image to share (the serve tier passes the ModelRegistry's
  /// per-version kernel so a million monitors hold one image); when null,
  /// the monitor compiles its own — correct but wasteful at scale.
  OnlineMonitor(const Detector& detector,
                const trace::Symbolizer* symbolizer = nullptr,
                MonitorOptions options = {}, MonitorStorage storage = {},
                std::shared_ptr<const ScoringKernel> kernel = nullptr);

  /// Feeds one event; returns what happened. Events outside the model's
  /// call stream (e.g. libcalls on a syscall model) are counted but
  /// otherwise ignored. `site` is the calling context (CallEvent::caller),
  /// `callee` the called function (CallEvent::name); neither is copied.
  /// The serve tier feeds this entry straight from a queued frame's bytes.
  MonitorUpdate on_event(ir::CallKind kind, std::string_view site,
                         std::string_view callee);

  /// on_event of an owned event. An unsymbolized event (empty caller) is
  /// first resolved through the symbolizer, when the monitor has one.
  MonitorUpdate on_event(trace::CallEvent event);

  const MonitorStats& stats() const { return stats_; }

  /// The window's encoded observation ids, oldest first: after a complete
  /// window, the ids it scored. A memo hit reads only the window's key, so
  /// the ids are copied out of the ring when asked for, once per event.
  /// Valid until the next on_event, reset_window, restore or rebind on
  /// this monitor. The serve tier's drift feed reads each completed window
  /// here; DriftMonitor copies the clean ones into its absorb buffer for
  /// incremental retraining.
  const hmm::ObservationSeq& window();

  /// Copies of up to `n` of the newest retained decision entries, oldest
  /// first (none unless decision tracing is enabled). The ring holds at
  /// most DecisionTraceOptions::ring_capacity.
  std::vector<DecisionEntry> recent_entries(
      std::size_t n = std::numeric_limits<std::size_t>::max()) const;

  /// The records of recent_entries(n), each derived by one kept-rows pass
  /// (DecisionEntry::record). A record scored before a rebind is derived
  /// from the detector that scored it, which must still be alive.
  std::vector<obs::DecisionRecord> recent_decisions(
      std::size_t n = std::numeric_limits<std::size_t>::max()) const;

  /// Newest retained decision entry, mutable (null when none). The
  /// serving tier stamps session / trace ids and the detector pin into it
  /// right after the on_event call that produced it.
  DecisionEntry* last_decision() {
    return decisions_.empty() ? nullptr : &decisions_[newest_decision()];
  }

  /// Clears the window and hysteresis state (e.g. on process restart), but
  /// keeps cumulative stats.
  void reset_window();

  /// Linearized copy of the complete scoring state (window contents,
  /// hysteresis, cumulative stats). restore() on a monitor bound to the
  /// same model resumes bit-identically, as if never interrupted.
  MonitorSnapshot snapshot() const;

  /// Reinstates a snapshot taken from a monitor bound to the same model.
  /// Throws std::invalid_argument when the snapshot's window exceeds this
  /// detector's segment length (a different-model snapshot).
  void restore(const MonitorSnapshot& snapshot);

  /// Swaps the detector under a live monitor (hot model reload). The
  /// window and flagged-streak reset — window ids encode the OLD model's
  /// alphabet and cannot be rescored — while cumulative stats and any
  /// pending alarm cooldown carry over. The new detector must be trained;
  /// the window ring is resized to its segment length. `kernel` must be
  /// compiled from `detector` (the serve tier passes the new registry
  /// version's shared image); when null a private kernel is compiled.
  void rebind(const Detector& detector,
              std::shared_ptr<const ScoringKernel> kernel = nullptr);

  /// The compiled scoring image this monitor scores through (shared,
  /// read-only; never null after construction).
  const std::shared_ptr<const ScoringKernel>& kernel() const {
    return kernel_;
  }

  /// Heap bytes held by this monitor's scoring state (the per-session
  /// memory bill the serving tier budgets): the object itself plus window
  /// ring, segment scratch, window key and the kernel's flat forward
  /// scratch.
  /// Excludes the decision-audit ring (a flight recorder, not scoring
  /// state) and the shared kernel image, which is per-model-version, not
  /// per-session (ScoringKernel::image_bytes).
  std::size_t state_bytes() const;

  /// Moves the window/scratch buffers out for pool recycling. The monitor
  /// must not be fed afterwards; destroy it.
  MonitorStorage release_storage();

 private:
  /// Writes the just-scored window into the ring's next entry.
  DecisionEntry& admit_decision(const SegmentVerdict& verdict, bool alarm,
                                bool sampled);
  std::size_t newest_decision() const {
    return (decisions_next_ == 0 ? decisions_.size() : decisions_next_) - 1;
  }
  /// Rebuilds key_ and unknown_ids_ from the ring (snapshots carry only
  /// the ids). Called by whatever rewrites the ring other than on_event.
  void rebuild_key();

  const Detector* detector_;
  const trace::Symbolizer* symbolizer_;
  MonitorOptions options_;
  /// Shared compiled model image; scores every window.
  std::shared_ptr<const ScoringKernel> kernel_;
  KernelScratch scratch_;            // flat forward rows, pool-recycled
  std::vector<std::size_t> window_;  // ring of encoded observation ids
  std::size_t window_head_ = 0;      // index of the oldest id
  std::size_t window_count_ = 0;
  /// The ring's memo key, slid with every id (ScoringKernel::slide_key),
  /// and how many of the ring's ids are unknown to the model.
  std::vector<std::uint64_t> key_;
  std::size_t unknown_ids_ = 0;
  hmm::ObservationSeq segment_;      // window() copy-out, reused per window
  bool segment_current_ = false;     // segment_ holds the ring's ids
  /// Bounded audit ring. It grows to ring_capacity entries, then the
  /// oldest (at decisions_next_) is overwritten in place, reusing its id
  /// buffer.
  std::vector<DecisionEntry> decisions_;
  std::size_t decisions_next_ = 0;
  std::size_t consecutive_flagged_ = 0;
  std::size_t cooldown_remaining_ = 0;
  MonitorStats stats_;
};

}  // namespace cmarkov::core
