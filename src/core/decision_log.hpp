// DecisionEntry and DecisionLog — decision records kept compact until they
// are read.
//
// A recorded window's `cmarkov.decision.v1` DecisionRecord (per-symbol
// log c_t, argmax states, labels, margin) is a function of the window's
// observation ids and the model that scored it. So the monitor's audit
// ring and the service-wide log keep only those ids, the verdict and the
// caller-stamped fields, and derive the record when someone reads it:
// TRACE, the --decision-log dump, `cmarkov explain`, tests. A scoring
// thread admits a window by copying its ids; it runs no extra pass and
// builds no per-symbol table.
//
// The read runs one kept-rows pass of the image that scored the window
// (ScoringKernel::score_window with a WindowAudit), then
// Detector::make_decision_record. That pass is the same recursion over the
// same tables and ids as the one whose log-likelihood the entry stores, so
// the derived record is the one the worker would have built (docs/
// ALGORITHMS.md section 5). The read checks that: a pass whose
// log-likelihood lacks the stored bits throws std::logic_error, so every
// read also re-checks the window memo that may have answered the window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/detector.hpp"
#include "src/core/scoring_kernel.hpp"
#include "src/obs/trace/bounded_log.hpp"
#include "src/obs/trace/decision_record.hpp"

namespace cmarkov::core {

/// One recorded window, as the scoring thread left it.
struct DecisionEntry {
  /// The window's observation ids, oldest first, in the alphabet of the
  /// model that scored it.
  std::vector<std::size_t> window;
  /// The verdict as scored; record() re-derives and checks these bits.
  double log_likelihood = 0.0;
  bool flagged = false;
  bool unknown_symbol = false;
  /// The caller-stamped DecisionRecord fields, copied into the record.
  bool alarm = false;
  bool sampled = false;
  std::uint64_t window_index = 0;
  std::string session;
  std::string trace_id;
  /// The image and detector that scored the window, so a reload before
  /// the read still explains it with the old model. `kernel` keeps its
  /// image alive. `label_owner` keeps `*detector` alive where it may die
  /// first: the serving tier sets it, and it becomes the record's
  /// DecisionRecord::label_owner.
  std::shared_ptr<const ScoringKernel> kernel;
  const Detector* detector = nullptr;
  std::shared_ptr<const void> label_owner;

  /// The full record: one kept-rows pass, then make_decision_record.
  /// Throws std::logic_error when that pass does not reproduce the stored
  /// log-likelihood bits.
  obs::DecisionRecord record() const;
};

/// The service-wide decision sink: a lock-free BoundedLog of entries plus
/// the `cmarkov.decision.v1` JSONL rendering. cmarkovd appends every
/// recorded decision here (scoring workers, wait-free) and dumps the log on
/// demand (--decision-log, tests). Output is byte-deterministic for a
/// deterministic append order.
class DecisionLog {
 public:
  explicit DecisionLog(std::size_t capacity) : log_(capacity) {}

  /// Wait-free append of a copy; false (and a counted drop) once full.
  bool append(const DecisionEntry& entry) { return log_.append(entry); }

  std::uint64_t appended() const { return log_.appended(); }
  std::uint64_t dropped() const { return log_.dropped(); }
  std::size_t capacity() const { return log_.capacity(); }

  /// True once the log can never accept another entry; hot-path callers
  /// may skip the copy and call drop() instead.
  bool full() const { return log_.full(); }

  /// Drop accounting for entries skipped via the full() fast path.
  void drop(std::uint64_t n = 1) { log_.drop(n); }

  /// Every published entry's record, derived, one `cmarkov.decision.v1`
  /// JSON line each (trailing newline per line).
  std::string to_jsonl() const;

 private:
  obs::BoundedLog<DecisionEntry> log_;
};

}  // namespace cmarkov::core
