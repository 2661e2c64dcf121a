// DecisionRecord — the per-window audit record behind every anomaly
// verdict (ISSUE 5). Where the detector's SegmentVerdict answers "was this
// window anomalous", a DecisionRecord answers "why": one entry per window
// symbol carrying its forward log-probability contribution (log c_t, the
// scale factor of Rabiner's normalized forward recursion — the per-symbol
// contributions sum EXACTLY to the window log-likelihood because the
// likelihood is computed as that very sum), the most probable
// cluster-reduced hidden state after consuming the symbol, and whether the
// symbol is a call@caller pair the model has never seen.
//
// Records render as one JSON line each (`cmarkov.decision.v1`); the
// rendering is deterministic (fixed key order, locale-independent numbers,
// infinities as the string "-inf"/"inf") so sinks can be golden-tested.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cmarkov::obs {

/// Schema tag stamped into every JSONL decision line. Bump on any change
/// of key meaning; adding keys is backward compatible.
inline constexpr std::string_view kDecisionSchema = "cmarkov.decision.v1";

/// One window symbol's share of the verdict.
struct SymbolContribution {
  std::size_t position = 0;  ///< index within the scored window
  std::size_t symbol = 0;    ///< alphabet id (>= alphabet size when unknown)
  /// "callee@caller" ("<unknown>" when unnamed). A view into the producing
  /// detector's alphabet (or a string literal), NOT an owned copy: records
  /// are assembled on the scoring hot path for every sampled window, and
  /// copying 15+ label strings per window would dominate the tracing
  /// budget. Valid while that detector is alive: a record that can outlive
  /// its producer's binding (cmarkovd hot-reloads models under live
  /// sessions) holds the detector in DecisionRecord::label_owner.
  std::string_view label;
  /// log c_t: this symbol's additive share of the window log-likelihood.
  /// For an impossible window only the first failing symbol carries -inf
  /// (later positions report 0), so the sum still equals the window's -inf
  /// log-likelihood.
  double log_prob = 0.0;
  /// argmax_i alpha(t, i): most probable (cluster-reduced) hidden state
  /// after consuming this symbol; 0 when the forward pass never got here.
  std::size_t state = 0;
  /// Call@caller pair outside the model's vocabulary (the paper's
  /// out-of-context detection).
  bool unknown = false;
};

/// Full audit record for one scored window.
struct DecisionRecord {
  /// Ordinal of the scored window within its monitor (1-based,
  /// == MonitorStats::windows_scored at scoring time).
  std::uint64_t window_index = 0;
  std::string session;   ///< cmarkovd session id; empty outside the daemon
  std::string trace_id;  ///< protocol tid= value; empty when not supplied
  double log_likelihood = 0.0;
  double threshold = 0.0;
  /// log_likelihood - threshold (negative = below threshold = flagged).
  double margin = 0.0;
  bool flagged = false;
  bool unknown_symbol = false;
  bool alarm = false;
  /// True when the record exists because of 1-in-N sampling (as opposed to
  /// the always-on flagged/alarm path).
  bool sampled = false;
  std::vector<SymbolContribution> symbols;
  /// Keeps alive the bytes `symbols[*].label` view: the serving tier sets
  /// it to the scoring detector, so its ring and log records survive a
  /// hot reload. Null where the detector outlives every record by
  /// contract (a standalone monitor, the CLI's explain replay). Not
  /// rendered.
  std::shared_ptr<const void> label_owner;

  /// Sum of per-symbol log_prob values — equals log_likelihood (exactly
  /// for finite windows: same addends, same order).
  double contribution_sum() const;
};

/// Renders `value` for the decision schema: %.10g for finite values,
/// quoted "inf"/"-inf"/"nan" otherwise (JSON has no infinity literal).
std::string format_decision_value(double value);

/// One `cmarkov.decision.v1` JSON line (no trailing newline). Key order is
/// fixed and the output is byte-deterministic for a given record.
std::string decision_record_json(const DecisionRecord& record);

}  // namespace cmarkov::obs
