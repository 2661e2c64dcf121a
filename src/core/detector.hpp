// cmarkov::core::Detector — the library's public facade.
//
// Lifecycle mirrors the paper's two phases:
//   1. Detector::build(program)     — static analysis, state reduction, HMM
//                                     initialization;
//   2. detector.train(traces)       — Baum-Welch on normal traces (20%
//                                     termination split) and threshold
//                                     calibration at a target FP;
// then detector.classify(trace) flags any execution whose 15-call segments
// fall below the calibrated probability threshold (or contain calls the
// model has never seen in that calling context).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/hmm/baum_welch.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/hmm/trainer.hpp"
#include "src/obs/trace/decision_record.hpp"
#include "src/trace/event.hpp"
#include "src/trace/segmenter.hpp"

namespace cmarkov::core {

struct DetectorConfig {
  PipelineConfig pipeline;
  hmm::TrainingOptions training;
  trace::SegmentOptions segments;
  /// Calibration: the threshold is set so this fraction of held-out normal
  /// segments would be (wrongly) flagged.
  double target_fp = 0.01;
  /// Fraction of unique training segments held out for both Baum-Welch
  /// termination and threshold calibration.
  double holdout_fraction = 0.2;
  std::uint64_t seed = 1;
  /// When set, train() retains the hmm::TrainerState (corpus + iteration-0
  /// prefix accumulators) so callers can serialize it and later resume
  /// incremental training (`cmarkov train --save-state`, drift refresh).
  /// Off by default: the state holds a copy of the training corpus.
  bool keep_trainer_state = false;
};

/// Threshold calibration at a target false-positive budget: scores the
/// calibration segments under `model`, sorts, and picks the score at the
/// target_fp quantile (+infinity when the budget covers every segment).
/// Throws std::out_of_range for an id >= model.num_symbols(). Shared by
/// Detector::train and the drift-refresh path.
double calibrate_threshold(const hmm::Hmm& model,
                           const std::vector<hmm::ObservationSeq>& calibration,
                           double target_fp);

struct SegmentVerdict {
  double log_likelihood = 0.0;
  bool flagged = false;
  /// True when the segment contains an observation the model cannot emit
  /// (unknown call or unknown calling context).
  bool unknown_symbol = false;
};

struct TraceVerdict {
  bool anomalous = false;
  std::size_t total_segments = 0;
  std::size_t flagged_segments = 0;
  /// Lowest segment log-likelihood seen in the trace.
  double min_log_likelihood = 0.0;
  std::vector<SegmentVerdict> segments;
};

class Detector {
 public:
  /// Phase 1: builds the statically initialized model from a program.
  static Detector build(const ir::ProgramModule& program,
                        DetectorConfig config = {});

  /// Reassembles a detector from persisted parts (see model_io.hpp).
  static Detector from_parts(DetectorConfig config, hmm::Hmm model,
                             hmm::Alphabet alphabet, double threshold,
                             bool trained);

  /// Phase 2: trains on symbolized normal traces and calibrates the
  /// threshold (hmm::Trainer batch fit under the hood). Throws if the
  /// traces yield no segments.
  hmm::TrainingReport train(const std::vector<trace::Trace>& normal_traces);

  /// The resumable training state of the last train() call when
  /// DetectorConfig::keep_trainer_state was set; null otherwise (and for
  /// from_parts detectors). Serialize with core::save_trainer_state.
  const std::shared_ptr<const hmm::TrainerState>& trainer_state() const {
    return trainer_state_;
  }

  /// Frozen-alphabet segment encoding of one trace: the unique segments a
  /// trained model would score, with out-of-vocabulary observations mapped
  /// to the unknown sentinel. The incremental-absorption path (CLI
  /// --incremental, drift refresh) feeds these to Trainer::partial_fit.
  std::vector<hmm::ObservationSeq> encode_trace_segments(
      const trace::Trace& trace) const;

  /// A new trained detector with this detector's config/alphabet but a
  /// refreshed model (e.g. from Trainer::partial_fit) and a threshold
  /// recalibrated on `calibration` at config().target_fp. The model's
  /// emission width must still cover the alphabet.
  Detector rebuilt_with(hmm::Hmm model,
                        const std::vector<hmm::ObservationSeq>& calibration)
      const;

  /// Scores one segment (alphabet-frozen encoding) with the reference
  /// recursion, hmm::forward_scaled. Both overloads are the oracle the
  /// production scorers are held to and are defined in the cmarkov_oracle
  /// library (detector_reference.cpp), which no shipped binary links.
  SegmentVerdict score_segment(const hmm::ObservationSeq& segment) const;

  /// Scores one segment and exposes the reference forward pass. Same cost
  /// as the plain overload — the likelihood already requires the full
  /// forward recursion. For segments with unknown observations (which the
  /// forward pass cannot consume) `forward` comes back empty with
  /// impossible=true and log_likelihood=-infinity.
  SegmentVerdict score_segment(const hmm::ObservationSeq& segment,
                               hmm::ForwardResult* forward) const;

  /// Assembles the `cmarkov.decision.v1` audit record for a scored
  /// segment from its forward pass's T scales c_t (0 from an impossible
  /// step on) and T kept normalized alpha rows (row t at alpha[t*N], read
  /// only where c_t > 0) — ScoringKernel::score_window's WindowAudit:
  /// per-symbol log c_t contributions (summing exactly to
  /// verdict.log_likelihood), argmax hidden states, unknown-call marks,
  /// and the threshold margin. Unknown-symbol verdicts ignore `scales` /
  /// `alpha`. session / trace_id / window_index / alarm / sampled are left
  /// for the caller to fill.
  obs::DecisionRecord make_decision_record(
      const hmm::ObservationSeq& segment, const SegmentVerdict& verdict,
      std::span<const double> scales, std::span<const double> alpha) const;

  /// Classifies a full symbolized trace.
  TraceVerdict classify(const trace::Trace& trace) const;

  /// Lowest segment log-likelihood of a trace (quick score).
  double score(const trace::Trace& trace) const;

  bool trained() const { return trained_; }
  double threshold() const { return threshold_; }
  void set_threshold(double threshold) { threshold_ = threshold; }

  const hmm::Hmm& model() const { return hmm_; }
  const hmm::Alphabet& alphabet() const { return alphabet_; }
  const DetectorConfig& config() const { return config_; }

  /// Hidden-state count (after clustering, for CMarkov configs).
  std::size_t num_states() const { return hmm_.num_states(); }

  /// Static-analysis phase timings (empty for from_parts detectors).
  const PhaseTimer& build_timings() const { return build_timings_; }

  /// Human-readable hidden-state labels (empty for from_parts detectors).
  const std::vector<std::string>& state_labels() const {
    return state_labels_;
  }

 private:
  Detector() = default;

  hmm::ObservationSeq encode(const trace::Trace& trace) const;
  /// Verdicts of a trace's segments, in order, from hmm::forward_pass on
  /// two ping-pong rows over one forward_tables: bit-identical to
  /// score_segment's reference recursion, without its T x N matrix.
  std::vector<SegmentVerdict> score_trace_segments(
      const trace::Trace& trace) const;

  DetectorConfig config_;
  hmm::Hmm hmm_;
  hmm::Alphabet alphabet_;
  double threshold_ = 0.0;
  bool trained_ = false;
  PhaseTimer build_timings_;
  std::vector<std::string> state_labels_;
  std::shared_ptr<const hmm::TrainerState> trainer_state_;
};

}  // namespace cmarkov::core
