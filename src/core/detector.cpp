#include "src/core/detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/hmm/forward_backward.hpp"
#include "src/obs/run_profile.hpp"

namespace cmarkov::core {

namespace {

/// Fraction of unique training segments held out for both Baum-Welch
/// termination and threshold calibration (the paper's 20%).
constexpr double kHoldoutFraction = 0.2;

/// Widens the emission matrix to `new_symbols` columns, giving new symbols
/// a small floor probability (rows renormalized). Needed when training
/// traces contain observations the static analysis never produced.
void extend_emission(hmm::Hmm& model, std::size_t new_symbols,
                     double floor = 1e-6) {
  const std::size_t old_symbols = model.num_symbols();
  if (new_symbols <= old_symbols) return;
  Matrix extended(model.num_states(), new_symbols, floor);
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    for (std::size_t k = 0; k < old_symbols; ++k) {
      extended(s, k) = model.emission(s, k);
    }
  }
  extended.normalize_rows();
  model.emission = std::move(extended);
}

}  // namespace

double calibrate_threshold(const hmm::Hmm& model,
                           const std::vector<hmm::ObservationSeq>& calibration,
                           double target_fp) {
  // forward_pass on two ping-pong rows: bit-identical to forward_scaled.
  const Matrix emission_t = model.emission.transposed();
  const hmm::ForwardTables tables = hmm::forward_tables(model, emission_t);
  std::vector<double> rows(2 * model.num_states());
  std::vector<double> scores;
  scores.reserve(calibration.size());
  for (const auto& segment : calibration) {
    if (!segment.empty() && std::ranges::max(segment) >= model.num_symbols()) {
      throw std::out_of_range("calibrate_threshold: id out of range");
    }
    scores.push_back(
        hmm::forward_pass(tables, segment, {.alpha = rows.data()}));
  }
  std::sort(scores.begin(), scores.end());
  const auto budget = static_cast<std::size_t>(
      std::floor(target_fp * static_cast<double>(scores.size())));
  return budget >= scores.size() ? std::numeric_limits<double>::infinity()
                                 : scores[budget];
}

Detector Detector::build(const ir::ProgramModule& program,
                         DetectorConfig config) {
  Detector detector;
  detector.config_ = config;
  Rng rng(config.seed);
  StaticPipelineResult pipeline =
      run_static_pipeline(program, config.pipeline, rng);
  detector.hmm_ = std::move(pipeline.init.model);
  detector.alphabet_ = std::move(pipeline.alphabet);
  detector.build_timings_ = pipeline.timings;
  detector.state_labels_ = std::move(pipeline.init.state_labels);
  detector.threshold_ = -std::numeric_limits<double>::infinity();
  return detector;
}

Detector Detector::from_parts(DetectorConfig config, hmm::Hmm model,
                              hmm::Alphabet alphabet, double threshold,
                              bool trained) {
  model.validate();
  if (model.num_symbols() < alphabet.size()) {
    throw std::invalid_argument(
        "Detector::from_parts: emission narrower than alphabet");
  }
  Detector detector;
  detector.config_ = std::move(config);
  detector.hmm_ = std::move(model);
  detector.alphabet_ = std::move(alphabet);
  detector.threshold_ = threshold;
  detector.trained_ = trained;
  return detector;
}

hmm::ObservationSeq Detector::encode(const trace::Trace& trace) const {
  return trace::encode_trace_frozen(
      trace, config_.pipeline.filter,
      config_.pipeline.context_sensitive
          ? hmm::ObservationEncoding::kContextSensitive
          : hmm::ObservationEncoding::kContextFree,
      alphabet_, alphabet_.size());
}

hmm::TrainingReport Detector::train(
    const std::vector<trace::Trace>& normal_traces) {
  obs::RunProfile* profile = config_.training.exec.profile;

  // Extend the vocabulary with dynamically observed symbols first.
  const hmm::ObservationEncoding encoding =
      config_.pipeline.context_sensitive
          ? hmm::ObservationEncoding::kContextSensitive
          : hmm::ObservationEncoding::kContextFree;
  trace::SegmentSet unique_segments(config_.segments);
  std::vector<hmm::ObservationSeq> segments;
  std::vector<hmm::ObservationSeq> holdout;
  std::vector<hmm::ObservationSeq> train_set;
  {
    const obs::ScopedTimer span(profile, "segment");
    for (const auto& trace : normal_traces) {
      unique_segments.add_trace(trace::encode_trace(
          trace, config_.pipeline.filter, encoding, alphabet_));
    }
    extend_emission(hmm_, alphabet_.size());

    segments = unique_segments.to_vector();
    if (segments.empty()) {
      throw std::invalid_argument(
          "Detector::train: traces yield no segments");
    }
    Rng rng(config_.seed ^ 0x7e57);
    rng.shuffle(segments);

    const auto holdout_count = static_cast<std::size_t>(
        kHoldoutFraction * static_cast<double>(segments.size()));
    holdout.assign(
        segments.begin(),
        segments.begin() + static_cast<std::ptrdiff_t>(holdout_count));
    train_set.assign(
        segments.begin() + static_cast<std::ptrdiff_t>(holdout_count),
        segments.end());
    if (train_set.empty()) train_set = segments;
  }

  hmm::Trainer trainer(hmm_, config_.training);
  const hmm::TrainingReport report = trainer.fit(train_set, holdout);
  hmm_ = trainer.model();
  trainer_state_ = config_.keep_trainer_state
                       ? std::make_shared<const hmm::TrainerState>(
                             trainer.state())
                       : nullptr;

  // Threshold calibration on the held-out normal segments (falls back to
  // the training set when the holdout is empty).
  const obs::ScopedTimer calibrate_span(profile, "calibrate");
  const auto& calibration = holdout.empty() ? train_set : holdout;
  threshold_ = calibrate_threshold(hmm_, calibration, config_.target_fp);
  trained_ = true;
  return report;
}

std::vector<hmm::ObservationSeq> Detector::encode_trace_segments(
    const trace::Trace& trace) const {
  trace::SegmentSet unique_segments(config_.segments);
  unique_segments.add_trace(encode(trace));
  return unique_segments.to_vector();
}

Detector Detector::rebuilt_with(
    hmm::Hmm model,
    const std::vector<hmm::ObservationSeq>& calibration) const {
  model.validate();
  if (model.num_symbols() < alphabet_.size()) {
    throw std::invalid_argument(
        "Detector::rebuilt_with: emission narrower than alphabet");
  }
  Detector refreshed;
  refreshed.config_ = config_;
  refreshed.hmm_ = std::move(model);
  refreshed.alphabet_ = alphabet_;
  refreshed.state_labels_ = state_labels_;
  refreshed.threshold_ =
      calibrate_threshold(refreshed.hmm_, calibration, config_.target_fp);
  refreshed.trained_ = true;
  return refreshed;
}

obs::DecisionRecord Detector::make_decision_record(
    const hmm::ObservationSeq& segment, const SegmentVerdict& verdict,
    std::span<const double> scales, std::span<const double> alpha) const {
  obs::DecisionRecord record;
  record.log_likelihood = verdict.log_likelihood;
  record.threshold = threshold_;
  record.margin = verdict.log_likelihood - threshold_;
  record.flagged = verdict.flagged;
  record.unknown_symbol = verdict.unknown_symbol;

  // Per-symbol contributions and argmax states are computed inline (same
  // semantics as hmm::per_symbol_log_contributions /
  // per_symbol_argmax_states, asserted by decision_trace_test) rather than
  // through the helpers: this runs per recorded window on the scoring hot
  // path, and the helpers' temporary vectors are measurable there.
  const std::size_t num_states = hmm_.num_states();
  bool dead = false;  // scoring stopped at an earlier impossible step
  record.symbols.reserve(segment.size());
  for (std::size_t t = 0; t < segment.size(); ++t) {
    obs::SymbolContribution entry;
    entry.position = t;
    entry.symbol = segment[t];
    entry.label = segment[t] < alphabet_.size()
                      ? std::string_view(alphabet_.name(segment[t]))
                      : std::string_view("<unknown>");
    entry.unknown = segment[t] >= hmm_.num_symbols();
    if (verdict.unknown_symbol) {
      // No forward pass ran: the unknown symbols absorb the -infinity
      // (their contributions still sum to the -infinity log-likelihood).
      entry.log_prob = entry.unknown
                           ? -std::numeric_limits<double>::infinity()
                           : 0.0;
    } else if (!dead) {
      if (scales[t] <= 0.0) {
        entry.log_prob = -std::numeric_limits<double>::infinity();
        dead = true;
      } else {
        entry.log_prob = std::log(scales[t]);
        const double* row = alpha.data() + t * num_states;
        for (std::size_t i = 1; i < num_states; ++i) {
          if (row[i] > row[entry.state]) entry.state = i;
        }
      }
    }
    record.symbols.push_back(entry);
  }
  return record;
}

TraceVerdict Detector::classify(const trace::Trace& trace) const {
  if (!trained_) {
    throw std::logic_error("Detector::classify: train the detector first");
  }
  TraceVerdict verdict;
  // hmm::forward_pass on two ping-pong rows over one forward_tables:
  // bit-identical to score_segment's reference recursion, without its
  // T x N matrix.
  const Matrix emission_t = hmm_.emission.transposed();
  const hmm::ForwardTables tables = hmm::forward_tables(hmm_, emission_t);
  std::vector<double> rows(2 * hmm_.num_states());
  for (const auto& segment :
       trace::segment_sequence(encode(trace), config_.segments)) {
    SegmentVerdict& sv = verdict.segments.emplace_back();
    if (!segment.empty() && std::ranges::max(segment) >= hmm_.num_symbols()) {
      // score_segment's contract: an unknown observation is impossible,
      // and no recursion runs.
      sv.unknown_symbol = true;
      sv.log_likelihood = -std::numeric_limits<double>::infinity();
      sv.flagged = true;
      continue;
    }
    sv.log_likelihood =
        hmm::forward_pass(tables, segment, {.alpha = rows.data()});
    sv.flagged = sv.log_likelihood < threshold_;
  }
  verdict.total_segments = verdict.segments.size();
  verdict.min_log_likelihood = std::numeric_limits<double>::infinity();
  for (const SegmentVerdict& sv : verdict.segments) {
    if (sv.flagged) verdict.flagged_segments += 1;
    verdict.min_log_likelihood =
        std::min(verdict.min_log_likelihood, sv.log_likelihood);
  }
  if (verdict.total_segments == 0) {
    verdict.min_log_likelihood = 0.0;
  }
  verdict.anomalous = verdict.flagged_segments > 0;
  return verdict;
}

}  // namespace cmarkov::core
