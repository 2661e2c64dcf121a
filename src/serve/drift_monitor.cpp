#include "src/serve/drift_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/core/detector.hpp"
#include "src/util/logging.hpp"

namespace cmarkov::serve {

/// Histogram stand-in for -infinity window log-likelihoods (impossible
/// windows); matches TrainingOptions::impossible_penalty. Their mass
/// piling into the lowest bucket is itself the drift signal.
constexpr double kImpossiblePenalty = -1e4;

/// Absorb buffer capacity: once full, the oldest clean window is replaced
/// (the buffer tracks the *current* workload).
constexpr std::size_t kMaxAbsorbSegments = 4096;

DriftMonitor::DriftMonitor(DriftOptions options, obs::MetricsRegistry* metrics)
    : options_(options) {
  if (options_.baseline_windows == 0 || options_.recent_windows == 0 ||
      options_.buckets == 0 || options_.consecutive_epochs == 0) {
    throw std::invalid_argument("DriftMonitor: window/bucket/epoch knobs "
                                "must be positive");
  }
  baseline_samples_.reserve(options_.baseline_windows);
  if (metrics != nullptr) {
    windows_total_ = &metrics->counter("cmarkov_drift_windows_total");
    epochs_total_ = &metrics->counter("cmarkov_drift_epochs_total");
    breaches_total_ = &metrics->counter("cmarkov_drift_breaches_total");
    ks_gauge_ = &metrics->gauge("cmarkov_drift_ks_ratio");
    absorb_depth_gauge_ =
        &metrics->gauge("cmarkov_drift_absorb_depth_ratio");
  }
}

void DriftMonitor::freeze_baseline_locked() {
  // Bucket bounds from the baseline's empirical quantiles, deduplicated to
  // satisfy the Histogram contract (strictly increasing, finite). Ties —
  // e.g. a dominant repeated window score — collapse buckets; at least one
  // bound always survives.
  std::vector<double> sorted = baseline_samples_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> bounds;
  bounds.reserve(options_.buckets);
  for (std::size_t b = 1; b < options_.buckets; ++b) {
    const std::size_t at = (b * sorted.size()) / options_.buckets;
    const double bound = sorted[std::min(at, sorted.size() - 1)];
    if (bounds.empty() || bound > bounds.back()) bounds.push_back(bound);
  }
  if (bounds.empty() || sorted.back() > bounds.back()) {
    bounds.push_back(sorted.back());
  }
  baseline_ = std::make_unique<obs::Histogram>(
      std::span<const double>(bounds));
  recent_ = std::make_unique<obs::Histogram>(
      std::span<const double>(bounds));
  for (double sample : baseline_samples_) baseline_->record(sample);
  baseline_samples_.clear();
  baseline_samples_.shrink_to_fit();
}

void DriftMonitor::evaluate_epoch_locked() {
  // Windowed KS-style statistic: the maximum gap between the baseline and
  // recent-epoch empirical CDFs, evaluated at every bucket boundary (the
  // finest resolution two fixed-bucket histograms support).
  const std::vector<std::uint64_t> base_counts = baseline_->bucket_counts();
  const std::vector<std::uint64_t> recent_counts = recent_->bucket_counts();
  const double base_total = static_cast<double>(baseline_->count());
  const double recent_total = static_cast<double>(recent_->count());
  double ks = 0.0;
  double base_cum = 0.0;
  double recent_cum = 0.0;
  for (std::size_t b = 0; b < base_counts.size(); ++b) {
    base_cum += static_cast<double>(base_counts[b]) / base_total;
    recent_cum += static_cast<double>(recent_counts[b]) / recent_total;
    ks = std::max(ks, std::abs(base_cum - recent_cum));
  }
  last_ks_ = ks;
  epochs_ += 1;
  if (epochs_total_ != nullptr) epochs_total_->add(1);
  if (ks_gauge_ != nullptr) ks_gauge_->set(ks);

  if (ks > options_.ks_threshold) {
    breach_streak_ += 1;
    if (breaches_total_ != nullptr) breaches_total_->add(1);
    if (breach_streak_ >= options_.consecutive_epochs) refresh_armed_ = true;
  } else {
    breach_streak_ = 0;
  }

  // Fresh epoch over the same bounds.
  recent_ = std::make_unique<obs::Histogram>(
      std::span<const double>(baseline_->bounds()));
  recent_count_ = 0;
}

void DriftMonitor::observe(double log_likelihood, bool flagged,
                           bool unknown_symbol,
                           const hmm::ObservationSeq& window) {
  const double sample =
      std::isfinite(log_likelihood) ? log_likelihood : kImpossiblePenalty;
  const std::lock_guard lock(mu_);
  if (windows_total_ != nullptr) windows_total_->add(1);

  if (baseline_ == nullptr) {
    baseline_samples_.push_back(sample);
    if (baseline_samples_.size() >= options_.baseline_windows) {
      freeze_baseline_locked();
    }
  } else {
    recent_->record(sample);
    recent_count_ += 1;
    if (recent_count_ >= options_.recent_windows) evaluate_epoch_locked();
  }

  if (!flagged && !unknown_symbol) {
    if (absorb_.size() < kMaxAbsorbSegments) {
      absorb_.push_back(window);
    } else {
      // Full: overwrite the oldest so the batch tracks the current
      // workload, not the first windows after the last refresh.
      absorb_[absorb_next_] = window;
      absorb_next_ = (absorb_next_ + 1) % kMaxAbsorbSegments;
    }
    if (absorb_depth_gauge_ != nullptr) {
      absorb_depth_gauge_->set(
          static_cast<double>(absorb_.size()) /
          static_cast<double>(kMaxAbsorbSegments));
    }
  }
}

bool DriftMonitor::refresh_due() const {
  const std::lock_guard lock(mu_);
  return refresh_armed_ && absorb_.size() >= options_.min_absorb_segments;
}

std::vector<hmm::ObservationSeq> DriftMonitor::take_absorb_buffer() {
  const std::lock_guard lock(mu_);
  std::vector<hmm::ObservationSeq> batch = std::move(absorb_);
  absorb_.clear();
  absorb_next_ = 0;
  refresh_armed_ = false;
  breach_streak_ = 0;
  if (absorb_depth_gauge_ != nullptr) absorb_depth_gauge_->set(0.0);
  return batch;
}

void DriftMonitor::reset_for_new_model() {
  const std::lock_guard lock(mu_);
  baseline_samples_.clear();
  baseline_samples_.reserve(options_.baseline_windows);
  baseline_.reset();
  recent_.reset();
  recent_count_ = 0;
  breach_streak_ = 0;
  refresh_armed_ = false;
  last_ks_ = 0.0;
  absorb_.clear();
  absorb_next_ = 0;
  if (absorb_depth_gauge_ != nullptr) absorb_depth_gauge_->set(0.0);
  if (ks_gauge_ != nullptr) ks_gauge_->set(0.0);
}

bool DriftMonitor::baseline_ready() const {
  const std::lock_guard lock(mu_);
  return baseline_ != nullptr;
}

double DriftMonitor::last_ks() const {
  const std::lock_guard lock(mu_);
  return last_ks_;
}

std::uint64_t DriftMonitor::epochs_evaluated() const {
  const std::lock_guard lock(mu_);
  return epochs_;
}

std::uint64_t DriftMonitor::breach_streak() const {
  const std::lock_guard lock(mu_);
  return breach_streak_;
}

std::size_t DriftMonitor::absorb_depth() const {
  const std::lock_guard lock(mu_);
  return absorb_.size();
}

DriftRefresher::DriftRefresher(SessionManager& manager,
                               ModelRegistry& registry,
                               std::string model_name, hmm::Trainer trainer,
                               DriftOptions options)
    : manager_(manager),
      registry_(registry),
      model_name_(std::move(model_name)),
      trainer_(std::move(trainer)),
      monitor_(options, &manager.instruments()),
      refreshes_total_(
          &manager.instruments().counter("cmarkov_drift_refreshes_total")) {}

bool DriftRefresher::poll() {
  if (!monitor_.refresh_due()) return false;
  std::vector<hmm::ObservationSeq> batch = monitor_.take_absorb_buffer();
  if (batch.empty()) return false;
  trainer_.partial_fit(batch);
  // Where the layers meet: hmm::Trainer hands over the refreshed model,
  // core rebuilds the detector (recalibrated threshold), and the reload
  // path swaps it under live traffic with zero accepted-event loss (the
  // registry compiles the new ScoringKernel).
  const std::shared_ptr<const core::Detector> base =
      registry_.require(model_name_);
  const hmm::TrainerState& state = trainer_.state();
  const std::vector<hmm::ObservationSeq>& calibration =
      state.holdout.empty() ? state.train : state.holdout;
  const ReloadReport report = manager_.reload_model(
      model_name_, std::make_shared<const core::Detector>(
                       base->rebuilt_with(trainer_.model(), calibration)));
  monitor_.reset_for_new_model();
  log_info() << "drift refresh: model=" << model_name_ << " version="
             << report.version << " sessions=" << report.sessions_rebound;
  refreshes_ += 1;
  refreshes_total_->add(1);
  return true;
}

}  // namespace cmarkov::serve
