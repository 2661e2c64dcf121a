// Score-distribution drift detection and incremental model refresh for
// cmarkovd (armed by the --drift flag; ROADMAP item 3).
//
// DriftMonitor watches the per-window log-likelihood stream of one served
// model. The first `baseline_windows` completed windows freeze a baseline
// obs::Histogram whose bucket bounds come from the baseline's empirical
// quantiles; subsequent windows fill a recent-epoch histogram over the
// same bounds. Every `recent_windows` windows the two distributions are
// compared with a windowed KS-style statistic — the maximum CDF gap across
// bucket boundaries — and `consecutive_epochs` breaching epochs in a row
// arm a refresh. Alongside, the monitor buffers the most recent *clean*
// windows (not flagged, no unknown symbols): those are the evidence that
// the score shift is benign workload drift rather than an attack, and
// they become the partial_fit absorption batch.
//
// DriftRefresher closes the loop: poll() (driven by cmarkovd's idle loop,
// or directly by tests) absorbs the buffered segments through
// hmm::Trainer::partial_fit, rebuilds the detector with a recalibrated
// threshold (core::calibrate_threshold, inside src/core so the serve tier
// never runs raw forward passes), hot-reloads it through
// SessionManager::reload_model (zero accepted-event loss, the registry
// compiles the new ScoringKernel), then re-baselines the monitor against
// the refreshed model.
//
// Instruments (registered lazily, only when a DriftMonitor exists, so the
// METRICS golden of drift-less deployments is unchanged):
//   cmarkov_drift_windows_total     windows observed
//   cmarkov_drift_epochs_total      recent-epoch KS evaluations
//   cmarkov_drift_breaches_total    epochs whose KS exceeded the threshold
//   cmarkov_drift_refreshes_total   models published by the refresher
//   cmarkov_drift_ks_ratio          last epoch's KS statistic
//   cmarkov_drift_absorb_depth_ratio  absorb buffer fill fraction
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/hmm/trainer.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/serve/session_manager.hpp"

namespace cmarkov::serve {

struct DriftOptions {
  /// Completed windows that freeze the baseline histogram.
  std::size_t baseline_windows = 512;
  /// Windows per evaluation epoch compared against the baseline.
  std::size_t recent_windows = 256;
  /// Histogram buckets (bounds from baseline empirical quantiles).
  std::size_t buckets = 16;
  /// KS statistic (max CDF gap, in [0,1]) that counts as a breach.
  double ks_threshold = 0.2;
  /// Consecutive breaching epochs before a refresh is requested.
  std::size_t consecutive_epochs = 2;
  /// Clean windows required in the absorb buffer before a refresh may
  /// run (too few would retrain on noise).
  std::size_t min_absorb_segments = 32;
};

class DriftMonitor {
 public:
  /// `metrics` receives the cmarkov_drift_* instruments (may be null).
  explicit DriftMonitor(DriftOptions options,
                        obs::MetricsRegistry* metrics = nullptr);

  /// Feeds one completed window. Called by SessionManager::process_item
  /// under the session's monitor_mu; an internal mutex serializes feeds
  /// across shard workers. Log-likelihoods of impossible windows are
  /// clamped to a -1e4 penalty for histogram purposes (their mass landing
  /// in the lowest bucket IS the drift signal); unknown-symbol windows are
  /// never absorbed.
  void observe(double log_likelihood, bool flagged, bool unknown_symbol,
               const hmm::ObservationSeq& window);

  /// True when drift has been confirmed (consecutive breaching epochs)
  /// AND enough clean windows are buffered to retrain on.
  bool refresh_due() const;

  /// Hands the buffered clean windows to the caller and disarms the
  /// pending refresh (the breach streak restarts).
  std::vector<hmm::ObservationSeq> take_absorb_buffer();

  /// Forgets baseline, epochs and buffers: the next observed windows
  /// build a fresh baseline. Called after a model refresh (old scores are
  /// not comparable under the new model).
  void reset_for_new_model();

  // Introspection (tests, STATS).
  bool baseline_ready() const;
  double last_ks() const;
  std::uint64_t epochs_evaluated() const;
  std::uint64_t breach_streak() const;
  std::size_t absorb_depth() const;

 private:
  void freeze_baseline_locked();
  void evaluate_epoch_locked();

  const DriftOptions options_;

  mutable std::mutex mu_;
  /// Baseline collection phase: raw samples until baseline_windows.
  std::vector<double> baseline_samples_;
  /// Frozen after collection: both histograms share the quantile bounds.
  std::unique_ptr<obs::Histogram> baseline_;
  std::unique_ptr<obs::Histogram> recent_;
  std::size_t recent_count_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t breach_streak_ = 0;
  bool refresh_armed_ = false;
  double last_ks_ = 0.0;
  /// Ring of recent clean windows (absorption batch).
  std::vector<hmm::ObservationSeq> absorb_;
  std::size_t absorb_next_ = 0;  // overwrite cursor once full

  // Lazily registered instruments; null without a registry.
  obs::Counter* windows_total_ = nullptr;
  obs::Counter* epochs_total_ = nullptr;
  obs::Counter* breaches_total_ = nullptr;
  obs::Gauge* ks_gauge_ = nullptr;
  obs::Gauge* absorb_depth_gauge_ = nullptr;
};

/// Drives the drift -> partial_fit -> hot-reload loop for one model: each
/// refresh rebuilds the served detector (same config/alphabet, refreshed
/// HMM, recalibrated threshold) and reloads it through the session
/// manager.
class DriftRefresher {
 public:
  /// `trainer` must carry the state that trained the served model
  /// (`cmarkov train --save-state`, or Detector::trainer_state()). The
  /// manager and its registry must outlive the refresher.
  DriftRefresher(SessionManager& manager, ModelRegistry& registry,
                 std::string model_name, hmm::Trainer trainer,
                 DriftOptions options = {});

  DriftMonitor& monitor() { return monitor_; }
  const DriftMonitor& monitor() const { return monitor_; }

  /// When the monitor has confirmed drift: absorbs the buffered clean
  /// windows via partial_fit, reloads the refreshed model version and
  /// re-baselines the monitor. Returns true when a version was reloaded.
  /// Call from one thread (cmarkovd's idle loop); not reentrant.
  bool poll();

  std::uint64_t refreshes() const { return refreshes_; }
  const hmm::Trainer& trainer() const { return trainer_; }

 private:
  SessionManager& manager_;
  ModelRegistry& registry_;
  const std::string model_name_;
  hmm::Trainer trainer_;
  DriftMonitor monitor_;
  std::uint64_t refreshes_ = 0;
  obs::Counter* refreshes_total_ = nullptr;
};

}  // namespace cmarkov::serve
