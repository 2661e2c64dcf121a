#include "src/core/online_monitor.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cmarkov::core {

OnlineMonitor::OnlineMonitor(const Detector& detector,
                             const trace::Symbolizer* symbolizer,
                             MonitorOptions options, MonitorStorage storage,
                             std::shared_ptr<const ScoringKernel> kernel)
    : detector_(&detector),
      symbolizer_(symbolizer),
      options_(options),
      kernel_(std::move(kernel)),
      window_(std::move(storage.window)),
      key_(std::move(storage.key)),
      segment_(std::move(storage.segment)) {
  if (!detector.trained()) {
    throw std::invalid_argument("OnlineMonitor: detector is not trained");
  }
  if (detector.config().segments.length == 0) {
    throw std::invalid_argument("OnlineMonitor: segment length must be > 0");
  }
  if (options_.windows_to_alarm == 0) {
    throw std::invalid_argument("OnlineMonitor: windows_to_alarm must be >0");
  }
  if (kernel_ == nullptr) kernel_ = ScoringKernel::compile(detector);
  scratch_.alpha = std::move(storage.scratch);
  scratch_.alpha.clear();
  const std::size_t length = detector.config().segments.length;
  window_.assign(length, 0);  // reuses donated capacity when large enough
  segment_.clear();
  segment_.reserve(length);
  rebuild_key();
}

MonitorUpdate OnlineMonitor::on_event(trace::CallEvent event) {
  if (event.caller.empty() && symbolizer_ != nullptr &&
      analysis::filter_matches(detector_->config().pipeline.filter,
                               event.kind)) {
    event.caller = symbolizer_->resolve(event.site_address)
                       .value_or(trace::kUnknownCaller);
  }
  return on_event(event.kind, event.caller, event.name);
}

MonitorUpdate OnlineMonitor::on_event(ir::CallKind kind, std::string_view site,
                                      std::string_view callee) {
  MonitorUpdate update;
  stats_.events_seen += 1;
  if (cooldown_remaining_ > 0) --cooldown_remaining_;

  const auto& config = detector_->config();
  if (!analysis::filter_matches(config.pipeline.filter, kind)) {
    return update;
  }
  stats_.events_observed += 1;

  // Hot path: the kernel interns name[@caller] in place — same id and
  // unknown sentinel as Alphabet::find(encode_observation(...)), without
  // building the observation string or walking a node-based map.
  const std::size_t id = kernel_->find_observation(callee, site);
  // Ring arithmetic via conditional subtraction: `length` is the segment
  // length (15 in the paper's setup), not a power of two, so a `%` here
  // would cost an integer division per event.
  const std::size_t length = config.segments.length;
  const std::size_t symbols = kernel_->num_symbols();
  if (window_count_ < length) {
    std::size_t at = window_head_ + window_count_;
    if (at >= length) at -= length;
    window_[at] = id;
    window_count_ += 1;
  } else {
    unknown_ids_ -= window_[window_head_] >= symbols;
    window_[window_head_] = id;  // overwrite the id sliding out
    window_head_ += 1;
    if (window_head_ == length) window_head_ = 0;
  }
  unknown_ids_ += id >= symbols;
  kernel_->slide_key(key_, id);
  segment_current_ = false;
  if (window_count_ < length) return update;

  update.window_complete = true;
  // A window holding an unknown id never reaches the memo; score_window
  // flags it without a pass. Otherwise the ids are copied out of the ring
  // only on a miss.
  WindowScore scored;
  if (unknown_ids_ > 0) {
    scored.verdict = kernel_->score_window(window(), scratch_);
  } else {
    scored = kernel_->score(std::span<const std::uint64_t>(key_), scratch_,
                            [this] { return std::span(window()); });
  }
  const SegmentVerdict& verdict = scored.verdict;
  update.memo_hit = scored.memo_hit;
  update.log_likelihood = verdict.log_likelihood;
  update.flagged = verdict.flagged;
  update.unknown_symbol = verdict.unknown_symbol;
  stats_.windows_scored += 1;

  if (verdict.flagged) {
    stats_.windows_flagged += 1;
    consecutive_flagged_ += 1;
    if (consecutive_flagged_ >= options_.windows_to_alarm &&
        cooldown_remaining_ == 0) {
      update.alarm = true;
      stats_.alarms += 1;
      cooldown_remaining_ = options_.cooldown_events;
      consecutive_flagged_ = 0;
    }
  } else {
    consecutive_flagged_ = 0;
  }

  if (options_.decisions.enabled && options_.decisions.ring_capacity > 0) {
    const bool sampled =
        options_.decisions.sample_every > 0 &&
        stats_.windows_scored % options_.decisions.sample_every == 0;
    const bool forced = options_.decisions.always_on_flagged &&
                        (verdict.flagged || update.alarm);
    if (sampled || forced) {
      update.decision = &admit_decision(verdict, update.alarm, sampled);
    }
  }
  return update;
}

DecisionEntry& OnlineMonitor::admit_decision(const SegmentVerdict& verdict,
                                             bool alarm, bool sampled) {
  DecisionEntry* entry = nullptr;
  if (decisions_.size() < options_.decisions.ring_capacity) {
    entry = &decisions_.emplace_back();
  } else {
    entry = &decisions_[decisions_next_];
    decisions_next_ += 1;
    if (decisions_next_ == decisions_.size()) decisions_next_ = 0;
  }
  // Overwritten in place, so a full ring reuses the entry's id buffer and
  // takes a new reference only when the model changed.
  const hmm::ObservationSeq& ids = window();
  entry->window.assign(ids.begin(), ids.end());
  entry->log_likelihood = verdict.log_likelihood;
  entry->flagged = verdict.flagged;
  entry->unknown_symbol = verdict.unknown_symbol;
  entry->alarm = alarm;
  entry->sampled = sampled;
  entry->window_index = stats_.windows_scored;
  entry->session.clear();
  entry->trace_id.clear();
  if (entry->kernel != kernel_) entry->kernel = kernel_;
  entry->detector = detector_;
  if (entry->label_owner.get() != detector_) entry->label_owner.reset();
  return *entry;
}

std::vector<DecisionEntry> OnlineMonitor::recent_entries(std::size_t n) const {
  const std::size_t count = std::min(n, decisions_.size());
  std::vector<DecisionEntry> out;
  out.reserve(count);
  // decisions_next_ is the oldest entry; skip all but the newest `count`.
  std::size_t at = decisions_next_ + (decisions_.size() - count);
  for (std::size_t i = 0; i < count; ++i, ++at) {
    out.push_back(decisions_[at % decisions_.size()]);
  }
  return out;
}

std::vector<obs::DecisionRecord> OnlineMonitor::recent_decisions(
    std::size_t n) const {
  std::vector<obs::DecisionRecord> out;
  for (const DecisionEntry& entry : recent_entries(n)) {
    out.push_back(entry.record());
  }
  return out;
}

const hmm::ObservationSeq& OnlineMonitor::window() {
  if (!segment_current_) {
    const std::size_t length = window_.size();
    segment_.clear();
    std::size_t at = window_head_;
    for (std::size_t i = 0; i < window_count_; ++i) {
      segment_.push_back(window_[at]);
      at += 1;
      if (at == length) at = 0;
    }
    segment_current_ = true;
  }
  return segment_;
}

void OnlineMonitor::rebuild_key() {
  segment_current_ = false;
  key_.assign(kernel_->key_words(), 0);
  unknown_ids_ = 0;
  for (const std::size_t id : window()) {
    unknown_ids_ += id >= kernel_->num_symbols();
    kernel_->slide_key(key_, id);
  }
}

void OnlineMonitor::reset_window() {
  window_head_ = 0;
  window_count_ = 0;
  consecutive_flagged_ = 0;
  cooldown_remaining_ = 0;
  rebuild_key();
}

MonitorSnapshot OnlineMonitor::snapshot() const {
  MonitorSnapshot snap;
  const std::size_t length = detector_->config().segments.length;
  snap.window.reserve(window_count_);
  for (std::size_t i = 0; i < window_count_; ++i) {
    snap.window.push_back(window_[(window_head_ + i) % length]);
  }
  snap.consecutive_flagged = consecutive_flagged_;
  snap.cooldown_remaining = cooldown_remaining_;
  snap.stats = stats_;
  return snap;
}

void OnlineMonitor::restore(const MonitorSnapshot& snapshot) {
  const std::size_t length = detector_->config().segments.length;
  if (snapshot.window.size() > length) {
    throw std::invalid_argument(
        "OnlineMonitor: snapshot window of " +
        std::to_string(snapshot.window.size()) +
        " ids does not fit segment length " + std::to_string(length));
  }
  window_head_ = 0;
  window_count_ = snapshot.window.size();
  for (std::size_t i = 0; i < window_count_; ++i) {
    window_[i] = snapshot.window[i];
  }
  rebuild_key();
  consecutive_flagged_ = snapshot.consecutive_flagged;
  cooldown_remaining_ = snapshot.cooldown_remaining;
  stats_ = snapshot.stats;
}

void OnlineMonitor::rebind(const Detector& detector,
                           std::shared_ptr<const ScoringKernel> kernel) {
  if (!detector.trained()) {
    throw std::invalid_argument("OnlineMonitor: rebind detector not trained");
  }
  if (detector.config().segments.length == 0) {
    throw std::invalid_argument("OnlineMonitor: segment length must be > 0");
  }
  detector_ = &detector;
  kernel_ = kernel != nullptr ? std::move(kernel)
                              : ScoringKernel::compile(detector);
  const std::size_t length = detector.config().segments.length;
  window_.assign(length, 0);
  segment_.clear();
  segment_.reserve(length);
  window_head_ = 0;
  window_count_ = 0;
  rebuild_key();  // the new image's key width
  consecutive_flagged_ = 0;  // streak evidence was against the old model
}

std::size_t OnlineMonitor::state_bytes() const {
  return sizeof(OnlineMonitor) +
         (window_.capacity() + segment_.capacity()) * sizeof(std::size_t) +
         key_.capacity() * sizeof(std::uint64_t) + scratch_.capacity_bytes();
}

MonitorStorage OnlineMonitor::release_storage() {
  MonitorStorage storage;
  storage.window = std::move(window_);
  storage.segment = std::move(segment_);
  storage.key = std::move(key_);
  storage.scratch = std::move(scratch_.alpha);
  window_.clear();
  segment_.clear();
  key_.clear();
  scratch_.alpha.clear();
  window_head_ = 0;
  window_count_ = 0;
  unknown_ids_ = 0;
  segment_current_ = false;
  return storage;
}

}  // namespace cmarkov::core
