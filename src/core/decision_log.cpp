#include "src/core/decision_log.hpp"

#include <bit>
#include <stdexcept>

namespace cmarkov::core {

obs::DecisionRecord DecisionEntry::record() const {
  KernelScratch scratch;
  WindowAudit audit;
  const SegmentVerdict verdict =
      kernel->score_window(window, scratch, &audit);
  if (std::bit_cast<std::uint64_t>(verdict.log_likelihood) !=
          std::bit_cast<std::uint64_t>(log_likelihood) ||
      verdict.unknown_symbol != unknown_symbol) {
    throw std::logic_error(
        "DecisionEntry: window " + std::to_string(window_index) +
        " re-scores to other log-likelihood bits than were recorded");
  }
  obs::DecisionRecord record = detector->make_decision_record(
      window, verdict, audit.scales, audit.alpha);
  record.window_index = window_index;
  record.session = session;
  record.trace_id = trace_id;
  record.alarm = alarm;
  record.sampled = sampled;
  record.label_owner = label_owner;
  return record;
}

std::string DecisionLog::to_jsonl() const {
  std::string out;
  for (const DecisionEntry& entry : log_.snapshot()) {
    out += obs::decision_record_json(entry.record());
    out += '\n';
  }
  return out;
}

}  // namespace cmarkov::core
