#include "src/trace/segmenter.hpp"

#include <stdexcept>

namespace cmarkov::trace {

std::vector<hmm::ObservationSeq> segment_sequence(
    const hmm::ObservationSeq& encoded, const SegmentOptions& options) {
  if (options.length == 0) {
    throw std::invalid_argument("segment_sequence: length must be > 0");
  }
  std::vector<hmm::ObservationSeq> out;
  if (encoded.empty()) return out;
  if (encoded.size() < options.length) {
    if (options.keep_short_tail) out.push_back(encoded);
    return out;
  }
  for (std::size_t start = 0; start + options.length <= encoded.size();
       ++start) {
    out.emplace_back(encoded.begin() + static_cast<std::ptrdiff_t>(start),
                     encoded.begin() +
                         static_cast<std::ptrdiff_t>(start + options.length));
  }
  return out;
}

std::size_t SegmentSet::add_trace(const hmm::ObservationSeq& encoded) {
  std::size_t added = 0;
  for (auto& segment : segment_sequence(encoded, options_)) {
    if (add_segment(std::move(segment))) ++added;
  }
  return added;
}

bool SegmentSet::add_segment(hmm::ObservationSeq segment) {
  ++total_seen_;
  return segments_.insert(std::move(segment)).second;
}

std::vector<hmm::ObservationSeq> SegmentSet::to_vector() const {
  return {segments_.begin(), segments_.end()};
}

}  // namespace cmarkov::trace
