// Plain-text persistence for trained detectors: HMM parameters, alphabet,
// threshold and the config bits needed to re-encode traces. The format is a
// line-oriented key/value + matrix dump, versioned for forward evolution.
//
// Also persists hmm::TrainerState (`cmarkov-trainer-state 1`) so
// incremental training resumes across process restarts. Every double in
// that format travels as its IEEE-754 bit pattern in hex: the whole point
// of the state is to continue a floating-point fold bit-identically, and
// decimal round trips are exact only with care — the bit pattern is exact
// by construction.
//
// Both formats are decoded by util::RecordReader, the one reader of
// persisted state (tools/check_record_reader.sh): every count and matrix
// shape must fit the bytes that remain, so a lying header is refused
// before it is allocated for, and a sign or "0x" on an unsigned or hex
// field is malformed rather than wrapped. The *_file loaders read only a
// regular file, by its size; /dev/zero or a FIFO is refused.
#pragma once

#include <iosfwd>
#include <string>

#include "src/core/detector.hpp"
#include "src/hmm/trainer.hpp"

namespace cmarkov::core {

/// Serializes a detector (trained or not) to a stream / file.
void save_detector(std::ostream& out, const Detector& detector);
void save_detector_file(const std::string& path, const Detector& detector);

/// Loads a detector. Throws std::runtime_error on malformed input, a
/// lying count, a zero segment_length or a version mismatch; messages name
/// the offending key, matrix tag, or value (a serving registry must reject
/// bad model files loudly).
Detector load_detector(std::istream& in);
Detector load_detector_file(const std::string& path);

/// Serializes a trainer's resumable state (corpus, batch records, and the
/// iteration-0 prefix accumulators). A load + partial_fit continues
/// bit-identically with the uninterrupted run (model_io_test,
/// incremental_training_test).
void save_trainer_state(std::ostream& out, const hmm::TrainerState& state);
void save_trainer_state_file(const std::string& path,
                             const hmm::TrainerState& state);

/// Loads a trainer state. Throws std::runtime_error on malformed input
/// and std::invalid_argument when the decoded state is structurally
/// inconsistent (TrainerState::validate).
hmm::TrainerState load_trainer_state(std::istream& in);
hmm::TrainerState load_trainer_state_file(const std::string& path);

}  // namespace cmarkov::core
