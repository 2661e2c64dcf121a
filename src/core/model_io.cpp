#include "src/core/model_io.hpp"

#include <bit>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "src/util/record_reader.hpp"

namespace cmarkov::core {

namespace {

constexpr const char* kMagic = "cmarkov-detector";
constexpr std::uint64_t kVersion = 1;

constexpr const char* kTrainerMagic = "cmarkov-trainer-state";
constexpr std::uint64_t kTrainerVersion = 1;

void write_matrix(std::ostream& out, const char* tag, const Matrix& m) {
  out << tag << " " << m.rows() << " " << m.cols() << "\n";
  out << std::setprecision(17);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c > 0) out << " ";
      out << m(r, c);
    }
    out << "\n";
  }
}

/// A value's spelling: decimal (`finite_double`) or IEEE-754 hex bits
/// (`hex_double`).
using Spelling = double (util::RecordReader::*)(std::string_view);

/// "<tag> <rows> <cols>" followed by the rows * cols values.
Matrix read_matrix(util::RecordReader& in, const char* tag,
                   Spelling spelling) {
  in.expect(tag);
  const auto [rows, cols] = in.shape(tag, 2);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = (in.*spelling)(tag);
  }
  return m;
}

/// "<tag> <size>" followed by the values.
std::vector<double> read_vector(util::RecordReader& in, const char* tag,
                                Spelling spelling) {
  in.expect(tag);
  std::vector<double> v(in.count(tag, 2));
  for (double& value : v) value = (in.*spelling)(tag);
  return v;
}

}  // namespace

void save_detector(std::ostream& out, const Detector& detector) {
  const DetectorConfig& config = detector.config();
  out << kMagic << " " << kVersion << "\n";
  out << "filter " << analysis::call_filter_name(config.pipeline.filter)
      << "\n";
  out << "context " << (config.pipeline.context_sensitive ? 1 : 0) << "\n";
  out << "segment_length " << config.segments.length << "\n";
  out << "trained " << (detector.trained() ? 1 : 0) << "\n";
  out << std::setprecision(17);
  out << "threshold " << detector.threshold() << "\n";

  const hmm::Alphabet& alphabet = detector.alphabet();
  out << "alphabet " << alphabet.size() << "\n";
  for (const auto& symbol : alphabet.symbols()) {
    out << symbol << "\n";  // observation strings never contain newlines
  }

  const hmm::Hmm& model = detector.model();
  write_matrix(out, "transition", model.transition);
  write_matrix(out, "emission", model.emission);
  out << "initial " << model.initial.size() << "\n";
  for (std::size_t i = 0; i < model.initial.size(); ++i) {
    if (i > 0) out << " ";
    out << model.initial[i];
  }
  out << "\n";
}

void save_detector_file(const std::string& path, const Detector& detector) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("model_io: cannot open '" + path +
                             "' for writing");
  }
  save_detector(out, detector);
}

namespace {

Detector decode_detector(std::string_view text) {
  util::RecordReader in(text, "model_io");
  in.header(kMagic, kVersion);

  DetectorConfig config;
  in.expect("filter");
  const std::string_view filter_name = in.word("filter");
  if (filter_name == "syscall") {
    config.pipeline.filter = analysis::CallFilter::kSyscalls;
  } else if (filter_name == "libcall") {
    config.pipeline.filter = analysis::CallFilter::kLibcalls;
  } else if (filter_name == "all") {
    config.pipeline.filter = analysis::CallFilter::kAll;
  } else {
    in.fail("unknown filter '" + std::string(filter_name) + "'");
  }
  config.pipeline.context_sensitive = in.u64_field("context") != 0;
  config.segments.length = in.u64_field("segment_length");
  if (config.segments.length == 0) in.fail("key 'segment_length' is 0");
  const bool trained = in.u64_field("trained") != 0;
  in.expect("threshold");
  const double threshold = in.finite_double("threshold");

  in.expect("alphabet");
  const std::size_t alphabet_size = in.count("alphabet", 1);
  in.line("alphabet");  // the rest of the count's line
  hmm::Alphabet alphabet;
  for (std::size_t i = 0; i < alphabet_size; ++i) {
    alphabet.intern(in.line("alphabet"));
  }
  if (alphabet.size() != alphabet_size) {
    in.fail("duplicate alphabet symbols");
  }

  hmm::Hmm model;
  const Spelling decimal = &util::RecordReader::finite_double;
  model.transition = read_matrix(in, "transition", decimal);
  model.emission = read_matrix(in, "emission", decimal);
  model.initial = read_vector(in, "initial", decimal);
  return Detector::from_parts(std::move(config), std::move(model),
                              std::move(alphabet), threshold, trained);
}

}  // namespace

Detector load_detector(std::istream& in) {
  return decode_detector(
      std::string(std::istreambuf_iterator<char>(in), {}));
}

Detector load_detector_file(const std::string& path) {
  return decode_detector(util::read_regular_file(path, "model_io"));
}

namespace {

// ---- trainer-state codec -------------------------------------------------
// Doubles travel as IEEE-754 bit patterns in hex (see header): the state's
// purpose is to continue floating-point folds bit-identically, so the
// round trip must be exact, including signed zeros and subnormals.

void write_hex_double(std::ostream& out, double value) {
  out << std::hex << std::bit_cast<std::uint64_t>(value) << std::dec;
}

void write_hex_matrix(std::ostream& out, const char* tag, const Matrix& m) {
  out << tag << " " << m.rows() << " " << m.cols() << "\n";
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c > 0) out << " ";
      write_hex_double(out, m(r, c));
    }
    out << "\n";
  }
}

void write_hex_vector(std::ostream& out, const char* tag,
                      const std::vector<double>& v) {
  out << tag << " " << v.size() << "\n";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out << " ";
    write_hex_double(out, v[i]);
  }
  out << "\n";
}

void write_sequences(std::ostream& out, const char* tag,
                     const std::vector<hmm::ObservationSeq>& sequences) {
  out << tag << " " << sequences.size() << "\n";
  for (const hmm::ObservationSeq& seq : sequences) {
    out << seq.size();
    for (std::size_t id : seq) out << " " << id;
    out << "\n";
  }
}

void write_suff_stats(std::ostream& out, const hmm::SuffStats& slot) {
  write_hex_matrix(out, "transition_num", slot.transition_num);
  write_hex_vector(out, "transition_den", slot.transition_den);
  write_hex_matrix(out, "emission_num", slot.emission_num);
  write_hex_vector(out, "emission_den", slot.emission_den);
  write_hex_vector(out, "initial", slot.initial);
}

}  // namespace

void save_trainer_state(std::ostream& out, const hmm::TrainerState& state) {
  out << kTrainerMagic << " " << kTrainerVersion << "\n";
  out << "max_iterations " << state.max_iterations << "\n";
  out << "min_improvement ";
  write_hex_double(out, state.min_improvement);
  out << "\npseudocount ";
  write_hex_double(out, state.pseudocount);
  out << "\npatience " << state.patience << "\n";
  out << "impossible_penalty ";
  write_hex_double(out, state.impossible_penalty);
  out << "\n";

  write_hex_matrix(out, "model_transition", state.initial_model.transition);
  write_hex_matrix(out, "model_emission", state.initial_model.emission);
  write_hex_vector(out, "model_initial", state.initial_model.initial);

  write_sequences(out, "train", state.train);
  write_sequences(out, "holdout", state.holdout);

  out << "batches " << state.batches.size() << "\n";
  for (const hmm::BatchRecord& batch : state.batches) {
    out << batch.id << " " << batch.train_count << " " << batch.holdout_count
        << " " << batch.iterations << " ";
    write_hex_double(out, batch.entry_train_ll);
    out << " ";
    write_hex_double(out, batch.final_train_ll);
    out << "\n";
  }

  out << "cached_count " << state.cached_count << "\n";
  out << "observed_prefix " << state.observed_prefix << "\n";
  out << "ll_sum_prefix ";
  write_hex_double(out, state.ll_sum_prefix);
  out << "\nholdout_cached " << state.holdout_cached << "\n";
  out << "holdout_ll_sum ";
  write_hex_double(out, state.holdout_ll_sum);
  out << "\nslots " << state.slot_prefix.size() << "\n";
  for (const hmm::SuffStats& slot : state.slot_prefix) {
    write_suff_stats(out, slot);
  }
}

void save_trainer_state_file(const std::string& path,
                             const hmm::TrainerState& state) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("model_io: cannot open '" + path +
                             "' for writing");
  }
  save_trainer_state(out, state);
}

namespace {

hmm::TrainerState decode_trainer_state(std::string_view text) {
  util::RecordReader in(text, "model_io");
  in.header(kTrainerMagic, kTrainerVersion);

  const Spelling hex = &util::RecordReader::hex_double;
  hmm::TrainerState state;
  state.max_iterations = in.u64_field("max_iterations");
  in.expect("min_improvement");
  state.min_improvement = in.hex_double("min_improvement");
  in.expect("pseudocount");
  state.pseudocount = in.hex_double("pseudocount");
  state.patience = in.u64_field("patience");
  in.expect("impossible_penalty");
  state.impossible_penalty = in.hex_double("impossible_penalty");

  state.initial_model.transition = read_matrix(in, "model_transition", hex);
  state.initial_model.emission = read_matrix(in, "model_emission", hex);
  state.initial_model.initial = read_vector(in, "model_initial", hex);

  for (const auto& [tag, sequences] :
       {std::pair{"train", &state.train}, {"holdout", &state.holdout}}) {
    in.expect(tag);
    sequences->resize(in.count(tag, 2));
    for (hmm::ObservationSeq& seq : *sequences) {
      seq.resize(in.count(tag, 2));
      for (std::size_t& id : seq) id = in.u64(tag);
    }
  }

  in.expect("batches");
  // Six tokens and their separators: at least 12 bytes a record.
  state.batches.resize(in.count("batches", 12));
  for (hmm::BatchRecord& batch : state.batches) {
    batch.id = in.u64("batch id");
    batch.train_count = in.u64("batch train_count");
    batch.holdout_count = in.u64("batch holdout_count");
    batch.iterations = in.u64("batch iterations");
    batch.entry_train_ll = in.hex_double("batch entry_train_ll");
    batch.final_train_ll = in.hex_double("batch final_train_ll");
  }

  state.cached_count = in.u64_field("cached_count");
  state.observed_prefix = in.u64_field("observed_prefix");
  in.expect("ll_sum_prefix");
  state.ll_sum_prefix = in.hex_double("ll_sum_prefix");
  state.holdout_cached = in.u64_field("holdout_cached");
  in.expect("holdout_ll_sum");
  state.holdout_ll_sum = in.hex_double("holdout_ll_sum");

  const std::uint64_t slot_count = in.u64_field("slots");
  if (slot_count != 0 && slot_count != hmm::kTrainerMergeSlots) {
    in.fail("trainer state must hold 0 or " +
            std::to_string(hmm::kTrainerMergeSlots) +
            " merge slots, found " + std::to_string(slot_count));
  }
  state.slot_prefix.resize(slot_count);
  for (hmm::SuffStats& slot : state.slot_prefix) {
    slot.transition_num = read_matrix(in, "transition_num", hex);
    slot.transition_den = read_vector(in, "transition_den", hex);
    slot.emission_num = read_matrix(in, "emission_num", hex);
    slot.emission_den = read_vector(in, "emission_den", hex);
    slot.initial = read_vector(in, "initial", hex);
  }

  state.validate();
  return state;
}

}  // namespace

hmm::TrainerState load_trainer_state(std::istream& in) {
  return decode_trainer_state(
      std::string(std::istreambuf_iterator<char>(in), {}));
}

hmm::TrainerState load_trainer_state_file(const std::string& path) {
  return decode_trainer_state(util::read_regular_file(path, "model_io"));
}

}  // namespace cmarkov::core
