#include "src/core/model_io.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace cmarkov::core {

namespace {

constexpr const char* kMagic = "cmarkov-detector";
constexpr int kVersion = 1;

constexpr const char* kTrainerMagic = "cmarkov-trainer-state";
constexpr int kTrainerVersion = 1;

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

/// The rows x cols matrix a `tag` header declares. A shape whose element
/// count overflows is a malformed file: rethrown naming the tag.
Matrix sized_matrix(std::size_t rows, std::size_t cols,
                    const std::string& tag) {
  try {
    return Matrix(rows, cols);
  } catch (const std::length_error& error) {
    throw std::runtime_error("model_io: '" + tag + "' matrix of " +
                             std::to_string(rows) + " x " +
                             std::to_string(cols) + " does not fit: " +
                             error.what());
  }
}

Matrix read_matrix(std::istream& in, const std::string& expected_tag) {
  std::string tag;
  std::size_t rows = 0;
  std::size_t cols = 0;
  if (!(in >> tag >> rows >> cols) || tag != expected_tag) {
    throw std::runtime_error("model_io: expected matrix tag '" +
                             expected_tag + "'");
  }
  Matrix m = sized_matrix(rows, cols, expected_tag);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!(in >> m(r, c))) {
        throw std::runtime_error(
            "model_io: truncated or malformed '" + expected_tag +
            "' matrix at row " + std::to_string(r) + ", column " +
            std::to_string(c));
      }
    }
  }
  return m;
}

/// Reads one numeric value, failing loudly with the owning key's name.
template <typename T>
T read_value(std::istream& in, const char* key) {
  T value{};
  if (!(in >> value)) {
    throw std::runtime_error(
        std::string("model_io: malformed value for key '") + key + "'");
  }
  return value;
}

/// Reads a double that must be finite (rejects "nan"/"inf" spellings too,
/// which operator>> would not even parse).
double read_finite_double(std::istream& in, const char* key) {
  std::string token;
  if (!(in >> token)) {
    throw std::runtime_error(std::string("model_io: missing value for key '") +
                             key + "'");
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(value)) {
    throw std::runtime_error(std::string("model_io: key '") + key +
                             "' has non-finite or malformed value '" + token +
                             "'");
  }
  return value;
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

Detector load_detector(std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != kMagic) {
    throw std::runtime_error("model_io: not a cmarkov detector file");
  }
  int version = 0;
  if (!(in >> version)) {
    throw std::runtime_error(
        "model_io: malformed version line (expected '" + std::string(kMagic) +
        " <number>')");
  }
  if (version != kVersion) {
    throw std::runtime_error("model_io: unsupported version " +
                             std::to_string(version));
  }

  auto expect_key = [&](const char* key) {
    std::string seen;
    if (!(in >> seen) || seen != key) {
      throw std::runtime_error(std::string("model_io: expected key '") +
                               key + "'");
    }
  };

  DetectorConfig config;
  expect_key("filter");
  std::string filter_name;
  in >> filter_name;
  if (filter_name == "syscall") {
    config.pipeline.filter = analysis::CallFilter::kSyscalls;
  } else if (filter_name == "libcall") {
    config.pipeline.filter = analysis::CallFilter::kLibcalls;
  } else if (filter_name == "all") {
    config.pipeline.filter = analysis::CallFilter::kAll;
  } else {
    throw std::runtime_error("model_io: unknown filter '" + filter_name +
                             "'");
  }
  expect_key("context");
  config.pipeline.context_sensitive = read_value<int>(in, "context") != 0;
  expect_key("segment_length");
  config.segments.length = read_value<std::size_t>(in, "segment_length");
  expect_key("trained");
  const int trained = read_value<int>(in, "trained");
  expect_key("threshold");
  const double threshold = read_finite_double(in, "threshold");

  expect_key("alphabet");
  const auto alphabet_size = read_value<std::size_t>(in, "alphabet");
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  hmm::Alphabet alphabet;
  for (std::size_t i = 0; i < alphabet_size; ++i) {
    std::string symbol;
    if (!std::getline(in, symbol)) {
      throw std::runtime_error("model_io: truncated alphabet");
    }
    alphabet.intern(symbol);
  }
  if (alphabet.size() != alphabet_size) {
    throw std::runtime_error("model_io: duplicate alphabet symbols");
  }

  hmm::Hmm model;
  model.transition = read_matrix(in, "transition");
  model.emission = read_matrix(in, "emission");
  expect_key("initial");
  const auto initial_size = read_value<std::size_t>(in, "initial");
  model.initial.resize(initial_size);
  for (std::size_t i = 0; i < initial_size; ++i) {
    if (!(in >> model.initial[i])) {
      throw std::runtime_error(
          "model_io: truncated 'initial' vector at entry " +
          std::to_string(i));
    }
  }

  return Detector::from_parts(std::move(config), std::move(model),
                              std::move(alphabet), threshold, trained != 0);
}

Detector load_detector_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("model_io: cannot open '" + path + "'");
  }
  return load_detector(in);
}

namespace {

// ---- trainer-state codec -------------------------------------------------
// Doubles travel as IEEE-754 bit patterns in hex (see header): the state's
// purpose is to continue floating-point folds bit-identically, so the
// round trip must be exact, including signed zeros and subnormals.

void write_hex_double(std::ostream& out, double value) {
  out << std::hex << std::bit_cast<std::uint64_t>(value) << std::dec;
}

double read_hex_double(std::istream& in, const char* key) {
  std::string token;
  if (!(in >> token)) {
    throw std::runtime_error(std::string("model_io: missing value for key '") +
                             key + "'");
  }
  char* end = nullptr;
  const std::uint64_t bits = std::strtoull(token.c_str(), &end, 16);
  if (end != token.c_str() + token.size() || token.empty()) {
    throw std::runtime_error(std::string("model_io: key '") + key +
                             "' has malformed hex double '" + token + "'");
  }
  return std::bit_cast<double>(bits);
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

Matrix read_hex_matrix(std::istream& in, const std::string& expected_tag) {
  std::string tag;
  std::size_t rows = 0;
  std::size_t cols = 0;
  if (!(in >> tag >> rows >> cols) || tag != expected_tag) {
    throw std::runtime_error("model_io: expected matrix tag '" +
                             expected_tag + "'");
  }
  Matrix m = sized_matrix(rows, cols, expected_tag);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = read_hex_double(in, expected_tag.c_str());
    }
  }
  return m;
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

std::vector<double> read_hex_vector(std::istream& in,
                                    const std::string& expected_tag) {
  std::string tag;
  std::size_t size = 0;
  if (!(in >> tag >> size) || tag != expected_tag) {
    throw std::runtime_error("model_io: expected vector tag '" +
                             expected_tag + "'");
  }
  std::vector<double> v(size);
  for (std::size_t i = 0; i < size; ++i) {
    v[i] = read_hex_double(in, expected_tag.c_str());
  }
  return v;
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

std::vector<hmm::ObservationSeq> read_sequences(
    std::istream& in, const std::string& expected_tag) {
  std::string tag;
  std::size_t count = 0;
  if (!(in >> tag >> count) || tag != expected_tag) {
    throw std::runtime_error("model_io: expected sequence block '" +
                             expected_tag + "'");
  }
  std::vector<hmm::ObservationSeq> sequences(count);
  for (std::size_t s = 0; s < count; ++s) {
    std::size_t length = 0;
    if (!(in >> length)) {
      throw std::runtime_error("model_io: truncated '" + expected_tag +
                               "' block at sequence " + std::to_string(s));
    }
    sequences[s].resize(length);
    for (std::size_t t = 0; t < length; ++t) {
      if (!(in >> sequences[s][t])) {
        throw std::runtime_error("model_io: truncated sequence " +
                                 std::to_string(s) + " in '" + expected_tag +
                                 "'");
      }
    }
  }
  return sequences;
}

void write_suff_stats(std::ostream& out, const hmm::SuffStats& slot) {
  write_hex_matrix(out, "transition_num", slot.transition_num);
  write_hex_vector(out, "transition_den", slot.transition_den);
  write_hex_matrix(out, "emission_num", slot.emission_num);
  write_hex_vector(out, "emission_den", slot.emission_den);
  write_hex_vector(out, "initial", slot.initial);
}

hmm::SuffStats read_suff_stats(std::istream& in) {
  hmm::SuffStats slot;
  slot.transition_num = read_hex_matrix(in, "transition_num");
  slot.transition_den = read_hex_vector(in, "transition_den");
  slot.emission_num = read_hex_matrix(in, "emission_num");
  slot.emission_den = read_hex_vector(in, "emission_den");
  slot.initial = read_hex_vector(in, "initial");
  return slot;
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

hmm::TrainerState load_trainer_state(std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != kTrainerMagic) {
    throw std::runtime_error("model_io: not a cmarkov trainer-state file");
  }
  int version = 0;
  if (!(in >> version)) {
    throw std::runtime_error("model_io: malformed trainer-state version");
  }
  if (version != kTrainerVersion) {
    throw std::runtime_error("model_io: unsupported trainer-state version " +
                             std::to_string(version));
  }

  auto expect_key = [&](const char* key) {
    std::string seen;
    if (!(in >> seen) || seen != key) {
      throw std::runtime_error(std::string("model_io: expected key '") + key +
                               "'");
    }
  };

  hmm::TrainerState state;
  expect_key("max_iterations");
  state.max_iterations = read_value<std::size_t>(in, "max_iterations");
  expect_key("min_improvement");
  state.min_improvement = read_hex_double(in, "min_improvement");
  expect_key("pseudocount");
  state.pseudocount = read_hex_double(in, "pseudocount");
  expect_key("patience");
  state.patience = read_value<std::size_t>(in, "patience");
  expect_key("impossible_penalty");
  state.impossible_penalty = read_hex_double(in, "impossible_penalty");

  state.initial_model.transition = read_hex_matrix(in, "model_transition");
  state.initial_model.emission = read_hex_matrix(in, "model_emission");
  state.initial_model.initial = read_hex_vector(in, "model_initial");

  state.train = read_sequences(in, "train");
  state.holdout = read_sequences(in, "holdout");

  expect_key("batches");
  const auto batch_count = read_value<std::size_t>(in, "batches");
  state.batches.resize(batch_count);
  for (std::size_t b = 0; b < batch_count; ++b) {
    hmm::BatchRecord& batch = state.batches[b];
    batch.id = read_value<std::size_t>(in, "batch id");
    batch.train_count = read_value<std::size_t>(in, "batch train_count");
    batch.holdout_count = read_value<std::size_t>(in, "batch holdout_count");
    batch.iterations = read_value<std::size_t>(in, "batch iterations");
    batch.entry_train_ll = read_hex_double(in, "batch entry_train_ll");
    batch.final_train_ll = read_hex_double(in, "batch final_train_ll");
  }

  expect_key("cached_count");
  state.cached_count = read_value<std::size_t>(in, "cached_count");
  expect_key("observed_prefix");
  state.observed_prefix = read_value<std::size_t>(in, "observed_prefix");
  expect_key("ll_sum_prefix");
  state.ll_sum_prefix = read_hex_double(in, "ll_sum_prefix");
  expect_key("holdout_cached");
  state.holdout_cached = read_value<std::size_t>(in, "holdout_cached");
  expect_key("holdout_ll_sum");
  state.holdout_ll_sum = read_hex_double(in, "holdout_ll_sum");

  expect_key("slots");
  const auto slot_count = read_value<std::size_t>(in, "slots");
  if (slot_count != 0 && slot_count != hmm::kTrainerMergeSlots) {
    throw std::runtime_error("model_io: trainer state must hold 0 or " +
                             std::to_string(hmm::kTrainerMergeSlots) +
                             " merge slots, found " +
                             std::to_string(slot_count));
  }
  state.slot_prefix.reserve(slot_count);
  for (std::size_t s = 0; s < slot_count; ++s) {
    state.slot_prefix.push_back(read_suff_stats(in));
  }

  state.validate();
  return state;
}

hmm::TrainerState load_trainer_state_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("model_io: cannot open '" + path + "'");
  }
  return load_trainer_state(in);
}

}  // namespace cmarkov::core
