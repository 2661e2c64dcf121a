// Tests for detector and trainer-state persistence: save/load round trips,
// malformed-input rejection, lying counts refused before any allocation
// they ask for, and an every-byte mutation sweep of both formats.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/core/model_io.hpp"
#include "tests/allocation_probe.hpp"
#include "src/hmm/random_init.hpp"
#include "src/util/rng.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::core {
namespace {

Detector trained_detector() {
  static const workload::ProgramSuite suite = workload::make_gzip_suite();
  DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  config.training.max_iterations = 5;
  Detector detector = Detector::build(suite.module(), config);
  const auto collection = workload::collect_traces(suite, 20, 31);
  detector.train(collection.traces);
  return detector;
}

TEST(ModelIoTest, RoundTripPreservesEverything) {
  const Detector original = trained_detector();
  std::stringstream buffer;
  save_detector(buffer, original);
  const Detector loaded = load_detector(buffer);

  EXPECT_EQ(loaded.trained(), original.trained());
  EXPECT_DOUBLE_EQ(loaded.threshold(), original.threshold());
  EXPECT_EQ(loaded.alphabet().symbols(), original.alphabet().symbols());
  EXPECT_EQ(loaded.model().num_states(), original.model().num_states());
  EXPECT_EQ(loaded.model().num_symbols(), original.model().num_symbols());
  EXPECT_LT(loaded.model().transition.max_abs_diff(
                original.model().transition),
            1e-15);
  EXPECT_LT(loaded.model().emission.max_abs_diff(original.model().emission),
            1e-15);
  EXPECT_EQ(loaded.config().pipeline.filter,
            original.config().pipeline.filter);
  EXPECT_EQ(loaded.config().pipeline.context_sensitive,
            original.config().pipeline.context_sensitive);
  EXPECT_EQ(loaded.config().segments.length,
            original.config().segments.length);
}

TEST(ModelIoTest, LoadedDetectorClassifiesIdentically) {
  const Detector original = trained_detector();
  std::stringstream buffer;
  save_detector(buffer, original);
  const Detector loaded = load_detector(buffer);

  static const workload::ProgramSuite suite = workload::make_gzip_suite();
  const auto fresh = workload::collect_traces(suite, 5, 999);
  for (const auto& trace : fresh.traces) {
    const TraceVerdict a = original.classify(trace);
    const TraceVerdict b = loaded.classify(trace);
    EXPECT_EQ(a.anomalous, b.anomalous);
    EXPECT_EQ(a.flagged_segments, b.flagged_segments);
    EXPECT_NEAR(a.min_log_likelihood, b.min_log_likelihood, 1e-9);
  }
}

TEST(ModelIoTest, FileRoundTrip) {
  const Detector original = trained_detector();
  const std::string path = ::testing::TempDir() + "/cmarkov_model.txt";
  save_detector_file(path, original);
  const Detector loaded = load_detector_file(path);
  EXPECT_EQ(loaded.model().num_states(), original.model().num_states());
}

TEST(ModelIoTest, RejectsWrongMagic) {
  std::stringstream buffer("not-a-detector 1\n");
  EXPECT_THROW(load_detector(buffer), std::runtime_error);
}

TEST(ModelIoTest, RejectsWrongVersion) {
  std::stringstream buffer("cmarkov-detector 999\n");
  EXPECT_THROW(load_detector(buffer), std::runtime_error);
}

TEST(ModelIoTest, RejectsTruncatedBody) {
  const Detector original = trained_detector();
  std::stringstream buffer;
  save_detector(buffer, original);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_detector(truncated), std::runtime_error);
}

/// Serialized form of the shared trained detector, computed once.
const std::string& saved_model_text() {
  static const std::string text = [] {
    std::stringstream buffer;
    save_detector(buffer, trained_detector());
    return buffer.str();
  }();
  return text;
}

/// Asserts load_detector throws std::runtime_error whose message names the
/// offending content via `expected_substring`.
void expect_load_error(const std::string& text,
                       const std::string& expected_substring) {
  std::stringstream in(text);
  try {
    load_detector(in);
    FAIL() << "expected std::runtime_error mentioning '"
           << expected_substring << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(expected_substring),
              std::string::npos)
        << "error message '" << e.what() << "' does not name '"
        << expected_substring << "'";
  }
}

/// Replaces the whole "key value" line with "key <replacement>".
std::string with_key_value(const std::string& text, const std::string& key,
                           const std::string& replacement) {
  const std::size_t newline = text.find("\n" + key + " ");
  EXPECT_NE(newline, std::string::npos) << key;
  const std::size_t key_pos = newline + 1;
  const std::size_t line_end = text.find('\n', key_pos);
  std::string mutated = text;
  mutated.replace(key_pos, line_end - key_pos, key + " " + replacement);
  return mutated;
}

TEST(ModelIoTest, RejectsNaNAndInfThreshold) {
  for (const char* bad : {"nan", "inf", "-inf", "NaN", "0x", "1.0.0"}) {
    expect_load_error(with_key_value(saved_model_text(), "threshold", bad),
                      "threshold");
  }
}

TEST(ModelIoTest, RejectsBadVersionLine) {
  expect_load_error("cmarkov-detector one\nfilter syscall\n", "version");
  expect_load_error("cmarkov-detector\n", "version");
  expect_load_error("cmarkov-detector 2\n", "version 2");
}

TEST(ModelIoTest, TruncatedMatrixNamesTheTag) {
  const std::string& text = saved_model_text();
  // Cut a few characters into the transition matrix body.
  const std::size_t tag = text.find("transition ");
  ASSERT_NE(tag, std::string::npos);
  const std::size_t body = text.find('\n', tag) + 1;
  expect_load_error(text.substr(0, body + 3), "transition");

  // Same for a matrix body poisoned with a non-numeric token.
  std::string poisoned = text;
  poisoned.replace(body, 4, "zzzz");
  expect_load_error(poisoned, "transition");
}

TEST(ModelIoTest, MalformedNumericKeysNameTheKey) {
  // "-1" once loaded as SIZE_MAX: `cmarkov scan` accepted the model and
  // `cmarkov monitor` died allocating a window of that length.
  for (const char* bad : {"banana", "-1", "+15"}) {
    expect_load_error(
        with_key_value(saved_model_text(), "segment_length", bad),
        "segment_length");
  }
  expect_load_error(with_key_value(saved_model_text(), "alphabet", "-"),
                    "alphabet");
}

TEST(ModelIoTest, TruncatedInitialVectorNamesIt) {
  const std::string& text = saved_model_text();
  const std::size_t tag = text.find("\ninitial ");
  ASSERT_NE(tag, std::string::npos);
  const std::size_t body = text.find('\n', tag + 1) + 1;
  expect_load_error(text.substr(0, body), "initial");
}

TEST(ModelIoTest, MissingFileThrows) {
  EXPECT_THROW(load_detector_file("/nonexistent/path/model.txt"),
               std::runtime_error);
}

// ---- trainer-state persistence (`cmarkov-trainer-state 1`) ----

/// A small trained Trainer whose state exercises every serialized field:
/// absorbed corpus, holdout, two batch records, and a populated
/// iteration-0 prefix cache.
hmm::TrainerState trained_state() {
  Rng rng(7);
  std::vector<hmm::ObservationSeq> corpus;
  for (std::size_t s = 0; s < 12; ++s) {
    hmm::ObservationSeq seq;
    for (std::size_t t = 0; t < 10; ++t) {
      seq.push_back(rng.index(3));
    }
    corpus.push_back(std::move(seq));
  }
  hmm::TrainingOptions options;
  options.max_iterations = 4;
  hmm::Trainer trainer(hmm::randomly_initialized_hmm(2, 3, rng), options);
  trainer.fit({corpus.begin(), corpus.begin() + 8},
              {corpus.begin() + 8, corpus.begin() + 10});
  trainer.partial_fit({corpus.begin() + 10, corpus.end()});
  return trainer.state();
}

/// Serialized form of the shared trainer state, computed once.
const std::string& saved_trainer_text() {
  static const std::string text = [] {
    std::stringstream buffer;
    save_trainer_state(buffer, trained_state());
    return buffer.str();
  }();
  return text;
}

// save → load → save must reproduce the byte-identical text: doubles
// travel as IEEE-754 bit patterns, so nothing can drift in transit.
TEST(ModelIoTest, TrainerStateRoundTripIsByteExact) {
  std::stringstream first(saved_trainer_text());
  const hmm::TrainerState loaded = load_trainer_state(first);
  std::stringstream second;
  save_trainer_state(second, loaded);
  EXPECT_EQ(second.str(), saved_trainer_text());

  const hmm::TrainerState original = trained_state();
  EXPECT_EQ(loaded.train, original.train);
  EXPECT_EQ(loaded.holdout, original.holdout);
  EXPECT_EQ(loaded.batches.size(), original.batches.size());
  EXPECT_EQ(loaded.cached_count, original.cached_count);
  EXPECT_EQ(loaded.slot_prefix.size(), original.slot_prefix.size());
  EXPECT_EQ(loaded.ll_sum_prefix, original.ll_sum_prefix);  // exact bits
  EXPECT_EQ(loaded.holdout_ll_sum, original.holdout_ll_sum);
}

// The hex codec must preserve values decimal formatting mangles: signed
// zero, subnormals, and values with no short decimal representation.
TEST(ModelIoTest, TrainerStateHexDoublesPreserveSpecialValues) {
  hmm::TrainerState state = trained_state();
  state.min_improvement = -0.0;
  state.impossible_penalty = -std::numeric_limits<double>::denorm_min();
  state.ll_sum_prefix = std::nextafter(-123.456, -1000.0);
  std::stringstream wire;
  save_trainer_state(wire, state);
  const hmm::TrainerState loaded = load_trainer_state(wire);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.min_improvement),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(loaded.impossible_penalty, state.impossible_penalty);
  EXPECT_EQ(loaded.ll_sum_prefix, state.ll_sum_prefix);
}

TEST(ModelIoTest, TrainerStateFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cmarkov_trainer_state.txt";
  save_trainer_state_file(path, trained_state());
  const hmm::TrainerState loaded = load_trainer_state_file(path);
  EXPECT_EQ(loaded.train, trained_state().train);
  EXPECT_THROW(load_trainer_state_file("/nonexistent/trainer.state"),
               std::runtime_error);
}

TEST(ModelIoTest, TrainerStateRejectsWrongMagicAndVersion) {
  std::stringstream not_trainer("cmarkov-detector 1\n");
  EXPECT_THROW(load_trainer_state(not_trainer), std::runtime_error);
  std::stringstream bad_version("cmarkov-trainer-state banana\n");
  EXPECT_THROW(load_trainer_state(bad_version), std::runtime_error);
  std::stringstream future("cmarkov-trainer-state 999\n");
  EXPECT_THROW(load_trainer_state(future), std::runtime_error);
}

TEST(ModelIoTest, TrainerStateRejectsBadSlotCount) {
  // The prefix cache is all 16 merge slots or nothing; a partial slot set
  // could not continue the fold and must be refused at load time.
  std::string text = saved_trainer_text();
  const std::size_t pos = text.find("\nslots ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, text.find('\n', pos + 1) - pos, "\nslots 3");
  std::stringstream in(text);
  try {
    load_trainer_state(in);
    FAIL() << "expected rejection of a 3-slot prefix cache";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("merge slots"), std::string::npos)
        << e.what();
  }
}

TEST(ModelIoTest, TrainerStateRejectsMalformedHexDouble) {
  // strtoull once accepted a sign and a "0x" prefix here.
  for (const char* bad : {"zznothex", "-1", "0x3ff0000000000000",
                          "+3ff0000000000000"}) {
    std::stringstream in(
        with_key_value(saved_trainer_text(), "ll_sum_prefix", bad));
    try {
      load_trainer_state(in);
      ADD_FAILURE() << "accepted hex double '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("ll_sum_prefix"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelIoTest, TrainerStateRejectsInconsistentPrefix) {
  // Structurally well-formed but semantically impossible: the cached
  // prefix claims more sequences than the corpus holds. validate() fires.
  std::stringstream in(
      with_key_value(saved_trainer_text(), "cached_count", "99999"));
  EXPECT_THROW(load_trainer_state(in), std::invalid_argument);
}

TEST(ModelIoTest, TrainerStateRejectsTruncation) {
  const std::string& full = saved_trainer_text();
  std::stringstream truncated(full.substr(0, full.size() / 3));
  EXPECT_THROW(load_trainer_state(truncated), std::runtime_error);
}

// tests/golden/trainer_state_v1.txt pins the writer's bytes: the golden
// loads, and saving what it decodes to reproduces it byte for byte.
TEST(ModelIoTest, TrainerStateGoldenRewritesByteForByte) {
  const std::string path =
      std::string(CMARKOV_TEST_GOLDEN_DIR) + "/trainer_state_v1.txt";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  ASSERT_FALSE(golden.str().empty());

  const hmm::TrainerState loaded = load_trainer_state_file(path);
  EXPECT_EQ(loaded.train.size(), 10u);
  EXPECT_EQ(loaded.slot_prefix.size(), hmm::kTrainerMergeSlots);
  std::stringstream rewritten;
  save_trainer_state(rewritten, loaded);
  EXPECT_EQ(rewritten.str(), golden.str());
}

TEST(ModelIoTest, NonRegularPathsAreRefused) {
  EXPECT_THROW(load_detector_file("/dev/zero"), std::runtime_error);
  EXPECT_THROW(load_trainer_state_file("/dev/zero"), std::runtime_error);
  EXPECT_THROW(load_detector_file(::testing::TempDir()), std::runtime_error);
}

// ---- signed and prefixed spellings never wrap into unsigned fields ----

TEST(ModelIoTest, ZeroSegmentLengthIsRefusedAtLoad) {
  // Once accepted here and refused only when OnlineMonitor was built.
  expect_load_error(with_key_value(saved_model_text(), "segment_length", "0"),
                    "segment_length");
}

// ---- lying counts: refused before anything is allocated for them ----

/// Saves `text` as a file, loads it with `load` and asserts a
/// std::runtime_error naming `key`, where no single allocation before the
/// throw was larger than the file (plus its string terminator).
template <typename Load>
void expect_bounded_rejection(const std::string& text, const std::string& key,
                              Load load) {
  const std::string path = ::testing::TempDir() + "/cmarkov_lying_count.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  std::string message;
  std::size_t largest = 0;
  {
    const test_support::AllocationProbe probe;
    try {
      load(path);
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    largest = probe.largest();
  }
  EXPECT_NE(message.find("'" + key + "'"), std::string::npos)
      << "key '" << key << "', message '" << message << "'";
  EXPECT_LE(largest, text.size() + 1) << "key '" << key << "'";
}

void expect_model_rejection(const std::string& text, const std::string& key) {
  expect_bounded_rejection(text, key, load_detector_file);
}

void expect_trainer_rejection(const std::string& text,
                              const std::string& key) {
  expect_bounded_rejection(text, key, load_trainer_state_file);
}

TEST(ModelIoTest, LyingModelCountsAreRefusedBeforeAllocating) {
  const std::string& text = saved_model_text();
  expect_model_rejection(
      with_key_value(text, "transition", "4294967296 4294967296"),
      "transition");
  expect_model_rejection(with_key_value(text, "emission", "100000 100000"),
                         "emission");
  expect_model_rejection(with_key_value(text, "initial", "100000000"),
                         "initial");
  expect_model_rejection(with_key_value(text, "initial", "100000000000"),
                         "initial");
  expect_model_rejection(with_key_value(text, "alphabet", "100000000"),
                         "alphabet");
  // 2^32 x 2^32 wraps rows * cols to 0: the loader once allocated nothing
  // and wrote the body through it (SIGSEGV in `cmarkov scan`).
  expect_model_rejection(
      "cmarkov-detector 1\nfilter syscall\ncontext 1\nsegment_length 15\n"
      "trained 1\nthreshold -5\nalphabet 1\nread@main\n"
      "transition 4294967296 4294967296\n0.5 0.5 0.5\n",
      "transition");
}

TEST(ModelIoTest, LyingTrainerStateCountsAreRefusedBeforeAllocating) {
  const std::string& text = saved_trainer_text();
  for (const char* shape : {"model_transition", "model_emission",
                            "transition_num", "emission_num"}) {
    expect_trainer_rejection(
        with_key_value(text, shape, "4294967296 4294967296"), shape);
    expect_trainer_rejection(with_key_value(text, shape, "100000 100000"),
                             shape);
  }
  for (const char* count : {"model_initial", "train", "holdout", "batches",
                            "transition_den", "emission_den", "initial"}) {
    expect_trainer_rejection(with_key_value(text, count, "100000000"), count);
  }
  // A sequence's own length: the first line of the "train" block.
  const std::size_t block = text.find("\ntrain ");
  ASSERT_NE(block, std::string::npos);
  const std::size_t first = text.find('\n', block + 1) + 1;
  std::string lying = text;
  lying.replace(first, text.find(' ', first) - first, "100000000");
  expect_trainer_rejection(lying, "train");
}

// ---- every-byte mutation sweep (chaos_test sweeps snapshot files) ----

/// Loads every truncation and every ^0x20 byte flip of `text`. Each mutant
/// must load or throw std::runtime_error / std::invalid_argument; a crash,
/// std::bad_alloc or std::length_error fails the sweep.
template <typename Load>
void sweep_mutants(const std::string& text, Load load) {
  const auto survives = [&](const std::string& mutant, const char* kind,
                            std::size_t at) {
    std::stringstream in(mutant);
    try {
      load(in);
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << kind << " at " << at << " escaped: " << e.what();
    }
  };
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    survives(text.substr(0, cut), "truncation", cut);
  }
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    std::string flipped = text;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    survives(flipped, "flip", pos);
  }
}

TEST(ModelIoTest, EveryModelMutantLoadsOrThrowsCleanly) {
  // Three states over four symbols: every field of the format in under a
  // kilobyte.
  Rng rng(5);
  hmm::Alphabet alphabet;
  for (const char* symbol : {"read@main", "write@main", "open@init", "brk"}) {
    alphabet.intern(symbol);
  }
  DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kLibcalls;
  std::stringstream small;
  save_detector(small, Detector::from_parts(
                           config, hmm::randomly_initialized_hmm(3, 4, rng),
                           std::move(alphabet), -12.5, true));
  sweep_mutants(small.str(), load_detector);
}

TEST(ModelIoTest, EveryTrainerStateMutantLoadsOrThrowsCleanly) {
  sweep_mutants(saved_trainer_text(), load_trainer_state);
}

TEST(ModelIoTest, FromPartsValidatesShape) {
  const Detector original = trained_detector();
  hmm::Hmm narrow = original.model();
  hmm::Alphabet alphabet = original.alphabet();
  alphabet.intern("extra_symbol_beyond_emission");
  EXPECT_THROW(Detector::from_parts(original.config(), std::move(narrow),
                                    std::move(alphabet), 0.0, true),
               std::invalid_argument);
}

}  // namespace
}  // namespace cmarkov::core
