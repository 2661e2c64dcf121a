// Tests for the stateful hmm::Trainer (PR 9): the bit-identity contract
// between batch fit and incremental partial_fit, resumable TrainerState
// round trips through core::model_io, and the TrainingReport ergonomics.
//
// Bit identity means exact double equality (EXPECT_EQ on every matrix
// cell, no tolerance): fit(A ++ B) and fit(A); partial_fit(B) must walk
// the same floating-point trajectory at every thread count.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/core/model_io.hpp"
#include "src/hmm/random_init.hpp"
#include "src/hmm/trainer.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::hmm {
namespace {

std::vector<ObservationSeq> sample_sequences(const Hmm& model, Rng& rng,
                                             std::size_t count,
                                             std::size_t length) {
  std::vector<ObservationSeq> out;
  for (std::size_t s = 0; s < count; ++s) {
    ObservationSeq seq;
    std::vector<double> init = model.initial;
    std::size_t state = rng.weighted_index(init);
    for (std::size_t t = 0; t < length; ++t) {
      std::vector<double> em(model.num_symbols());
      for (std::size_t k = 0; k < em.size(); ++k) {
        em[k] = model.emission(state, k);
      }
      seq.push_back(rng.weighted_index(em));
      std::vector<double> tr(model.num_states());
      for (std::size_t j = 0; j < tr.size(); ++j) {
        tr[j] = model.transition(state, j);
      }
      state = rng.weighted_index(tr);
    }
    out.push_back(std::move(seq));
  }
  return out;
}

Hmm ground_truth() {
  Hmm model;
  model.transition = Matrix::from_rows({{0.85, 0.1, 0.05},
                                        {0.1, 0.8, 0.1},
                                        {0.05, 0.15, 0.8}});
  model.emission = Matrix::from_rows({{0.8, 0.1, 0.05, 0.05},
                                      {0.1, 0.7, 0.1, 0.1},
                                      {0.05, 0.05, 0.8, 0.1}});
  model.initial = {0.6, 0.3, 0.1};
  return model;
}

void expect_same_matrix(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << what << " cell (" << i << "," << j << ")";
    }
  }
}

void expect_same_model(const Hmm& a, const Hmm& b) {
  expect_same_matrix(a.transition, b.transition, "transition");
  expect_same_matrix(a.emission, b.emission, "emission");
  ASSERT_EQ(a.initial.size(), b.initial.size());
  for (std::size_t i = 0; i < a.initial.size(); ++i) {
    EXPECT_EQ(a.initial[i], b.initial[i]) << "initial[" << i << "]";
  }
}

TrainingOptions options_with_threads(std::size_t threads) {
  TrainingOptions options;
  options.max_iterations = 12;
  options.min_improvement = 1e-6;
  options.patience = 2;
  options.exec.threads = threads;
  return options;
}

// fit(A ++ B) == fit(A); partial_fit(B), exactly, at 1/4/8 threads — and
// the batch and incremental sides may even run at *different* thread
// counts (the PR 2 guarantee composes with the prefix cache).
TEST(IncrementalTrainingTest, PartialFitIsBitIdenticalToBatchFit) {
  Rng rng(11);
  const Hmm truth = ground_truth();
  const auto corpus = sample_sequences(truth, rng, 60, 25);
  const Hmm initial = randomly_initialized_hmm(3, 4, rng);

  const std::vector<ObservationSeq> base(corpus.begin(), corpus.begin() + 45);
  const std::vector<ObservationSeq> extra(corpus.begin() + 45, corpus.end());

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Trainer batch(initial, options_with_threads(1));
    batch.fit(corpus);

    Trainer incremental(initial, options_with_threads(threads));
    incremental.fit(base);
    const TrainingReport report = incremental.partial_fit(extra);

    expect_same_model(batch.model(), incremental.model());
    EXPECT_EQ(batch.history().back().iterations, report.iterations);
    EXPECT_EQ(batch.history().back().train_log_likelihood,
              report.train_log_likelihood);
  }
}

// Chained partial_fits land on the same bits as one batch fit of the whole
// concatenation, and the batch ledger records each absorption.
TEST(IncrementalTrainingTest, ChainedPartialFitsMatchSingleBatch) {
  Rng rng(12);
  const auto corpus = sample_sequences(ground_truth(), rng, 48, 20);
  const Hmm initial = randomly_initialized_hmm(3, 4, rng);

  Trainer batch(initial, options_with_threads(1));
  batch.fit(corpus);

  Trainer incremental(initial, options_with_threads(4));
  incremental.fit({corpus.begin(), corpus.begin() + 16});
  incremental.partial_fit({corpus.begin() + 16, corpus.begin() + 31});
  incremental.partial_fit({corpus.begin() + 31, corpus.end()});

  expect_same_model(batch.model(), incremental.model());
  ASSERT_EQ(incremental.state().batches.size(), 3u);
  EXPECT_EQ(incremental.state().batches[0].id, 0u);
  EXPECT_EQ(incremental.state().batches[1].id, 1u);
  EXPECT_EQ(incremental.state().batches[2].id, 2u);
  EXPECT_EQ(incremental.state().batches[0].train_count, 16u);
  EXPECT_EQ(incremental.state().batches[1].train_count, 15u);
  EXPECT_EQ(incremental.state().batches[2].train_count, 17u);
  EXPECT_EQ(incremental.state().train.size(), corpus.size());
  // One report per run, oldest first (TrainingReport ergonomics).
  ASSERT_EQ(incremental.history().size(), 3u);
}

// Serialize mid-training, reload in a "new process", partial_fit the rest:
// bit-identical to the uninterrupted trainer. This is the crash-resume
// story model_io exists for.
TEST(IncrementalTrainingTest, SerializedResumeIsBitIdentical) {
  Rng rng(13);
  const auto corpus = sample_sequences(ground_truth(), rng, 50, 22);
  const auto holdout = sample_sequences(ground_truth(), rng, 10, 22);
  const Hmm initial = randomly_initialized_hmm(3, 4, rng);

  const std::vector<ObservationSeq> base(corpus.begin(), corpus.begin() + 40);
  const std::vector<ObservationSeq> extra(corpus.begin() + 40, corpus.end());

  Trainer uninterrupted(initial, options_with_threads(4));
  uninterrupted.fit(base, holdout);
  uninterrupted.partial_fit(extra);

  Trainer first_process(initial, options_with_threads(4));
  first_process.fit(base, holdout);
  std::stringstream wire;
  core::save_trainer_state(wire, first_process.state());

  Trainer second_process(core::load_trainer_state(wire),
                         options_with_threads(8));
  const TrainingReport resumed = second_process.partial_fit(extra);

  expect_same_model(uninterrupted.model(), second_process.model());
  EXPECT_EQ(uninterrupted.history().back().iterations, resumed.iterations);
  EXPECT_EQ(uninterrupted.history().back().holdout_log_likelihood,
            resumed.holdout_log_likelihood);
  // The resumed trainer rematerializes the model lazily; after the run it
  // must report one.
  EXPECT_TRUE(second_process.has_model());
}

// The prefix cache is an optimization, never a semantic: a resumed state
// whose cache was cleared still produces the same bits (it just pays the
// full iteration-0 price again).
TEST(IncrementalTrainingTest, ClearedPrefixCacheChangesNothing) {
  Rng rng(14);
  const auto corpus = sample_sequences(ground_truth(), rng, 36, 18);
  const Hmm initial = randomly_initialized_hmm(3, 4, rng);

  const std::vector<ObservationSeq> base(corpus.begin(), corpus.begin() + 24);
  const std::vector<ObservationSeq> extra(corpus.begin() + 24, corpus.end());

  Trainer cached(initial, options_with_threads(1));
  cached.fit(base);

  TrainerState cold = cached.state();
  cold.cached_count = 0;
  cold.slot_prefix.clear();
  cold.ll_sum_prefix = 0.0;
  cold.observed_prefix = 0;
  cold.holdout_cached = 0;
  cold.holdout_ll_sum = 0.0;

  cached.partial_fit(extra);
  Trainer uncached(std::move(cold), options_with_threads(1));
  uncached.partial_fit(extra);

  expect_same_model(cached.model(), uncached.model());
}

// partial_fit may grow the holdout set; termination then evaluates the
// concatenated holdout exactly as a batch fit would.
TEST(IncrementalTrainingTest, HoldoutGrowsWithPartialFit) {
  Rng rng(15);
  const auto corpus = sample_sequences(ground_truth(), rng, 40, 20);
  const auto holdout = sample_sequences(ground_truth(), rng, 12, 20);
  const Hmm initial = randomly_initialized_hmm(3, 4, rng);

  const std::vector<ObservationSeq> base_h(holdout.begin(),
                                           holdout.begin() + 8);
  const std::vector<ObservationSeq> extra_h(holdout.begin() + 8,
                                            holdout.end());

  Trainer batch(initial, options_with_threads(1));
  batch.fit(corpus, holdout);

  Trainer incremental(initial, options_with_threads(4));
  incremental.fit({corpus.begin(), corpus.begin() + 30}, base_h);
  incremental.partial_fit({corpus.begin() + 30, corpus.end()}, extra_h);

  expect_same_model(batch.model(), incremental.model());
  EXPECT_EQ(incremental.state().holdout.size(), holdout.size());
  EXPECT_EQ(incremental.state().batches.back().holdout_count, 4u);
}

// Vocabulary growth needs a batch fit: symbols outside θ₀'s emission
// width are rejected loudly rather than silently mis-trained.
TEST(IncrementalTrainingTest, OutOfVocabularySymbolThrows) {
  Rng rng(16);
  Trainer trainer(randomly_initialized_hmm(3, 4, rng),
                  options_with_threads(1));
  trainer.fit(sample_sequences(ground_truth(), rng, 8, 10));
  const std::vector<ObservationSeq> bad = {{0, 1, 4}};  // symbol 4 >= M=4
  EXPECT_THROW(trainer.partial_fit(bad), std::invalid_argument);
}

// An empty partial_fit re-derives the same model (replay over the same
// corpus) and absorbs nothing.
TEST(IncrementalTrainingTest, EmptyPartialFitIsIdempotent) {
  Rng rng(17);
  const auto corpus = sample_sequences(ground_truth(), rng, 20, 15);
  Trainer trainer(randomly_initialized_hmm(3, 4, rng),
                  options_with_threads(1));
  trainer.fit(corpus);
  const Hmm before = trainer.model();
  trainer.partial_fit({});
  expect_same_model(before, trainer.model());
  EXPECT_EQ(trainer.state().train.size(), corpus.size());
}

// Model access before any run throws; the initial model is immutable.
TEST(IncrementalTrainingTest, ModelAccessBeforeTrainingThrows) {
  Rng rng(18);
  const Hmm initial = randomly_initialized_hmm(3, 4, rng);
  Trainer trainer(initial, options_with_threads(1));
  EXPECT_FALSE(trainer.has_model());
  EXPECT_THROW(trainer.model(), std::logic_error);
  EXPECT_TRUE(trainer.history().empty());
  trainer.fit(sample_sequences(ground_truth(), rng, 10, 12));
  expect_same_model(trainer.initial_model(), initial);
}

// After a run, the prefix cache covers the whole absorbed corpus, and the
// per-run entry/final LLs in the batch ledger are coherent.
TEST(IncrementalTrainingTest, StateBookkeepingAfterRuns) {
  Rng rng(19);
  const auto corpus = sample_sequences(ground_truth(), rng, 30, 16);
  Trainer trainer(randomly_initialized_hmm(3, 4, rng),
                  options_with_threads(4));
  trainer.fit({corpus.begin(), corpus.begin() + 20});
  trainer.partial_fit({corpus.begin() + 20, corpus.end()});

  const TrainerState& state = trainer.state();
  EXPECT_EQ(state.cached_count, state.train.size());
  EXPECT_EQ(state.slot_prefix.size(), kTrainerMergeSlots);
  EXPECT_LE(state.observed_prefix, state.cached_count);
  EXPECT_NO_THROW(state.validate());
  for (const BatchRecord& record : state.batches) {
    EXPECT_GE(record.iterations, 1u);
    EXPECT_GE(record.final_train_ll, record.entry_train_ll - 1e-6)
        << "batch " << record.id;
  }
}

}  // namespace
}  // namespace cmarkov::hmm
