// Unit tests for the Hmm data type (validation, smoothing) and the random
// initializer behind the Regular baselines.
#include <gtest/gtest.h>

#include "src/hmm/hmm.hpp"
#include "src/hmm/random_init.hpp"

namespace cmarkov::hmm {
namespace {

Hmm tiny_valid_hmm() {
  Hmm model;
  model.transition = Matrix::from_rows({{0.7, 0.3}, {0.4, 0.6}});
  model.emission = Matrix::from_rows({{0.9, 0.1}, {0.2, 0.8}});
  model.initial = {0.6, 0.4};
  return model;
}

TEST(HmmTest, ValidModelPassesValidation) {
  EXPECT_NO_THROW(tiny_valid_hmm().validate());
}

TEST(HmmTest, ValidationCatchesShapeErrors) {
  Hmm model = tiny_valid_hmm();
  model.emission = Matrix::from_rows({{1.0, 0.0}});  // 1 row for 2 states
  EXPECT_THROW(model.validate(), std::invalid_argument);

  model = tiny_valid_hmm();
  model.initial = {1.0};
  EXPECT_THROW(model.validate(), std::invalid_argument);

  model = tiny_valid_hmm();
  model.transition = Matrix(2, 3, 1.0 / 3.0);
  EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(HmmTest, ValidationCatchesNonStochasticRows) {
  Hmm model = tiny_valid_hmm();
  model.transition(0, 0) = 0.9;  // row 0 now sums to 1.2
  EXPECT_THROW(model.validate(), std::invalid_argument);

  model = tiny_valid_hmm();
  model.emission(1, 0) = -0.2;
  model.emission(1, 1) = 1.2;
  EXPECT_THROW(model.validate(), std::invalid_argument);

  model = tiny_valid_hmm();
  model.initial = {0.5, 0.4};
  EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(HmmTest, ValidationToleranceIsRespected) {
  Hmm model = tiny_valid_hmm();
  model.initial = {0.6 + 1e-9, 0.4};
  EXPECT_NO_THROW(model.validate(1e-6));
  EXPECT_THROW(model.validate(1e-12), std::invalid_argument);
}

TEST(HmmTest, SmoothKeepsStochasticityAndPositivity) {
  Hmm model;
  model.transition = Matrix::from_rows({{1.0, 0.0}, {0.0, 1.0}});
  model.emission = Matrix::from_rows({{1.0, 0.0}, {0.0, 1.0}});
  model.initial = {1.0, 0.0};
  model.smooth(0.01);
  model.validate();
  EXPECT_GT(model.transition(0, 1), 0.0);
  EXPECT_GT(model.emission(1, 0), 0.0);
  EXPECT_GT(model.initial[1], 0.0);
  // Dominant entries stay dominant.
  EXPECT_GT(model.transition(0, 0), 0.9);
}

TEST(HmmTest, SmoothZeroIsNoOp) {
  Hmm model = tiny_valid_hmm();
  const Hmm before = model;
  model.smooth(0.0);
  EXPECT_EQ(model.transition, before.transition);
  EXPECT_EQ(model.emission, before.emission);
}

TEST(RandomInitTest, ProducesValidModelOfRequestedShape) {
  Rng rng(1);
  const Hmm model = randomly_initialized_hmm(7, 11, rng);
  EXPECT_EQ(model.num_states(), 7u);
  EXPECT_EQ(model.num_symbols(), 11u);
  EXPECT_NO_THROW(model.validate());
}

TEST(RandomInitTest, ParametersStrictlyPositive) {
  Rng rng(2);
  const Hmm model = randomly_initialized_hmm(5, 5, rng);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_GT(model.initial[i], 0.0);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_GT(model.transition(i, j), 0.0);
      EXPECT_GT(model.emission(i, j), 0.0);
    }
  }
}

TEST(RandomInitTest, DeterministicPerSeed) {
  Rng a(3);
  Rng b(3);
  const Hmm ma = randomly_initialized_hmm(4, 6, a);
  const Hmm mb = randomly_initialized_hmm(4, 6, b);
  EXPECT_EQ(ma.transition, mb.transition);
  EXPECT_EQ(ma.emission, mb.emission);
  EXPECT_EQ(ma.initial, mb.initial);
}

TEST(RandomInitTest, RejectsDegenerateArguments) {
  Rng rng(4);
  EXPECT_THROW(randomly_initialized_hmm(0, 3, rng), std::invalid_argument);
  EXPECT_THROW(randomly_initialized_hmm(3, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace cmarkov::hmm
