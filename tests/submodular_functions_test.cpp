// Tests for the concrete set functions: values, marginals, and — via the
// verify.hpp checkers — the monotonicity/submodularity/subadditivity
// properties each class claims (and the non-properties: cut is not monotone,
// min-aggregate is not submodular, the hidden-good-set function is only
// almost submodular).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "submodular/additive.hpp"
#include "submodular/aggregates.hpp"
#include "submodular/coverage.hpp"
#include "submodular/cut.hpp"
#include "submodular/facility_location.hpp"
#include "submodular/hidden_good_set.hpp"
#include "submodular/set_function.hpp"
#include "submodular/verify.hpp"
#include "util/rng.hpp"

namespace ps::submodular {
namespace {

TEST(Coverage, ValuesAndMarginals) {
  // 3 items over 4 elements.
  CoverageFunction f(4, {{0, 1}, {1, 2}, {3}});
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3)), 0.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0})), 2.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0, 1})), 3.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0, 1, 2})), 4.0);
  EXPECT_DOUBLE_EQ(f.marginal(ItemSet(3, {0}), 1), 1.0);
  EXPECT_DOUBLE_EQ(f.marginal(ItemSet(3, {0, 1}), 2), 1.0);
  EXPECT_DOUBLE_EQ(f.total_weight(), 4.0);
}

TEST(Coverage, WeightedElements) {
  CoverageFunction f(2, {{0}, {1}, {0, 1}}, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0})), 2.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {2})), 7.0);
  EXPECT_DOUBLE_EQ(f.marginal(ItemSet(3, {0}), 2), 5.0);
}

TEST(CoverageDeathTest, RandomRejectsSizesItCannotDraw) {
  // cover > elements wrote past the item's mask row; a negative size asked
  // for a negative sample or allocation. Now the generator says why and
  // aborts in every build.
  const auto draw = [](int items, int elements, int cover) {
    util::Rng rng(1);
    CoverageFunction::random(items, elements, cover, 2.0, rng);
  };
  EXPECT_DEATH(draw(3, 6, 8), "elements = 6, cover = 8");
  EXPECT_DEATH(draw(60, 120, 500), "cover = 500");
  EXPECT_DEATH(draw(-1, 10, 2), "items = -1");
  EXPECT_DEATH(draw(4, -2, 0), "elements = -2");
  EXPECT_DEATH(draw(4, 10, -1), "cover = -1");
  EXPECT_EQ(coverage_generator_violation(4, 10, 10), "");
  EXPECT_EQ(coverage_generator_violation(0, 0, 0), "");
}

TEST(FacilityLocation, ValuesAndMarginals) {
  FacilityLocationFunction f({{3.0, 0.0}, {1.0, 4.0}});
  EXPECT_DOUBLE_EQ(f.value(ItemSet(2)), 0.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(2, {0})), 3.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(2, {1})), 5.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(2, {0, 1})), 7.0);
  EXPECT_DOUBLE_EQ(f.marginal(ItemSet(2, {0}), 1), 4.0);
}

TEST(GraphCut, ValuesAndMarginals) {
  GraphCutFunction f(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3)), 0.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {1})), 5.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0, 1, 2})), 0.0);
  // Adding vertex 1 to {0}: edge (0,1) leaves the cut (-2), (1,2) enters (+3).
  EXPECT_DOUBLE_EQ(f.marginal(ItemSet(3, {0}), 1), 3.0 - 2.0);
}

TEST(GraphCut, NotMonotone) {
  util::Rng rng(3);
  const auto f = GraphCutFunction::random(7, 0.5, 4.0, rng);
  EXPECT_TRUE(find_monotonicity_violation_exhaustive(f).has_value());
}

TEST(Additive, SumsWeights) {
  AdditiveFunction f({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0, 2})), 5.0);
  EXPECT_DOUBLE_EQ(f.marginal(ItemSet(3, {0}), 1), 2.0);
  EXPECT_DOUBLE_EQ(f.marginal(ItemSet(3, {1}), 1), 0.0);
}

TEST(BudgetedAdditive, CapsAtBudget) {
  BudgetedAdditiveFunction f({3.0, 3.0, 3.0}, 5.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0})), 3.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0, 1})), 5.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0, 1, 2})), 5.0);
}

TEST(Aggregates, MaxAndMin) {
  MaxAggregateFunction fmax({1.0, 5.0, 3.0});
  MinAggregateFunction fmin({1.0, 5.0, 3.0});
  EXPECT_DOUBLE_EQ(fmax.value(ItemSet(3)), 0.0);
  EXPECT_DOUBLE_EQ(fmin.value(ItemSet(3)), 0.0);
  EXPECT_DOUBLE_EQ(fmax.value(ItemSet(3, {0, 2})), 3.0);
  EXPECT_DOUBLE_EQ(fmin.value(ItemSet(3, {0, 2})), 1.0);
  EXPECT_DOUBLE_EQ(fmax.value(ItemSet(3, {1})), 5.0);
}

TEST(Aggregates, MinIsNotSubmodular) {
  MinAggregateFunction f({1.0, 5.0, 3.0, 2.0});
  EXPECT_TRUE(find_submodularity_violation_exhaustive(f).has_value());
}

TEST(TopGamma, WeightedSortedSum) {
  TopGammaFunction f({4.0, 1.0, 3.0}, {1.0, 0.5});
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3)), 0.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {1})), 1.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0, 2})), 4.0 + 0.5 * 3.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(3, {0, 1, 2})), 4.0 + 0.5 * 3.0);
}

TEST(TopGamma, MaxIsSpecialCase) {
  TopGammaFunction top({4.0, 1.0, 3.0}, {1.0});
  MaxAggregateFunction fmax({4.0, 1.0, 3.0});
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    ItemSet s(3);
    for (int i = 0; i < 3; ++i) {
      if (rng.bernoulli(0.5)) s.insert(i);
    }
    EXPECT_DOUBLE_EQ(top.value(s), fmax.value(s));
  }
}

TEST(HiddenGoodSet, ValueLadder) {
  ItemSet good(6, {0, 1, 2, 3});
  HiddenGoodSetFunction f(6, good, 2.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(6)), 0.0);
  EXPECT_DOUBLE_EQ(f.value(ItemSet(6, {4})), 1.0);         // no overlap
  EXPECT_DOUBLE_EQ(f.value(ItemSet(6, {0})), 1.0);         // ceil(1/2)=1
  EXPECT_DOUBLE_EQ(f.value(ItemSet(6, {0, 1, 2})), 2.0);   // ceil(3/2)=2
  EXPECT_DOUBLE_EQ(f.value(ItemSet(6, {0, 1, 2, 3})), 2.0);
  EXPECT_DOUBLE_EQ(f.optimum(), 2.0);
  EXPECT_EQ(f.overlap(ItemSet(6, {0, 4})), 1);
}

TEST(HiddenGoodSet, AlmostSubmodular) {
  // Proposition 3.5.3: f(A)+f(B) >= f(A∪B)+f(A∩B) - 2.
  util::Rng rng(17);
  const auto f = HiddenGoodSetFunction::random(12, 6, 8, 2.0, rng);
  for (int trial = 0; trial < 2000; ++trial) {
    ItemSet a(12), b(12);
    for (int i = 0; i < 12; ++i) {
      if (rng.bernoulli(0.5)) a.insert(i);
      if (rng.bernoulli(0.5)) b.insert(i);
    }
    EXPECT_GE(f.value(a) + f.value(b) + 2.0 + 1e-9,
              f.value(a.united(b)) + f.value(a.intersected(b)));
  }
}

TEST(CountingOracle, CountsCalls) {
  AdditiveFunction f({1.0, 2.0});
  CountingOracle oracle(f);
  EXPECT_EQ(oracle.total_calls(), 0u);
  oracle.value(ItemSet(2, {0}));
  oracle.value(ItemSet(2));
  oracle.marginal(ItemSet(2), 1);
  EXPECT_EQ(oracle.value_calls(), 2u);
  EXPECT_EQ(oracle.marginal_calls(), 1u);
  EXPECT_EQ(oracle.total_calls(), 3u);
  oracle.reset();
  EXPECT_EQ(oracle.total_calls(), 0u);
}

TEST(CountingOracle, ForwardsValues) {
  AdditiveFunction f({1.0, 2.0});
  CountingOracle oracle(f);
  EXPECT_DOUBLE_EQ(oracle.value(ItemSet(2, {0, 1})), 3.0);
  EXPECT_DOUBLE_EQ(oracle.marginal(ItemSet(2, {0}), 1), 2.0);
  EXPECT_EQ(oracle.ground_size(), 2);
}

// --- Parameterized property sweep over random instances of each class ------

enum class FunctionKind {
  kCoverage,
  kFacilityLocation,
  kCut,
  kAdditive,
  kBudgetedAdditive,
  kMaxAggregate,
  kTopGamma,
};

struct PropertyCase {
  FunctionKind kind;
  bool monotone;
  const char* name;
};

std::unique_ptr<SetFunction> make_function(FunctionKind kind, util::Rng& rng) {
  switch (kind) {
    case FunctionKind::kCoverage:
      return std::make_unique<CoverageFunction>(
          CoverageFunction::random(8, 12, 4, 3.0, rng));
    case FunctionKind::kFacilityLocation:
      return std::make_unique<FacilityLocationFunction>(
          FacilityLocationFunction::random(8, 6, 5.0, rng));
    case FunctionKind::kCut:
      return std::make_unique<GraphCutFunction>(
          GraphCutFunction::random(8, 0.4, 3.0, rng));
    case FunctionKind::kAdditive: {
      std::vector<double> w(8);
      for (auto& x : w) x = rng.uniform_double(0.0, 4.0);
      return std::make_unique<AdditiveFunction>(std::move(w));
    }
    case FunctionKind::kBudgetedAdditive: {
      std::vector<double> w(8);
      for (auto& x : w) x = rng.uniform_double(0.0, 4.0);
      return std::make_unique<BudgetedAdditiveFunction>(std::move(w), 7.0);
    }
    case FunctionKind::kMaxAggregate: {
      std::vector<double> w(8);
      for (auto& x : w) x = rng.uniform_double(0.0, 4.0);
      return std::make_unique<MaxAggregateFunction>(std::move(w));
    }
    case FunctionKind::kTopGamma: {
      std::vector<double> w(8);
      for (auto& x : w) x = rng.uniform_double(0.0, 4.0);
      return std::make_unique<TopGammaFunction>(
          std::move(w), std::vector<double>{1.0, 0.7, 0.4, 0.1});
    }
  }
  return nullptr;
}

class SubmodularPropertyTest : public testing::TestWithParam<PropertyCase> {};

TEST_P(SubmodularPropertyTest, ExhaustivelySubmodular) {
  util::Rng rng(99);
  for (int instance = 0; instance < 3; ++instance) {
    const auto f = make_function(GetParam().kind, rng);
    const auto violation = find_submodularity_violation_exhaustive(*f);
    EXPECT_FALSE(violation.has_value())
        << GetParam().name << ": " << violation->to_string();
  }
}

TEST_P(SubmodularPropertyTest, MonotoneWhenClaimed) {
  if (!GetParam().monotone) GTEST_SKIP();
  util::Rng rng(101);
  for (int instance = 0; instance < 3; ++instance) {
    const auto f = make_function(GetParam().kind, rng);
    const auto violation = find_monotonicity_violation_exhaustive(*f);
    EXPECT_FALSE(violation.has_value())
        << GetParam().name << ": " << violation->to_string();
  }
}

TEST_P(SubmodularPropertyTest, SubadditiveAlways) {
  util::Rng rng(103);
  const auto f = make_function(GetParam().kind, rng);
  // Submodular + non-negative with F(∅)>=0 implies subadditive; check
  // directly on random pairs.
  const auto violation = find_subadditivity_violation_random(*f, 3000, rng);
  EXPECT_FALSE(violation.has_value())
      << GetParam().name << ": " << violation->to_string();
}

TEST_P(SubmodularPropertyTest, UnionMarginalLemma211) {
  util::Rng rng(107);
  const auto f = make_function(GetParam().kind, rng);
  if (!GetParam().monotone) GTEST_SKIP();
  std::string message;
  EXPECT_TRUE(check_union_marginal_lemma(*f, 500, 4, rng, &message))
      << GetParam().name << ": " << message;
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, SubmodularPropertyTest,
    testing::Values(
        PropertyCase{FunctionKind::kCoverage, true, "coverage"},
        PropertyCase{FunctionKind::kFacilityLocation, true, "facility"},
        PropertyCase{FunctionKind::kCut, false, "cut"},
        PropertyCase{FunctionKind::kAdditive, true, "additive"},
        PropertyCase{FunctionKind::kBudgetedAdditive, true,
                     "budgeted_additive"},
        PropertyCase{FunctionKind::kMaxAggregate, true, "max_aggregate"},
        PropertyCase{FunctionKind::kTopGamma, true, "top_gamma"}),
    [](const testing::TestParamInfo<PropertyCase>& info) {
      return info.param.name;
    });

TEST(Verify, DetectsPlantedSubmodularityViolation) {
  // A supermodular function: value = |S|^2.
  class Square final : public SetFunction {
   public:
    int ground_size() const override { return 5; }
    double value(const ItemSet& s) const override {
      return static_cast<double>(s.size()) * s.size();
    }
  } f;
  EXPECT_TRUE(find_submodularity_violation_exhaustive(f).has_value());
  util::Rng rng(5);
  EXPECT_TRUE(find_submodularity_violation_random(f, 5000, rng).has_value());
}

TEST(Verify, DetectsPlantedMonotonicityViolation) {
  class Dip final : public SetFunction {
   public:
    int ground_size() const override { return 4; }
    double value(const ItemSet& s) const override {
      return s.size() == 3 ? 1.0 : 2.0;
    }
  } f;
  EXPECT_TRUE(find_monotonicity_violation_exhaustive(f).has_value());
  util::Rng rng(5);
  EXPECT_TRUE(find_monotonicity_violation_random(f, 5000, rng).has_value());
}

TEST(Verify, SubadditivityViolationDetected) {
  class Super final : public SetFunction {
   public:
    int ground_size() const override { return 4; }
    double value(const ItemSet& s) const override {
      return s.size() >= 3 ? 10.0 : 0.0;
    }
  } f;
  EXPECT_TRUE(find_subadditivity_violation_exhaustive(f).has_value());
}

}  // namespace
}  // namespace ps::submodular
