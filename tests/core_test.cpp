// Tests for the Lemma 2.1.2 framework: correctness of the greedy loop,
// equivalence of lazy / plain / parallel modes, the bicriteria guarantee
// against brute-force optima, sub-additive candidate costs, and the Set Cover
// specialization.
#include <gtest/gtest.h>

#include <cmath>

#include "core/budgeted_maximization.hpp"
#include "submodular/additive.hpp"
#include "submodular/coverage.hpp"
#include "util/rng.hpp"

namespace ps::core {
namespace {

using submodular::CoverageFunction;
using submodular::ItemSet;

/// Brute-force minimum cost over candidate subsets reaching utility x.
double brute_force_min_cost(const submodular::SetFunction& f,
                            const std::vector<CandidateSet>& candidates,
                            double target_x) {
  const auto m = candidates.size();
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t pick = 0; pick < (1u << m); ++pick) {
    ItemSet items(f.ground_size());
    double cost = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if ((pick >> i) & 1u) {
        cost += candidates[i].cost;
        for (int it : candidates[i].items) items.insert(it);
      }
    }
    if (cost < best && f.value(items) >= target_x - 1e-9) best = cost;
  }
  return best;
}

std::vector<CandidateSet> singleton_candidates(int n, double cost = 1.0) {
  std::vector<CandidateSet> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(CandidateSet{{i}, cost, i});
  }
  return out;
}

TEST(SetFunctionUtility, TracksWorkingSet) {
  CoverageFunction f(4, {{0, 1}, {2}, {3}});
  SetFunctionUtility utility(f);
  EXPECT_DOUBLE_EQ(utility.current(), 0.0);
  EXPECT_DOUBLE_EQ(utility.gain_of({0}), 2.0);
  EXPECT_DOUBLE_EQ(utility.current(), 0.0);  // gain_of must not mutate
  utility.commit({0, 1});
  EXPECT_DOUBLE_EQ(utility.current(), 3.0);
  EXPECT_DOUBLE_EQ(utility.gain_of({1}), 0.0);
  EXPECT_EQ(utility.working_set(), ItemSet(3, {0, 1}));
}

TEST(BudgetedMax, ReachesTargetOnEasyInstance) {
  CoverageFunction f(6, {{0, 1}, {2, 3}, {4, 5}});
  const auto result =
      maximize_with_budget(f, singleton_candidates(3), 6.0, {});
  EXPECT_TRUE(result.reached_target);
  EXPECT_DOUBLE_EQ(result.utility, 6.0);
  EXPECT_EQ(result.picked.size(), 3u);
}

TEST(BudgetedMax, PrefersCheapEfficientCandidates) {
  CoverageFunction f(4, {{0, 1, 2, 3}, {0, 1, 2, 3}});
  std::vector<CandidateSet> candidates{{{0}, 10.0, 0}, {{1}, 1.0, 1}};
  const auto result = maximize_with_budget(f, candidates, 4.0, {});
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.picked, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(result.cost, 1.0);
}

TEST(BudgetedMax, InfeasibleTargetReported) {
  CoverageFunction f(4, {{0}, {1}});
  const auto result =
      maximize_with_budget(f, singleton_candidates(2), 4.0, {});
  EXPECT_FALSE(result.reached_target);
  EXPECT_DOUBLE_EQ(result.utility, 2.0);  // picked everything useful
}

TEST(BudgetedMax, ZeroTargetIsTrivial) {
  CoverageFunction f(2, {{0}});
  const auto result =
      maximize_with_budget(f, singleton_candidates(1), 0.0, {});
  EXPECT_TRUE(result.reached_target);
  EXPECT_TRUE(result.picked.empty());
  EXPECT_DOUBLE_EQ(result.cost, 0.0);
}

TEST(BudgetedMax, LazyMatchesPlain) {
  util::Rng rng(81);
  for (int instance = 0; instance < 10; ++instance) {
    const auto f = CoverageFunction::random(12, 20, 5, 2.0, rng);
    std::vector<CandidateSet> candidates;
    for (int i = 0; i < 12; ++i) {
      candidates.push_back(
          CandidateSet{{i}, rng.uniform_double(0.5, 3.0), i});
    }
    BudgetedMaximizationOptions plain_opt;
    plain_opt.lazy = false;
    plain_opt.epsilon = 0.05;
    BudgetedMaximizationOptions lazy_opt = plain_opt;
    lazy_opt.lazy = true;
    const double x = f.total_weight() * 0.8;
    const auto plain = maximize_with_budget(f, candidates, x, plain_opt);
    const auto lazy = maximize_with_budget(f, candidates, x, lazy_opt);
    EXPECT_NEAR(plain.utility, lazy.utility, 1e-9) << instance;
    EXPECT_NEAR(plain.cost, lazy.cost, 1e-9) << instance;
    EXPECT_GE(plain.gain_evaluations, lazy.gain_evaluations);
  }
}

TEST(BudgetedMax, ParallelMatchesSerial) {
  // The plain greedy calls parallel_for once per round over cheap gain
  // evaluations: the case where per-index scheduling costs the most.
  util::Rng rng(83);
  const auto f = CoverageFunction::random(20, 40, 6, 2.0, rng);
  std::vector<CandidateSet> candidates;
  for (int i = 0; i < 20; ++i) {
    candidates.push_back(CandidateSet{{i}, rng.uniform_double(0.5, 3.0), i});
  }
  BudgetedMaximizationOptions serial;
  serial.lazy = false;
  serial.num_threads = 1;
  const double x = f.total_weight() * 0.7;
  const auto a = maximize_with_budget(f, candidates, x, serial);
  for (const std::size_t threads : {2u, 3u, 4u, 7u}) {
    BudgetedMaximizationOptions parallel = serial;
    parallel.num_threads = threads;
    const auto b = maximize_with_budget(f, candidates, x, parallel);
    EXPECT_EQ(a.picked, b.picked) << threads;
    EXPECT_EQ(a.cost, b.cost) << threads;
    EXPECT_EQ(a.utility_curve, b.utility_curve) << threads;
    EXPECT_EQ(a.gain_evaluations, b.gain_evaluations) << threads;
  }
}

TEST(BudgetedMax, BicriteriaGuaranteeHolds) {
  // Lemma 2.1.2: cost <= 2·B·log2(1/ε) where B is the optimum cost for
  // utility x (measured by brute force).
  util::Rng rng(87);
  for (int instance = 0; instance < 8; ++instance) {
    const auto f = CoverageFunction::random(10, 14, 4, 1.0, rng);
    std::vector<CandidateSet> candidates;
    for (int i = 0; i < 10; ++i) {
      candidates.push_back(
          CandidateSet{{i}, rng.uniform_double(0.5, 2.0), i});
    }
    const double x = f.value(ItemSet::full(10)) * 0.9;
    const double opt = brute_force_min_cost(f, candidates, x);
    ASSERT_TRUE(std::isfinite(opt));
    for (double eps : {0.25, 0.1, 0.02}) {
      BudgetedMaximizationOptions options;
      options.epsilon = eps;
      const auto result = maximize_with_budget(f, candidates, x, options);
      ASSERT_TRUE(result.reached_target) << instance << " eps=" << eps;
      EXPECT_GE(result.utility, (1.0 - eps) * x - 1e-9);
      const double bound = 2.0 * opt * std::max(1.0, std::log2(1.0 / eps));
      EXPECT_LE(result.cost, bound + 1e-9)
          << "instance " << instance << " eps=" << eps << " opt=" << opt;
    }
  }
}

TEST(BudgetedMax, SubAdditiveBundleCosts) {
  // A bundle candidate covering everything may be cheaper than the sum of
  // its parts — exactly the generality Definition 1 adds over linear costs.
  CoverageFunction f(6, {{0, 1}, {2, 3}, {4, 5}, {0, 1, 2, 3, 4, 5}});
  std::vector<CandidateSet> candidates{
      {{0}, 2.0, 0}, {{1}, 2.0, 1}, {{2}, 2.0, 2}, {{3}, 3.0, 3}};
  const auto result = maximize_with_budget(f, candidates, 6.0, {});
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.picked, (std::vector<int>{3}));
  EXPECT_DOUBLE_EQ(result.cost, 3.0);
}

TEST(BudgetedMax, UtilityCurveMatchesCostCurve) {
  CoverageFunction f(4, {{0}, {1}, {2}, {3}});
  const auto result =
      maximize_with_budget(f, singleton_candidates(4, 2.0), 4.0, {});
  ASSERT_EQ(result.utility_curve.size(), result.picked.size());
  ASSERT_EQ(result.cost_curve.size(), result.picked.size());
  for (std::size_t i = 1; i < result.utility_curve.size(); ++i) {
    EXPECT_GE(result.utility_curve[i], result.utility_curve[i - 1]);
    EXPECT_GT(result.cost_curve[i], result.cost_curve[i - 1]);
  }
  EXPECT_DOUBLE_EQ(result.cost_curve.back(), result.cost);
}

TEST(SetCover, GreedyCoversEverything) {
  util::Rng rng(91);
  for (int instance = 0; instance < 10; ++instance) {
    // Random coverable instance.
    std::vector<std::vector<int>> covers;
    for (int s = 0; s < 8; ++s) {
      covers.push_back(rng.sample_without_replacement(12, 4));
    }
    for (int e = 0; e < 12; ++e) {
      covers[static_cast<std::size_t>(rng.uniform_int(0, 7))].push_back(e);
    }
    const auto result = solve_set_cover(12, covers);
    EXPECT_TRUE(result.covered_all);
    ItemSet covered(12);
    for (int s : result.chosen) {
      for (int e : covers[static_cast<std::size_t>(s)]) covered.insert(e);
    }
    EXPECT_EQ(covered.size(), 12);
  }
}

TEST(SetCover, RespectsHarmonicBound) {
  // Greedy Set Cover is H_n-approximate; verify against the brute force.
  util::Rng rng(93);
  for (int instance = 0; instance < 6; ++instance) {
    std::vector<std::vector<int>> covers;
    for (int s = 0; s < 7; ++s) {
      covers.push_back(rng.sample_without_replacement(10, 4));
    }
    for (int e = 0; e < 10; ++e) {
      covers[static_cast<std::size_t>(rng.uniform_int(0, 6))].push_back(e);
    }
    CoverageFunction f(10, covers);
    const auto greedy = solve_set_cover(10, covers);
    const double opt =
        brute_force_min_cost(f, singleton_candidates(7), 10.0);
    double harmonic = 0.0;
    for (int i = 1; i <= 10; ++i) harmonic += 1.0 / i;
    EXPECT_LE(greedy.cost, opt * harmonic + 1e-9) << instance;
  }
}

TEST(SetCover, WeightedCosts) {
  std::vector<std::vector<int>> covers{{0, 1}, {0}, {1}};
  const auto cheap_pair = solve_set_cover(2, covers, {10.0, 1.0, 1.0});
  EXPECT_TRUE(cheap_pair.covered_all);
  EXPECT_DOUBLE_EQ(cheap_pair.cost, 2.0);

  const auto cheap_big = solve_set_cover(2, covers, {1.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(cheap_big.cost, 1.0);
}

TEST(SetCover, UncoverableReported) {
  const auto result = solve_set_cover(3, {{0}, {1}});
  EXPECT_FALSE(result.covered_all);
}

}  // namespace
}  // namespace ps::core
