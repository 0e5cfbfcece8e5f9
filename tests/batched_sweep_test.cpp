// Equivalence tests for the batched candidate sweeps of the greedy family,
// each against a test-local copy of the one-query-at-a-time code:
//   * IncrementalEvaluator::values_with on coverage (lane-parallel sums) vs
//     value_with per item, bit for bit;
//   * IncrementalMatchingOracle::gains_of (chains of candidates that extend
//     one another share one scratch) vs gain_of per list;
//   * maximize_with_budget and greedy_max_cardinality vs the per-candidate
//     sweeps they replaced: picks, curves, evaluation and oracle-call counts;
//   * WeightedMatchingOracle's reused BFS buffers vs a fresh BFS per add_x.
// The threaded cases run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/budgeted_maximization.hpp"
#include "matching/bipartite_graph.hpp"
#include "matching/matching_oracle.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/generators.hpp"
#include "scheduling/intervals.hpp"
#include "scheduling/power_scheduler.hpp"
#include "submodular/coverage.hpp"
#include "submodular/facility_location.hpp"
#include "submodular/greedy.hpp"
#include "submodular/item_set.hpp"
#include "submodular/set_function.hpp"
#include "util/rng.hpp"

namespace ps {
namespace {

// ---------------------------------------------------------------------------
// values_with on coverage

/// Coverage functions of every weight kind the lanes must reproduce:
/// random, unit and zero weights, on universes of one and several words.
std::vector<submodular::CoverageFunction> coverage_cases(util::Rng& rng) {
  std::vector<submodular::CoverageFunction> out;
  for (const int elements : {5, 64, 70, 200}) {
    const int items = rng.uniform_int(3, 30);
    std::vector<std::vector<int>> covers(static_cast<std::size_t>(items));
    for (auto& cover : covers) {
      const int size = rng.uniform_int(0, std::min(elements, 12));
      for (int k = 0; k < size; ++k) {
        cover.push_back(rng.uniform_int(0, elements - 1));
      }
    }
    std::vector<double> random_weights(static_cast<std::size_t>(elements));
    for (double& w : random_weights) w = rng.uniform_double(0.0, 3.0);
    std::vector<double> some_zero = random_weights;
    for (std::size_t e = 0; e < some_zero.size(); e += 3) some_zero[e] = 0.0;
    out.emplace_back(elements, covers, random_weights);
    out.emplace_back(elements, covers);  // unit weights
    out.emplace_back(elements, covers,
                     std::vector<double>(static_cast<std::size_t>(elements),
                                         0.0));
    out.emplace_back(elements, covers, some_zero);
    out.push_back(submodular::CoverageFunction::random(
        items, elements, std::min(elements, 6), 2.0, rng));
  }
  return out;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The replaced sweep: one value_with per item.
std::vector<double> one_by_one(const submodular::IncrementalEvaluator& eval,
                               const std::vector<int>& items) {
  std::vector<double> out;
  for (int item : items) out.push_back(eval.value_with(item));
  return out;
}

TEST(ValuesWith, CoverageLanesAreBitIdenticalToValueWith) {
  util::Rng rng(1701);
  std::size_t queries = 0;
  for (const auto& f : coverage_cases(rng)) {
    const int n = f.ground_size();
    auto eval = f.make_incremental();
    ASSERT_NE(eval, nullptr);
    // A random add walk through every item, so later batches meet rows
    // that the working set already covers in full.
    const auto order = rng.permutation(n);
    for (int step = 0; step <= n; ++step) {
      for (std::size_t batch = 1; batch <= 17; ++batch) {
        std::vector<int> items;
        for (std::size_t j = 0; j < batch; ++j) {
          items.push_back(rng.uniform_int(0, n - 1));
        }
        std::vector<double> got(batch);
        eval->values_with(items.data(), batch, got.data());
        const auto want = one_by_one(*eval, items);
        for (std::size_t j = 0; j < batch; ++j) {
          ASSERT_EQ(bits_of(got[j]), bits_of(want[j]))
              << "step " << step << " batch " << batch << " lane " << j
              << ": " << got[j] << " vs " << want[j];
        }
        queries += batch;
      }
      if (step < n) eval->add(order[static_cast<std::size_t>(step)]);
    }
  }
  EXPECT_GT(queries, 10000u);
}

TEST(ValuesWith, CoverageAfterRemoveAndOnAnEmptyBatch) {
  util::Rng rng(1703);
  const auto f = submodular::CoverageFunction::random(20, 90, 7, 2.0, rng);
  auto eval = f.make_incremental();
  for (int i = 0; i < 10; ++i) eval->add(i);
  eval->remove(3);
  eval->remove(7);
  std::vector<int> items(20);
  for (int i = 0; i < 20; ++i) items[static_cast<std::size_t>(i)] = i;
  std::vector<double> got(20);
  eval->values_with(items.data(), items.size(), got.data());
  const auto want = one_by_one(*eval, items);
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(bits_of(got[j]), bits_of(want[j])) << j;
  }
  double untouched = -1.0;
  eval->values_with(items.data(), 0, &untouched);
  EXPECT_EQ(untouched, -1.0);
}

TEST(ValuesWith, DefaultLoopsAndCountingOracleChargesEveryItem) {
  util::Rng rng(1705);
  // Facility location keeps the default values_with.
  const auto facility =
      submodular::FacilityLocationFunction::random(12, 20, 3.0, rng);
  const auto coverage =
      submodular::CoverageFunction::random(12, 40, 5, 2.0, rng);
  for (const submodular::SetFunction* f :
       {static_cast<const submodular::SetFunction*>(&facility),
        static_cast<const submodular::SetFunction*>(&coverage)}) {
    submodular::CountingOracle counted(*f);
    auto eval = counted.make_incremental();
    ASSERT_NE(eval, nullptr);
    eval->add(2);
    eval->add(5);
    const std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<double> got(items.size());
    counted.reset();
    eval->values_with(items.data(), items.size(), got.data());
    EXPECT_EQ(counted.value_calls(), items.size());
    for (std::size_t j = 0; j < items.size(); ++j) {
      submodular::ItemSet s(f->ground_size());
      s.insert(2);
      s.insert(5);
      s.insert(items[j]);
      EXPECT_EQ(bits_of(got[j]), bits_of(f->value(s))) << j;
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalMatchingOracle::gains_of

/// The replaced sweep: one gain_of per list.
std::vector<int> gains_one_by_one(
    const matching::IncrementalMatchingOracle& oracle,
    const std::vector<std::vector<int>>& lists) {
  std::vector<int> out;
  for (const auto& list : lists) out.push_back(oracle.gain_of(list));
  return out;
}

std::vector<int> gains_batched(
    const matching::IncrementalMatchingOracle& oracle,
    const std::vector<std::vector<int>>& lists) {
  std::vector<const std::vector<int>*> pointers;
  for (const auto& list : lists) pointers.push_back(&list);
  std::vector<int> out(lists.size(), -1);
  oracle.gains_of(pointers.data(), pointers.size(), out.data());
  return out;
}

/// Prefix chains [s, s+1), [s, s+2), ... per processor row, as
/// generate_interval_pool lists them, with some links dropped, plus lists
/// that extend nothing, repeat the previous list or shrink it.
std::vector<std::vector<int>> mixed_lists(int rows, int row_length,
                                          util::Rng& rng) {
  std::vector<std::vector<int>> out;
  for (int r = 0; r < rows; ++r) {
    for (int start = 0; start < row_length; ++start) {
      std::vector<int> chain;
      for (int end = start; end < row_length; ++end) {
        chain.push_back(r * row_length + end);
        if (rng.uniform_int(0, 5) == 0) continue;  // a dropped link
        out.push_back(chain);
        switch (rng.uniform_int(0, 9)) {
          case 0:  // the same list again
            out.push_back(chain);
            break;
          case 1:  // a neighbour that is no extension
            out.push_back({rng.uniform_int(0, rows * row_length - 1),
                           rng.uniform_int(0, rows * row_length - 1)});
            break;
          case 2:  // the list without its last slot
            out.push_back(
                std::vector<int>(chain.begin(), chain.end() - 1));
            break;
          default:
            break;
        }
      }
    }
  }
  return out;
}

TEST(MatchingGainsOf, ChainsAndNeighboursMatchGainOf) {
  util::Rng rng(1707);
  for (int graph_index = 0; graph_index < 30; ++graph_index) {
    const int rows = rng.uniform_int(1, 3);
    const int row_length = rng.uniform_int(1, 12);
    const int nx = rows * row_length;
    const int ny = rng.uniform_int(1, 20);
    const auto graph = matching::BipartiteGraph::random(
        nx, ny, rng.uniform_double(0.05, 0.4), rng);
    matching::IncrementalMatchingOracle oracle(graph);
    const auto order = rng.permutation(nx);
    // Lists meet already-active slots once the walk has added some.
    for (int step = 0; step <= nx; ++step) {
      const auto lists = mixed_lists(rows, row_length, rng);
      const auto match_x = oracle.match_x();
      const auto match_y = oracle.match_y();
      ASSERT_EQ(gains_batched(oracle, lists), gains_one_by_one(oracle, lists))
          << "graph " << graph_index << " step " << step;
      // The oracle's own matching is untouched.
      ASSERT_EQ(oracle.match_x(), match_x);
      ASSERT_EQ(oracle.match_y(), match_y);
      if (step < nx) oracle.add_x(order[static_cast<std::size_t>(step)]);
    }
  }
}

TEST(MatchingGainsOf, IntervalPoolChainsMatchGainOf) {
  util::Rng rng(1709);
  for (int instance_index = 0; instance_index < 4; ++instance_index) {
    scheduling::RandomInstanceParams params;
    params.num_jobs = 12;
    params.num_processors = 3;
    params.horizon = 10;
    const auto instance = scheduling::random_feasible_instance(params, rng);
    const auto graph = instance.build_slot_job_graph();
    const auto pool = scheduling::generate_interval_pool(
        instance, scheduling::RestartCostModel(2.0));
    std::vector<std::vector<int>> lists;
    for (const auto& c : pool.candidates) lists.push_back(c.items);
    matching::IncrementalMatchingOracle oracle(graph);
    for (int pick = 0; pick < 6; ++pick) {
      ASSERT_EQ(gains_batched(oracle, lists), gains_one_by_one(oracle, lists));
      for (int x : lists[static_cast<std::size_t>(
               rng.uniform_int(0, static_cast<int>(lists.size()) - 1))]) {
        oracle.add_x(x);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// maximize_with_budget

/// The replaced plain greedy: every round one gain_of per unpicked
/// candidate, the first best ratio wins.
core::BudgetedMaximizationResult per_candidate_plain(
    core::IncrementalUtility& utility,
    const std::vector<core::CandidateSet>& candidates, double x,
    double epsilon) {
  core::BudgetedMaximizationResult result;
  std::vector<char> picked(candidates.size(), 0);
  const double stop_at = (1.0 - epsilon) * x;
  while (utility.current() < stop_at - 1e-9) {
    int best = -1;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (picked[i]) continue;
      const double gain = std::min(x - utility.current(),
                                   utility.gain_of(candidates[i].items));
      ++result.gain_evaluations;
      if (gain <= 1e-9) continue;
      const double ratio = gain / candidates[i].cost;
      if (best == -1 || ratio > best_ratio) {
        best = static_cast<int>(i);
        best_ratio = ratio;
      }
    }
    if (best == -1) break;
    const auto& chosen = candidates[static_cast<std::size_t>(best)];
    picked[static_cast<std::size_t>(best)] = 1;
    utility.commit(chosen.items);
    result.picked.push_back(best);
    result.picked_ids.push_back(chosen.id);
    result.cost += chosen.cost;
    result.utility_curve.push_back(utility.current());
    result.cost_curve.push_back(result.cost);
  }
  result.utility = utility.current();
  result.reached_target = utility.current() >= stop_at - 1e-9;
  return result;
}

/// Forwards every query to `inner` but keeps the default gains_of, which
/// asks gain_of once per candidate: the sweep before batching.
class PerCandidateUtility final : public core::IncrementalUtility {
 public:
  explicit PerCandidateUtility(core::IncrementalUtility& inner)
      : inner_(inner) {}
  double current() const override { return inner_.current(); }
  double gain_of(const std::vector<int>& items) const override {
    return inner_.gain_of(items);
  }
  void commit(const std::vector<int>& items) override {
    inner_.commit(items);
  }

 private:
  core::IncrementalUtility& inner_;
};

void expect_same_run(const core::BudgetedMaximizationResult& a,
                     const core::BudgetedMaximizationResult& b) {
  EXPECT_EQ(a.picked, b.picked);
  EXPECT_EQ(a.picked_ids, b.picked_ids);
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.utility_curve, b.utility_curve);
  EXPECT_EQ(a.cost_curve, b.cost_curve);
  EXPECT_EQ(a.gain_evaluations, b.gain_evaluations);
  EXPECT_EQ(a.reached_target, b.reached_target);
}

core::BudgetedMaximizationOptions greedy_options(bool lazy,
                                                 std::size_t threads,
                                                 double epsilon) {
  core::BudgetedMaximizationOptions options;
  options.lazy = lazy;
  options.num_threads = threads;
  options.epsilon = epsilon;
  return options;
}

/// Singletons over every item, in shuffled order, and groups of two or
/// three items, which take the full-value path.
std::vector<core::CandidateSet> coverage_candidates(int n, util::Rng& rng) {
  std::vector<core::CandidateSet> out;
  for (int i : rng.permutation(n)) {
    out.push_back({{i}, rng.uniform_double(0.5, 3.0),
                   static_cast<int>(out.size())});
    if (rng.uniform_int(0, 3) == 0) {
      std::vector<int> group{i, rng.uniform_int(0, n - 1)};
      if (rng.uniform_int(0, 1) == 0) group.push_back(rng.uniform_int(0, n - 1));
      out.push_back({group, rng.uniform_double(1.0, 4.0),
                     static_cast<int>(out.size())});
    }
  }
  return out;
}

TEST(BatchedGreedy, SetFunctionUtilityMatchesThePerCandidateSweep) {
  util::Rng rng(1711);
  for (int instance = 0; instance < 6; ++instance) {
    // Past 256 candidates the plain sweep spans several blocks.
    const int n = instance < 3 ? rng.uniform_int(5, 40) : 300;
    const auto f = submodular::CoverageFunction::random(
        n, 2 * n, std::min(2 * n, 8), 2.0, rng);
    const auto candidates = coverage_candidates(n, rng);
    const double x = 0.9 * f.total_weight();
    const submodular::CountingOracle counted_old(f);
    core::SetFunctionUtility old_utility(counted_old);
    const auto reference =
        per_candidate_plain(old_utility, candidates, x, 0.02);
    for (const std::size_t threads : {1u, 4u}) {
      const submodular::CountingOracle counted(f);
      core::SetFunctionUtility utility(counted);
      const auto run = core::maximize_with_budget(
          utility, candidates, x, greedy_options(false, threads, 0.02));
      expect_same_run(run, reference);
      EXPECT_EQ(counted.value_calls(), counted_old.value_calls())
          << "threads " << threads;
    }
    // Lazy: the batched first sweep against the per-candidate one.
    const submodular::CountingOracle counted_lazy_old(f);
    core::SetFunctionUtility lazy_old_inner(counted_lazy_old);
    PerCandidateUtility lazy_old(lazy_old_inner);
    const auto lazy_reference = core::maximize_with_budget(
        lazy_old, candidates, x, greedy_options(true, 1, 0.02));
    const submodular::CountingOracle counted_lazy(f);
    core::SetFunctionUtility lazy_utility(counted_lazy);
    const auto lazy = core::maximize_with_budget(
        lazy_utility, candidates, x, greedy_options(true, 1, 0.02));
    expect_same_run(lazy, lazy_reference);
    EXPECT_EQ(lazy.picked, reference.picked);
    EXPECT_EQ(counted_lazy.value_calls(), counted_lazy_old.value_calls());
  }
}

TEST(BatchedGreedy, MatchingOracleUtilityMatchesThePerCandidateSweep) {
  util::Rng rng(1713);
  for (int instance_index = 0; instance_index < 3; ++instance_index) {
    scheduling::RandomInstanceParams params;
    params.num_jobs = 16;
    params.num_processors = 3;
    params.horizon = 14;
    const auto instance = scheduling::random_feasible_instance(params, rng);
    const auto graph = instance.build_slot_job_graph();
    const auto pool = scheduling::generate_interval_pool(
        instance, scheduling::RestartCostModel(2.0));
    const double x = params.num_jobs;
    const double epsilon = 1.0 / (x + 1.0);
    scheduling::MatchingOracleUtility old_utility(graph);
    const auto reference =
        per_candidate_plain(old_utility, pool.candidates, x, epsilon);
    for (const std::size_t threads : {1u, 4u}) {
      scheduling::MatchingOracleUtility utility(graph);
      const auto run = core::maximize_with_budget(
          utility, pool.candidates, x,
          greedy_options(false, threads, epsilon));
      expect_same_run(run, reference);
      EXPECT_EQ(utility.oracle().match_y(), old_utility.oracle().match_y());
    }
    scheduling::MatchingOracleUtility lazy_old_inner(graph);
    PerCandidateUtility lazy_old(lazy_old_inner);
    const auto lazy_reference = core::maximize_with_budget(
        lazy_old, pool.candidates, x, greedy_options(true, 1, epsilon));
    scheduling::MatchingOracleUtility lazy_utility(graph);
    const auto lazy = core::maximize_with_budget(
        lazy_utility, pool.candidates, x, greedy_options(true, 1, epsilon));
    expect_same_run(lazy, lazy_reference);
    EXPECT_EQ(lazy.picked, reference.picked);
    EXPECT_EQ(lazy_utility.oracle().match_y(),
              lazy_old_inner.oracle().match_y());
  }
}

// ---------------------------------------------------------------------------
// greedy_max_cardinality

/// The replaced plain cardinality greedy: one value(S ∪ {i}) per unchosen
/// item and round.
submodular::GreedyResult per_item_greedy(const submodular::SetFunction& f,
                                         int k) {
  submodular::GreedyResult result;
  result.chosen = submodular::ItemSet(f.ground_size());
  double current = f.value(result.chosen);
  ++result.oracle_calls;
  for (int round = 0; round < k; ++round) {
    int best_item = -1;
    double best_gain = 0.0;
    for (int i = 0; i < f.ground_size(); ++i) {
      if (result.chosen.contains(i)) continue;
      const double gain = f.value(result.chosen.with(i)) - current;
      ++result.oracle_calls;
      if (best_item == -1 || gain > best_gain) {
        best_item = i;
        best_gain = gain;
      }
    }
    if (best_item == -1 || best_gain <= 0.0) break;
    result.chosen.insert(best_item);
    current += best_gain;
    result.order.push_back(best_item);
    result.value_curve.push_back(current);
  }
  result.value = current;
  return result;
}

TEST(BatchedGreedy, CardinalityGreedyMatchesThePerItemSweep) {
  util::Rng rng(1715);
  for (int instance = 0; instance < 6; ++instance) {
    const int n = rng.uniform_int(3, 90);
    const auto coverage = submodular::CoverageFunction::random(
        n, 2 * n, std::min(2 * n, 8), 2.0, rng);
    const auto facility =
        submodular::FacilityLocationFunction::random(n, 20, 3.0, rng);
    for (const submodular::SetFunction* f :
         {static_cast<const submodular::SetFunction*>(&coverage),
          static_cast<const submodular::SetFunction*>(&facility)}) {
      const int k = rng.uniform_int(1, n);
      const submodular::CountingOracle counted(*f);
      const submodular::CountingOracle counted_old(*f);
      const auto got = submodular::greedy_max_cardinality(counted, k);
      const auto want = per_item_greedy(counted_old, k);
      EXPECT_EQ(got.order, want.order);
      EXPECT_EQ(got.value_curve, want.value_curve);
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(got.chosen, want.chosen);
      EXPECT_EQ(got.oracle_calls, want.oracle_calls);
      EXPECT_EQ(counted.value_calls(), counted_old.value_calls());
    }
  }
}

// ---------------------------------------------------------------------------
// WeightedMatchingOracle

/// The replaced add_x: a BFS over freshly assigned parent arrays and a
/// std::queue per call.
class FreshBfsWeightedOracle {
 public:
  FreshBfsWeightedOracle(const matching::BipartiteGraph& graph,
                         const std::vector<double>& values)
      : graph_(graph),
        values_(values),
        active_(static_cast<std::size_t>(graph.num_x()), 0),
        match_x_(static_cast<std::size_t>(graph.num_x()), -1),
        match_y_(static_cast<std::size_t>(graph.num_y()), -1) {}

  double add_x(int x) {
    if (active_[static_cast<std::size_t>(x)]) return 0.0;
    active_[static_cast<std::size_t>(x)] = 1;
    std::vector<int> parent(static_cast<std::size_t>(graph_.num_y()), -2);
    std::vector<int> entry(static_cast<std::size_t>(graph_.num_x()), -2);
    std::queue<int> queue;
    queue.push(x);
    entry[static_cast<std::size_t>(x)] = -1;
    int best_job = -1;
    double best_value = -1.0;
    while (!queue.empty()) {
      const int s = queue.front();
      queue.pop();
      for (int job : graph_.neighbors_of_x(s)) {
        if (parent[static_cast<std::size_t>(job)] != -2) continue;
        parent[static_cast<std::size_t>(job)] = s;
        const int matched = match_y_[static_cast<std::size_t>(job)];
        if (matched == -1) {
          const double v = values_[static_cast<std::size_t>(job)];
          if (v > best_value) {
            best_value = v;
            best_job = job;
          }
        } else if (entry[static_cast<std::size_t>(matched)] == -2) {
          entry[static_cast<std::size_t>(matched)] = job;
          queue.push(matched);
        }
      }
    }
    if (best_job == -1) return 0.0;
    int u = best_job;
    for (;;) {
      const int s = parent[static_cast<std::size_t>(u)];
      const int displaced = s == x ? -1 : match_x_[static_cast<std::size_t>(s)];
      match_x_[static_cast<std::size_t>(s)] = u;
      match_y_[static_cast<std::size_t>(u)] = s;
      if (s == x) break;
      u = displaced;
    }
    value_ += values_[static_cast<std::size_t>(best_job)];
    return values_[static_cast<std::size_t>(best_job)];
  }

  double value() const { return value_; }
  const std::vector<int>& match_x() const { return match_x_; }
  const std::vector<int>& match_y() const { return match_y_; }

 private:
  const matching::BipartiteGraph& graph_;
  const std::vector<double>& values_;
  std::vector<char> active_;
  std::vector<int> match_x_;
  std::vector<int> match_y_;
  double value_ = 0.0;
};

TEST(WeightedMatchingOracle, ReusedBfsBuffersMatchAFreshBfs) {
  util::Rng rng(1717);
  for (int graph_index = 0; graph_index < 60; ++graph_index) {
    // Alternate small and large graphs so the thread-local buffers are
    // reused across sizes.
    const int nx = rng.uniform_int(1, graph_index % 2 == 0 ? 8 : 40);
    const int ny = rng.uniform_int(1, graph_index % 2 == 0 ? 8 : 40);
    const auto graph = matching::BipartiteGraph::random(
        nx, ny, rng.uniform_double(0.05, 0.5), rng);
    std::vector<double> values(static_cast<std::size_t>(ny));
    for (double& v : values) {
      // Ties between equal values exercise the first-best rule.
      v = static_cast<double>(rng.uniform_int(0, 4));
    }
    matching::WeightedMatchingOracle oracle(graph, values);
    FreshBfsWeightedOracle reference(graph, values);
    for (int x : rng.permutation(nx)) {
      ASSERT_EQ(oracle.add_x(x), reference.add_x(x)) << graph_index;
      ASSERT_EQ(oracle.match_x(), reference.match_x()) << graph_index;
      ASSERT_EQ(oracle.match_y(), reference.match_y()) << graph_index;
      ASSERT_EQ(oracle.value(), reference.value());
      ASSERT_EQ(oracle.add_x(x), 0.0);
    }
  }
}

}  // namespace
}  // namespace ps
