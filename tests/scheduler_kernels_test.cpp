// Equivalence tests for the three kernels under the Theorem 2.2.1 pipeline,
// each against a copy of the simpler code it replaced, kept here as the
// oracle:
//   * min_cost_cover over a CoverSpans table vs the per-group (s, e) scan;
//   * IncrementalMatchingOracle with dead-set stamps and a thread-local
//     gain_of scratch vs a fresh stamp per search and a copy per gain_of;
//   * SetFunctionUtility over IncrementalEvaluator::value_with vs a full
//     value() per query.
// Plus the threaded plain greedy against its serial run, over both utility
// adapters (the binary runs under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
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
#include "submodular/item_set.hpp"
#include "submodular/set_function.hpp"
#include "util/rng.hpp"

namespace ps {
namespace {

using scheduling::AwakeInterval;
using scheduling::CostModel;
using scheduling::kInfiniteCost;

// ---------------------------------------------------------------------------
// min_cost_cover

/// The replaced DP: for every group (j, i) of required times, scan every
/// interval [s, e) with s <= t_j and e > t_i, keeping the first strict
/// minimum.
std::vector<AwakeInterval> scan_min_cost_cover(
    int processor, const std::vector<int>& required_times, int horizon,
    const CostModel& cost_model, double* cost) {
  if (required_times.empty()) {
    *cost = 0.0;
    return {};
  }
  const auto m = required_times.size();
  auto cheapest_span = [&](std::size_t j, std::size_t i, AwakeInterval* out) {
    const int lo = required_times[j];
    const int hi = required_times[i];
    double best = kInfiniteCost;
    for (int s = 0; s <= lo; ++s) {
      for (int e = hi + 1; e <= horizon; ++e) {
        const double c = cost_model.cost(processor, s, e);
        if (c < best) {
          best = c;
          *out = AwakeInterval{processor, s, e};
        }
      }
    }
    return best;
  };

  std::vector<double> dp(m + 1, kInfiniteCost);
  std::vector<std::size_t> split(m + 1, 0);
  std::vector<AwakeInterval> chosen_span(m + 1);
  dp[0] = 0.0;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (!std::isfinite(dp[j])) continue;
      AwakeInterval span;
      const double c = cheapest_span(j, i - 1, &span);
      if (dp[j] + c < dp[i]) {
        dp[i] = dp[j] + c;
        split[i] = j;
        chosen_span[i] = span;
      }
    }
  }
  *cost = dp[m];
  std::vector<AwakeInterval> result;
  if (!std::isfinite(dp[m])) return result;
  for (std::size_t i = m; i > 0; i = split[i]) {
    result.push_back(chosen_span[i]);
  }
  std::reverse(result.begin(), result.end());
  return result;
}

/// Explicit per-interval costs: small integers (so ties are everywhere),
/// some intervals forbidden, a few NaN.
class TableCostModel final : public CostModel {
 public:
  TableCostModel(int processors, int horizon, util::Rng& rng)
      : horizon_(horizon),
        costs_(static_cast<std::size_t>(processors * horizon * (horizon + 1))) {
    for (double& c : costs_) {
      const int draw = rng.uniform_int(0, 19);
      c = draw == 0   ? kInfiniteCost
          : draw == 1 ? std::numeric_limits<double>::quiet_NaN()
                      : static_cast<double>(rng.uniform_int(1, 4));
    }
  }

  double cost(int processor, int start, int end) const override {
    return costs_[static_cast<std::size_t>(
        (processor * horizon_ + start) * (horizon_ + 1) + end)];
  }

 private:
  int horizon_;
  std::vector<double> costs_;
};

void expect_same_cover(int processor, const std::vector<int>& times,
                       int horizon, const CostModel& model,
                       const scheduling::CoverSpans& spans) {
  double scan_cost = -1.0, table_cost = -2.0;
  const auto scan =
      scan_min_cost_cover(processor, times, horizon, model, &scan_cost);
  const auto table = scheduling::min_cost_cover(spans, times, &table_cost);
  EXPECT_EQ(table_cost, scan_cost);
  EXPECT_EQ(table, scan);
}

TEST(CoverSpans, MatchesTheIntervalScanOnEveryCostModel) {
  constexpr int kProcessors = 2;
  util::Rng rng(1601);
  for (int horizon : {1, 2, 5, 9, 13}) {
    const scheduling::RestartCostModel restart(2.0, {1.0, 0.5});
    std::vector<double> prices(static_cast<std::size_t>(horizon));
    for (double& p : prices) p = static_cast<double>(rng.uniform_int(0, 3));
    const scheduling::TimeVaryingCostModel varying(1.5, prices, {1.0, 2.0});
    const scheduling::ConvexFanCostModel fan(1.0, 0.25);
    const scheduling::FlatIntervalCostModel flat(1.0);
    std::vector<scheduling::UnavailabilityCostModel::Outage> outages;
    for (int p = 0; p < kProcessors; ++p) {
      for (int t = 0; t < horizon; ++t) {
        if (rng.uniform_int(0, 4) == 0) outages.push_back({p, t});
      }
    }
    const scheduling::UnavailabilityCostModel unavailable(
        restart, kProcessors, horizon, outages);
    const TableCostModel table(kProcessors, horizon, rng);
    const CostModel* const models[] = {&restart, &varying, &fan,
                                       &flat,    &unavailable, &table};

    for (const CostModel* model : models) {
      for (int p = 0; p < kProcessors; ++p) {
        const scheduling::CoverSpans spans(p, horizon, *model);
        // Every subset of times for short horizons, random ones beyond.
        const int subsets = horizon <= 9 ? 1 << horizon : 300;
        for (int s = 0; s < subsets; ++s) {
          const unsigned bits =
              horizon <= 9 ? static_cast<unsigned>(s)
                           : static_cast<unsigned>(
                                 rng.uniform_int(0, (1 << horizon) - 1));
          std::vector<int> times;
          for (int t = 0; t < horizon; ++t) {
            if ((bits >> t) & 1u) times.push_back(t);
          }
          expect_same_cover(p, times, horizon, *model, spans);
          if (HasFailure()) {
            FAIL() << "horizon " << horizon << " processor " << p
                   << " times mask " << bits;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalMatchingOracle

/// The replaced oracle: a fresh stamp for every augmenting search, a full
/// copy for every gain_of.
class FreshStampOracle {
 public:
  explicit FreshStampOracle(const matching::BipartiteGraph& graph)
      : graph_(&graph),
        active_(static_cast<std::size_t>(graph.num_x()), 0),
        match_x_(static_cast<std::size_t>(graph.num_x()), -1),
        match_y_(static_cast<std::size_t>(graph.num_y()), -1),
        visit_stamp_(static_cast<std::size_t>(graph.num_y()), 0) {}

  int add_x(int x) {
    if (active_[static_cast<std::size_t>(x)]) return 0;
    active_[static_cast<std::size_t>(x)] = 1;
    ++current_stamp_;
    if (try_augment_from(x)) {
      ++size_;
      return 1;
    }
    return 0;
  }

  int gain_of(const std::vector<int>& extra_x) const {
    FreshStampOracle copy = *this;
    int gain = 0;
    for (int x : extra_x) gain += copy.add_x(x);
    return gain;
  }

  int size() const { return size_; }
  const std::vector<int>& match_x() const { return match_x_; }
  const std::vector<int>& match_y() const { return match_y_; }

 private:
  bool try_augment_from(int x) {
    for (int y : graph_->neighbors_of_x(x)) {
      if (visit_stamp_[static_cast<std::size_t>(y)] == current_stamp_) {
        continue;
      }
      visit_stamp_[static_cast<std::size_t>(y)] = current_stamp_;
      const int other = match_y_[static_cast<std::size_t>(y)];
      if (other == -1 || try_augment_from(other)) {
        match_x_[static_cast<std::size_t>(x)] = y;
        match_y_[static_cast<std::size_t>(y)] = x;
        return true;
      }
    }
    return false;
  }

  const matching::BipartiteGraph* graph_;
  std::vector<char> active_;
  std::vector<int> match_x_;
  std::vector<int> match_y_;
  int size_ = 0;
  std::vector<int> visit_stamp_;
  int current_stamp_ = 0;
};

TEST(IncrementalMatchingOracle, DeadSetSearchMatchesFreshStampSearch) {
  util::Rng rng(1603);
  for (int graph_index = 0; graph_index < 60; ++graph_index) {
    const int nx = rng.uniform_int(1, 24);
    const int ny = rng.uniform_int(1, 24);
    const double density = rng.uniform_double(0.05, 0.4);
    const auto graph = matching::BipartiteGraph::random(nx, ny, density, rng);
    matching::IncrementalMatchingOracle oracle(graph);
    FreshStampOracle reference(graph);
    const auto order = rng.permutation(nx);
    for (std::size_t step = 0; step < order.size(); ++step) {
      // What-if queries on random slot groups, repeats and members included.
      for (int query = 0; query < 4; ++query) {
        std::vector<int> extra;
        const int count = rng.uniform_int(1, 4);
        for (int k = 0; k < count; ++k) {
          extra.push_back(rng.uniform_int(0, nx - 1));
        }
        ASSERT_EQ(oracle.gain_of(extra), reference.gain_of(extra))
            << "graph " << graph_index << " step " << step;
      }
      const int x = order[step];
      ASSERT_EQ(oracle.add_x(x), reference.add_x(x))
          << "graph " << graph_index << " step " << step;
      ASSERT_EQ(oracle.match_x(), reference.match_x())
          << "graph " << graph_index << " step " << step;
      ASSERT_EQ(oracle.match_y(), reference.match_y())
          << "graph " << graph_index << " step " << step;
      ASSERT_EQ(oracle.size(), reference.size());
      // Adding a member again changes nothing.
      ASSERT_EQ(oracle.add_x(x), 0);
      ASSERT_EQ(oracle.match_y(), reference.match_y());
    }
  }
}

// ---------------------------------------------------------------------------
// SetFunctionUtility

/// The replaced adapter: one value() on the grown set per query.
class FullValueUtility final : public core::IncrementalUtility {
 public:
  explicit FullValueUtility(const submodular::SetFunction& f)
      : f_(f), set_(f.ground_size()), current_value_(f.value(set_)) {}

  double current() const override { return current_value_; }

  double gain_of(const std::vector<int>& items) const override {
    submodular::ItemSet augmented = set_;
    for (int item : items) augmented.insert(item);
    return f_.value(augmented) - current_value_;
  }

  void commit(const std::vector<int>& items) override {
    for (int item : items) set_.insert(item);
    current_value_ = f_.value(set_);
  }

  const submodular::ItemSet& working_set() const { return set_; }

 private:
  const submodular::SetFunction& f_;
  submodular::ItemSet set_;
  double current_value_;
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

/// Candidates over `n` items: singletons (the value_with path) and, when
/// `with_groups`, a few multi-item groups (the full-value path).
std::vector<core::CandidateSet> mixed_candidates(int n, bool with_groups,
                                                 util::Rng& rng) {
  std::vector<core::CandidateSet> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({{i}, rng.uniform_double(0.5, 3.0),
                   static_cast<int>(out.size())});
  }
  if (with_groups) {
    for (int g = 0; g < n / 3; ++g) {
      out.push_back({{rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1)},
                     rng.uniform_double(1.0, 4.0),
                     static_cast<int>(out.size())});
    }
  }
  return out;
}

void expect_adapters_agree(const submodular::SetFunction& f, double target,
                           util::Rng& rng) {
  for (const bool with_groups : {false, true}) {
    const auto candidates = mixed_candidates(f.ground_size(), with_groups, rng);
    for (const bool lazy : {true, false}) {
      core::BudgetedMaximizationOptions options;
      options.epsilon = 0.02;
      options.lazy = lazy;
      const submodular::CountingOracle counted_new(f);
      const submodular::CountingOracle counted_old(f);
      core::SetFunctionUtility fast(counted_new);
      FullValueUtility full(counted_old);
      const auto a = core::maximize_with_budget(fast, candidates, target,
                                                options);
      const auto b = core::maximize_with_budget(full, candidates, target,
                                                options);
      expect_same_run(a, b);
      EXPECT_EQ(counted_new.value_calls(), counted_old.value_calls())
          << "lazy " << lazy << " groups " << with_groups;
      EXPECT_EQ(counted_new.marginal_calls(), counted_old.marginal_calls());
      EXPECT_EQ(fast.working_set(), full.working_set()) << lazy;
    }
  }
}

TEST(SetFunctionUtility, ValueWithPathMatchesFullValuesOnCoverage) {
  util::Rng rng(1607);
  for (int instance = 0; instance < 8; ++instance) {
    const auto f = submodular::CoverageFunction::random(
        rng.uniform_int(4, 30), 70, 6, 2.0, rng);
    expect_adapters_agree(f, f.total_weight() * 0.9, rng);
  }
}

TEST(SetFunctionUtility, ValueWithPathMatchesFullValuesOnFacilityLocation) {
  util::Rng rng(1609);
  for (int instance = 0; instance < 8; ++instance) {
    const auto f = submodular::FacilityLocationFunction::random(
        rng.uniform_int(4, 20), 25, 3.0, rng);
    submodular::ItemSet all(f.ground_size());
    for (int i = 0; i < f.ground_size(); ++i) all.insert(i);
    expect_adapters_agree(f, f.value(all) * 0.95, rng);
  }
}

TEST(SetFunctionUtility, CommitOfMembersAndRepeatsMatchesFullValues) {
  const submodular::CoverageFunction f(5, {{0, 1}, {2}, {3}, {1, 4}});
  const submodular::CountingOracle counted_new(f);
  const submodular::CountingOracle counted_old(f);
  core::SetFunctionUtility fast(counted_new);
  FullValueUtility full(counted_old);
  for (const std::vector<int>& items :
       std::vector<std::vector<int>>{{0, 0, 3}, {3}, {}, {1, 0, 3}, {2}}) {
    fast.commit(items);
    full.commit(items);
    EXPECT_EQ(fast.current(), full.current());
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(fast.gain_of({i}), full.gain_of({i})) << i;
    }
    EXPECT_EQ(counted_new.value_calls(), counted_old.value_calls());
  }
}

// ---------------------------------------------------------------------------
// Threaded plain greedy

core::BudgetedMaximizationOptions plain_options(std::size_t threads) {
  core::BudgetedMaximizationOptions options;
  options.lazy = false;
  options.num_threads = threads;
  return options;
}

TEST(ThreadedGreedy, MatchingOracleUtilityMatchesSerial) {
  util::Rng rng(1611);
  for (int instance_index = 0; instance_index < 3; ++instance_index) {
    scheduling::RandomInstanceParams params;
    params.num_jobs = 14;
    params.num_processors = 3;
    params.horizon = 9;
    const auto instance = scheduling::random_feasible_instance(params, rng);
    const auto graph = instance.build_slot_job_graph();
    const scheduling::RestartCostModel model(2.0);
    const auto pool = scheduling::generate_interval_pool(instance, model);
    const double target = static_cast<double>(params.num_jobs);

    scheduling::MatchingOracleUtility serial_utility(graph);
    const auto serial = core::maximize_with_budget(
        serial_utility, pool.candidates, target, plain_options(1));
    scheduling::MatchingOracleUtility threaded_utility(graph);
    const auto threaded = core::maximize_with_budget(
        threaded_utility, pool.candidates, target, plain_options(4));
    expect_same_run(threaded, serial);
    EXPECT_EQ(threaded_utility.oracle().match_y(),
              serial_utility.oracle().match_y());
  }
}

TEST(ThreadedGreedy, SetFunctionUtilityMatchesSerial) {
  util::Rng rng(1613);
  const auto coverage =
      submodular::CoverageFunction::random(40, 120, 8, 2.0, rng);
  const auto facility =
      submodular::FacilityLocationFunction::random(30, 40, 3.0, rng);
  submodular::ItemSet all(facility.ground_size());
  for (int i = 0; i < facility.ground_size(); ++i) all.insert(i);
  const std::pair<const submodular::SetFunction*, double> cases[] = {
      {&coverage, coverage.total_weight() * 0.9},
      {&facility, facility.value(all) * 0.95}};
  for (const auto& [f, target] : cases) {
    const auto candidates = mixed_candidates(f->ground_size(), true, rng);
    const submodular::CountingOracle counted_serial(*f);
    const submodular::CountingOracle counted_threaded(*f);
    core::SetFunctionUtility serial_utility(counted_serial);
    core::SetFunctionUtility threaded_utility(counted_threaded);
    const auto serial = core::maximize_with_budget(
        serial_utility, candidates, target, plain_options(1));
    const auto threaded = core::maximize_with_budget(
        threaded_utility, candidates, target, plain_options(4));
    expect_same_run(threaded, serial);
    EXPECT_EQ(counted_threaded.value_calls(), counted_serial.value_calls());
  }
}

}  // namespace
}  // namespace ps
