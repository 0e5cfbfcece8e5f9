// Tests for the scheduling substrate: instance model, cost models, interval
// generation, the exact min-cost cover DP, and the schedule validator.
#include <gtest/gtest.h>

#include <cmath>

#include "scheduling/cost_model.hpp"
#include "scheduling/instance.hpp"
#include "scheduling/intervals.hpp"
#include "scheduling/schedule.hpp"
#include "util/rng.hpp"

namespace ps::scheduling {
namespace {

SchedulingInstance tiny_instance() {
  // 2 processors, horizon 4, 3 jobs.
  std::vector<Job> jobs(3);
  jobs[0].allowed = {{0, 0}, {0, 1}};
  jobs[1].allowed = {{0, 1}, {1, 2}};
  jobs[2].allowed = {{1, 3}};
  jobs[0].value = 1.0;
  jobs[1].value = 2.0;
  jobs[2].value = 4.0;
  return SchedulingInstance(2, 4, std::move(jobs));
}

TEST(Instance, SlotIndexRoundTrip) {
  const auto instance = tiny_instance();
  EXPECT_EQ(instance.num_slots(), 8);
  for (int p = 0; p < 2; ++p) {
    for (int t = 0; t < 4; ++t) {
      const int idx = instance.slot_index(p, t);
      const SlotRef ref = instance.slot_of(idx);
      EXPECT_EQ(ref.processor, p);
      EXPECT_EQ(ref.time, t);
    }
  }
}

TEST(Instance, GraphHasOneEdgePerAdmissiblePair) {
  const auto instance = tiny_instance();
  const auto g = instance.build_slot_job_graph();
  EXPECT_EQ(g.num_x(), 8);
  EXPECT_EQ(g.num_y(), 3);
  EXPECT_EQ(g.num_edges(), 5u);
}

TEST(Instance, ValueStatistics) {
  const auto instance = tiny_instance();
  EXPECT_DOUBLE_EQ(instance.total_value(), 7.0);
  EXPECT_DOUBLE_EQ(instance.max_value(), 4.0);
  EXPECT_DOUBLE_EQ(instance.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(instance.value_spread(), 4.0);
  EXPECT_EQ(instance.job_values(), (std::vector<double>{1.0, 2.0, 4.0}));
}

TEST(RestartCost, AlphaPlusLength) {
  RestartCostModel model(3.0);
  EXPECT_DOUBLE_EQ(model.cost(0, 2, 5), 3.0 + 3.0);
  EXPECT_DOUBLE_EQ(model.cost(1, 0, 1), 4.0);
}

TEST(RestartCost, PerProcessorRates) {
  RestartCostModel model(1.0, {1.0, 2.5});
  EXPECT_DOUBLE_EQ(model.cost(0, 0, 4), 5.0);
  EXPECT_DOUBLE_EQ(model.cost(1, 0, 4), 1.0 + 10.0);
}

TEST(TimeVaryingCost, PrefixSums) {
  TimeVaryingCostModel model(2.0, {1.0, 10.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(model.cost(0, 0, 1), 3.0);
  EXPECT_DOUBLE_EQ(model.cost(0, 1, 2), 12.0);
  EXPECT_DOUBLE_EQ(model.cost(0, 0, 4), 2.0 + 13.0);
  EXPECT_EQ(model.horizon(), 4);
}

TEST(ConvexFanCost, Superlinear) {
  ConvexFanCostModel model(1.0, 0.5);
  EXPECT_DOUBLE_EQ(model.cost(0, 0, 1), 1.0 + 1.0 + 0.5);
  EXPECT_DOUBLE_EQ(model.cost(0, 0, 4), 1.0 + 4.0 + 8.0);
  // Splitting a long interval can be cheaper: 2 intervals of 2 vs 1 of 4.
  EXPECT_LT(2.0 * model.cost(0, 0, 2), model.cost(0, 0, 4));
}

TEST(FlatIntervalCost, ConstantPerInterval) {
  FlatIntervalCostModel model(2.5);
  EXPECT_DOUBLE_EQ(model.cost(0, 0, 1), 2.5);
  EXPECT_DOUBLE_EQ(model.cost(3, 2, 9), 2.5);
}

TEST(UnavailabilityCost, BlocksTouchingIntervals) {
  RestartCostModel base(1.0);
  UnavailabilityCostModel model(base, 2, 5, {{0, 2}});
  EXPECT_TRUE(std::isinf(model.cost(0, 0, 5)));
  EXPECT_TRUE(std::isinf(model.cost(0, 2, 3)));
  EXPECT_DOUBLE_EQ(model.cost(0, 0, 2), 3.0);
  EXPECT_DOUBLE_EQ(model.cost(0, 3, 5), 3.0);
  EXPECT_DOUBLE_EQ(model.cost(1, 0, 5), 6.0);  // other processor unaffected
  EXPECT_FALSE(model.available(0, 2));
  EXPECT_TRUE(model.available(1, 2));
}

TEST(Intervals, SlotsOfCoversRange) {
  const auto instance = tiny_instance();
  const AwakeInterval iv{1, 1, 3};
  EXPECT_EQ(slots_of(iv, instance),
            (std::vector<int>{instance.slot_index(1, 1),
                              instance.slot_index(1, 2)}));
  EXPECT_EQ(iv.length(), 2);
  EXPECT_TRUE(iv.contains(1));
  EXPECT_FALSE(iv.contains(3));
  EXPECT_EQ(iv.to_string(), "P1[1,3)");
}

TEST(Intervals, PoolEnumeratesAll) {
  const auto instance = tiny_instance();
  RestartCostModel model(1.0);
  const auto pool = generate_interval_pool(instance, model);
  // Per processor: 4+3+2+1 = 10 intervals; 2 processors.
  EXPECT_EQ(pool.intervals.size(), 20u);
  EXPECT_EQ(pool.candidates.size(), 20u);
  for (std::size_t i = 0; i < pool.candidates.size(); ++i) {
    EXPECT_EQ(pool.candidates[i].id, static_cast<int>(i));
    EXPECT_GT(pool.candidates[i].cost, 0.0);
  }
}

TEST(Intervals, PoolRespectsMaxLength) {
  const auto instance = tiny_instance();
  RestartCostModel model(1.0);
  IntervalGenerationOptions options;
  options.max_length = 1;
  const auto pool = generate_interval_pool(instance, model, options);
  EXPECT_EQ(pool.intervals.size(), 8u);
  for (const auto& iv : pool.intervals) EXPECT_EQ(iv.length(), 1);
}

TEST(Intervals, PoolDropsInfiniteCost) {
  const auto instance = tiny_instance();
  RestartCostModel base(1.0);
  UnavailabilityCostModel model(base, 2, 4, {{0, 0}});
  const auto pool = generate_interval_pool(instance, model);
  for (const auto& iv : pool.intervals) {
    EXPECT_FALSE(iv.processor == 0 && iv.contains(0));
  }
}

TEST(MinCostCover, EmptyRequirementIsFree) {
  RestartCostModel model(2.0);
  double cost = -1.0;
  EXPECT_TRUE(min_cost_cover(CoverSpans(0, 10, model), {}, &cost).empty());
  EXPECT_DOUBLE_EQ(cost, 0.0);
}

TEST(MinCostCover, BridgesShortGapsUnderRestartCost) {
  // Slots {1, 3}: bridging the 1-slot gap costs 1 < alpha=5, so one interval.
  RestartCostModel model(5.0);
  double cost = 0.0;
  const auto cover = min_cost_cover(CoverSpans(0, 10, model), {1, 3}, &cost);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], (AwakeInterval{0, 1, 4}));
  EXPECT_DOUBLE_EQ(cost, 5.0 + 3.0);
}

TEST(MinCostCover, SleepsThroughLongGapsUnderRestartCost) {
  // Slots {0, 9}: gap of 8 > alpha=2, so two singleton intervals.
  RestartCostModel model(2.0);
  double cost = 0.0;
  const auto cover = min_cost_cover(CoverSpans(0, 10, model), {0, 9}, &cost);
  ASSERT_EQ(cover.size(), 2u);
  EXPECT_DOUBLE_EQ(cost, 2.0 * (2.0 + 1.0));
}

TEST(MinCostCover, ExactAgainstExhaustiveUnderRandomPrices) {
  // Cross-check the DP against brute force over all interval partitions.
  util::Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    const int horizon = 7;
    std::vector<double> prices(static_cast<std::size_t>(horizon));
    for (auto& p : prices) p = rng.uniform_double(0.1, 4.0);
    TimeVaryingCostModel model(rng.uniform_double(0.0, 3.0), prices);

    std::vector<int> required;
    for (int t = 0; t < horizon; ++t) {
      if (rng.bernoulli(0.4)) required.push_back(t);
    }
    double dp_cost = 0.0;
    const auto cover =
        min_cost_cover(CoverSpans(0, horizon, model), required, &dp_cost);

    // Brute force: every subset of slots containing `required`, priced as
    // maximal runs (optimal for any cost model? no — only as a sanity upper
    // bound); plus validity checks on the DP's own answer.
    double awake_cost = 0.0;
    std::vector<char> awake(static_cast<std::size_t>(horizon), 0);
    for (const auto& iv : cover) {
      awake_cost += model.cost(0, iv.start, iv.end);
      for (int t = iv.start; t < iv.end; ++t) {
        awake[static_cast<std::size_t>(t)] = 1;
      }
    }
    EXPECT_NEAR(awake_cost, dp_cost, 1e-9);
    for (int t : required) EXPECT_TRUE(awake[static_cast<std::size_t>(t)]);

    // Exhaustive optimum over awake-slot supersets priced as maximal runs.
    double best = kInfiniteCost;
    for (std::uint32_t mask = 0; mask < (1u << horizon); ++mask) {
      bool covers = true;
      for (int t : required) {
        if (!((mask >> t) & 1u)) covers = false;
      }
      if (!covers) continue;
      double c = 0.0;
      int t = 0;
      while (t < horizon) {
        if (!((mask >> t) & 1u)) {
          ++t;
          continue;
        }
        int end = t;
        while (end < horizon && ((mask >> end) & 1u)) ++end;
        c += model.cost(0, t, end);
        t = end;
      }
      best = std::min(best, c);
    }
    if (required.empty()) best = 0.0;
    EXPECT_NEAR(dp_cost, best, 1e-9) << "trial " << trial;
  }
}

TEST(Validator, AcceptsCorrectSchedule) {
  const auto instance = tiny_instance();
  RestartCostModel model(1.0);
  Schedule s;
  s.intervals = {{0, 0, 2}, {1, 2, 4}};
  s.assignment = {instance.slot_index(0, 0), instance.slot_index(1, 2),
                  instance.slot_index(1, 3)};
  s.energy_cost = (1.0 + 2.0) * 2;
  const auto report = validate_schedule(s, instance, model, true);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(s.num_scheduled(), 3);
  EXPECT_DOUBLE_EQ(s.scheduled_value(instance), 7.0);
}

TEST(Validator, RejectsSleepingSlot) {
  const auto instance = tiny_instance();
  RestartCostModel model(1.0);
  Schedule s;
  s.intervals = {{0, 0, 1}};
  s.assignment = {instance.slot_index(0, 1), -1, -1};
  s.energy_cost = 2.0;
  EXPECT_FALSE(validate_schedule(s, instance, model, false).ok);
}

TEST(Validator, RejectsInadmissibleSlot) {
  const auto instance = tiny_instance();
  RestartCostModel model(1.0);
  Schedule s;
  s.intervals = {{1, 0, 4}};
  s.assignment = {instance.slot_index(1, 0), -1, -1};  // job 0 can't use P1
  s.energy_cost = 5.0;
  EXPECT_FALSE(validate_schedule(s, instance, model, false).ok);
}

TEST(Validator, RejectsSlotCollision) {
  const auto instance = tiny_instance();
  RestartCostModel model(1.0);
  Schedule s;
  s.intervals = {{0, 0, 4}};
  s.assignment = {instance.slot_index(0, 1), instance.slot_index(0, 1), -1};
  s.energy_cost = 5.0;
  EXPECT_FALSE(validate_schedule(s, instance, model, false).ok);
}

TEST(Validator, RejectsCostMismatch) {
  const auto instance = tiny_instance();
  RestartCostModel model(1.0);
  Schedule s;
  s.intervals = {{0, 0, 1}};
  s.assignment = {instance.slot_index(0, 0), -1, -1};
  s.energy_cost = 99.0;
  EXPECT_FALSE(validate_schedule(s, instance, model, false).ok);
}

TEST(Validator, RejectsMissingJobWhenRequired) {
  const auto instance = tiny_instance();
  RestartCostModel model(1.0);
  Schedule s;
  s.intervals = {{0, 0, 1}};
  s.assignment = {instance.slot_index(0, 0), -1, -1};
  s.energy_cost = 2.0;
  EXPECT_TRUE(validate_schedule(s, instance, model, false).ok);
  EXPECT_FALSE(validate_schedule(s, instance, model, true).ok);
}

TEST(Validator, RejectsMalformedInterval) {
  const auto instance = tiny_instance();
  RestartCostModel model(1.0);
  Schedule s;
  s.intervals = {{0, 3, 3}};
  s.assignment = {-1, -1, -1};
  EXPECT_FALSE(validate_schedule(s, instance, model, false).ok);
}

TEST(TotalCost, SumsIntervalCosts) {
  RestartCostModel model(1.0);
  EXPECT_DOUBLE_EQ(
      total_cost({{0, 0, 2}, {1, 1, 2}}, model), 3.0 + 2.0);
}

}  // namespace
}  // namespace ps::scheduling
