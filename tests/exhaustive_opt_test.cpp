// The tabulated exhaustive optima (SlotSubsetCosts + bit-mask matching)
// against a test-local copy of the per-mask enumeration they replaced:
// every mask re-priced with min_cost_cover per processor and checked with
// an ItemSet matching. Costs and values must be bit-equal and schedules
// identical, across seeded random instances that include infeasible ones,
// processors without a useful slot, and both restart and time-varying
// cost models. Also pins the useful-slot ceiling as a hard abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "matching/hopcroft_karp.hpp"
#include "matching/matching_oracle.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/budget_scheduler.hpp"
#include "scheduling/cost_model.hpp"
#include "util/rng.hpp"

namespace ps::scheduling {
namespace {

// --- oracle: the per-mask enumeration, verbatim in behaviour -------------

/// Exact cover cost of `mask` over `useful`, one min_cost_cover per
/// processor, summed in processor order while below `stop_at`.
double per_mask_cost(const SchedulingInstance& instance,
                     const CostModel& cost_model,
                     const std::vector<int>& useful, std::uint32_t mask,
                     double stop_at) {
  std::vector<std::vector<int>> required(
      static_cast<std::size_t>(instance.num_processors()));
  for (std::size_t b = 0; b < useful.size(); ++b) {
    if (!((mask >> b) & 1u)) continue;
    const SlotRef ref = instance.slot_of(useful[b]);
    required[static_cast<std::size_t>(ref.processor)].push_back(ref.time);
  }
  double cost = 0.0;
  for (int p = 0; p < instance.num_processors() && cost < stop_at; ++p) {
    const auto& times = required[static_cast<std::size_t>(p)];
    if (times.empty()) continue;
    double c = 0.0;
    min_cost_cover(CoverSpans(p, instance.horizon(), cost_model), times, &c);
    cost += c;
  }
  return cost;
}

submodular::ItemSet mask_slots(const SchedulingInstance& instance,
                               const std::vector<int>& useful,
                               std::uint32_t mask) {
  submodular::ItemSet slots(instance.num_slots());
  for (std::size_t b = 0; b < useful.size(); ++b) {
    if ((mask >> b) & 1u) slots.insert(useful[b]);
  }
  return slots;
}

template <typename FeasibleFn, typename AssignFn>
std::optional<Schedule> oracle_min_cost(const SchedulingInstance& instance,
                                        const CostModel& cost_model,
                                        FeasibleFn&& feasible,
                                        AssignFn&& assign) {
  const std::vector<int> useful = useful_slots(instance);
  double best_cost = kInfiniteCost;
  std::uint32_t best_mask = 0;
  for (std::uint32_t mask = 0; mask < (1u << useful.size()); ++mask) {
    const double cost =
        per_mask_cost(instance, cost_model, useful, mask, best_cost);
    if (cost >= best_cost || !std::isfinite(cost)) continue;
    if (!feasible(mask_slots(instance, useful, mask))) continue;
    best_cost = cost;
    best_mask = mask;
  }
  if (!std::isfinite(best_cost)) return std::nullopt;

  Schedule schedule;
  schedule.assignment = assign(mask_slots(instance, useful, best_mask));
  std::vector<std::vector<int>> required(
      static_cast<std::size_t>(instance.num_processors()));
  for (int slot : schedule.assignment) {
    if (slot < 0) continue;
    const SlotRef ref = instance.slot_of(slot);
    required[static_cast<std::size_t>(ref.processor)].push_back(ref.time);
  }
  for (int p = 0; p < instance.num_processors(); ++p) {
    auto& times = required[static_cast<std::size_t>(p)];
    if (times.empty()) continue;
    std::sort(times.begin(), times.end());
    double c = 0.0;
    auto cover =
        min_cost_cover(CoverSpans(p, instance.horizon(), cost_model), times, &c);
    schedule.energy_cost += c;
    for (auto& iv : cover) schedule.intervals.push_back(iv);
  }
  return schedule;
}

std::optional<Schedule> oracle_all_jobs(const SchedulingInstance& instance,
                                        const CostModel& cost_model) {
  const auto graph = instance.build_slot_job_graph();
  const int n = instance.num_jobs();
  return oracle_min_cost(
      instance, cost_model,
      [&](const submodular::ItemSet& slots) {
        return matching::hopcroft_karp(graph, slots).size == n;
      },
      [&](const submodular::ItemSet& slots) {
        const auto matching = matching::hopcroft_karp(graph, slots);
        return std::vector<int>(matching.match_y.begin(),
                                matching.match_y.begin() + n);
      });
}

std::optional<Schedule> oracle_value(const SchedulingInstance& instance,
                                     const CostModel& cost_model, double z) {
  const auto graph = instance.build_slot_job_graph();
  const auto values = instance.job_values();
  matching::WeightedMatchingUtilityFunction utility(graph, values);
  return oracle_min_cost(
      instance, cost_model,
      [&](const submodular::ItemSet& slots) {
        return utility.value(slots) >= z - 1e-9;
      },
      [&](const submodular::ItemSet& slots) {
        matching::WeightedMatchingOracle oracle(graph, values);
        slots.for_each([&](int s) { oracle.add_x(s); });
        return oracle.match_y();
      });
}

double oracle_budget(const SchedulingInstance& instance,
                     const CostModel& cost_model, double budget) {
  const std::vector<int> useful = useful_slots(instance);
  const auto graph = instance.build_slot_job_graph();
  matching::WeightedMatchingUtilityFunction utility(graph,
                                                    instance.job_values());
  double best = 0.0;
  for (std::uint32_t mask = 0; mask < (1u << useful.size()); ++mask) {
    const double cost =
        per_mask_cost(instance, cost_model, useful, mask, kInfiniteCost);
    if (cost > budget + 1e-9 || !std::isfinite(cost)) continue;
    best = std::max(best, utility.value(mask_slots(instance, useful, mask)));
  }
  return best;
}

// --- random instances ------------------------------------------------------

struct Case {
  SchedulingInstance instance;
  std::unique_ptr<CostModel> model;
  bool dead_processor = false;
};

/// 1-3 processors, horizon 1-8, at most 16 useful slots. Jobs draw 1-5
/// admissible slots anywhere, so some instances are over-subscribed; every
/// third multi-processor instance leaves one processor with no useful slot.
Case random_case(util::Rng& rng) {
  for (;;) {
    const int m = rng.uniform_int(1, 3);
    const int h = rng.uniform_int(m == 1 ? 1 : 3, m == 3 ? 5 : 8);
    const int dead = (m > 1 && rng.uniform_int(0, 2) == 0)
                         ? rng.uniform_int(0, m - 1)
                         : -1;
    std::vector<Job> jobs(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    for (auto& job : jobs) {
      const int k = rng.uniform_int(1, 5);
      for (int i = 0; i < k; ++i) {
        int p = rng.uniform_int(0, m - 1);
        if (p == dead) p = (p + 1) % m;
        job.allowed.push_back(SlotRef{p, rng.uniform_int(0, h - 1)});
      }
      job.value = rng.uniform_double(1.0, 4.0);
    }
    SchedulingInstance instance(m, h, std::move(jobs));
    if (useful_slots(instance).size() > 16) continue;

    const double alpha = rng.uniform_double(0.0, 3.0);
    std::vector<double> rates;
    for (int p = 0; p < m; ++p) rates.push_back(rng.uniform_double(0.5, 2.0));
    std::unique_ptr<CostModel> model;
    if (rng.bernoulli(0.5)) {
      model = std::make_unique<RestartCostModel>(alpha, rates);
    } else {
      std::vector<double> prices;
      for (int t = 0; t < h; ++t) prices.push_back(rng.uniform_double(0.0, 3.0));
      model = std::make_unique<TimeVaryingCostModel>(alpha, prices, rates);
    }
    return Case{std::move(instance), std::move(model), dead >= 0};
  }
}

void expect_same(const std::optional<Schedule>& got,
                 const std::optional<Schedule>& want, int trial) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
  if (!got) return;
  EXPECT_EQ(got->energy_cost, want->energy_cost) << "trial " << trial;
  EXPECT_EQ(got->assignment, want->assignment) << "trial " << trial;
  EXPECT_EQ(got->intervals, want->intervals) << "trial " << trial;
}

TEST(ExhaustiveOpt, TabulatedKernelEqualsPerMaskEnumeration) {
  util::Rng rng(2010);
  int infeasible = 0;
  int dead = 0;
  int time_varying = 0;
  int large = 0;
  constexpr int kTrials = 150;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Case c = random_case(rng);
    const SchedulingInstance& instance = c.instance;
    const CostModel& model = *c.model;
    dead += c.dead_processor ? 1 : 0;
    large += useful_slots(instance).size() >= 10 ? 1 : 0;
    time_varying +=
        dynamic_cast<const TimeVaryingCostModel*>(&model) != nullptr ? 1 : 0;

    const auto all = brute_force_min_cost_all_jobs(instance, model);
    infeasible += all ? 0 : 1;
    expect_same(all, oracle_all_jobs(instance, model), trial);

    const double z = rng.uniform_double(0.0, instance.total_value() + 1.0);
    expect_same(brute_force_min_cost_value(instance, model, z),
                oracle_value(instance, model, z), trial);

    const double budget = rng.uniform_double(0.0, 12.0);
    EXPECT_EQ(brute_force_max_value_with_energy_budget(instance, model, budget),
              oracle_budget(instance, model, budget))
        << "trial " << trial;
  }
  // The generator must actually reach the edge cases it promises.
  EXPECT_GE(infeasible, 10);
  EXPECT_GE(dead, 10);
  EXPECT_GE(time_varying, 30);
  EXPECT_GE(large, 10);
  EXPECT_LE(infeasible, kTrials - 30);
}

TEST(ExhaustiveOptDeathTest, AbortsAboveSlotCeiling) {
  // One job admissible on all 23 slots of one processor: 23 useful slots.
  std::vector<Job> jobs(1);
  for (int t = 0; t < kMaxBruteForceSlots + 1; ++t) {
    jobs[0].allowed.push_back(SlotRef{0, t});
  }
  const SchedulingInstance instance(1, kMaxBruteForceSlots + 1,
                                    std::move(jobs));
  const RestartCostModel model(1.0);
  EXPECT_DEATH(brute_force_min_cost_all_jobs(instance, model),
               "23 useful slots; the limit is 22");
  EXPECT_DEATH(brute_force_min_cost_value(instance, model, 1.0),
               "23 useful slots; the limit is 22");
  EXPECT_DEATH(brute_force_max_value_with_energy_budget(instance, model, 5.0),
               "23 useful slots; the limit is 22");
}

}  // namespace
}  // namespace ps::scheduling
