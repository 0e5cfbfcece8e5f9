#include "scheduling/baselines.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "matching/hopcroft_karp.hpp"
#include "matching/matching_oracle.hpp"

namespace ps::scheduling {
namespace {

/// Maximum matching over every slot; the assignment both baselines start
/// from. Returns nullopt when not all jobs can be scheduled.
std::optional<std::vector<int>> full_assignment(
    const SchedulingInstance& instance) {
  const auto graph = instance.build_slot_job_graph();
  const auto matching = matching::hopcroft_karp(graph);
  if (matching.size != instance.num_jobs()) return std::nullopt;
  std::vector<int> assignment(static_cast<std::size_t>(instance.num_jobs()));
  for (int j = 0; j < instance.num_jobs(); ++j) {
    assignment[static_cast<std::size_t>(j)] =
        matching.match_y[static_cast<std::size_t>(j)];
  }
  return assignment;
}

}  // namespace

std::optional<Schedule> schedule_always_on(const SchedulingInstance& instance,
                                           const CostModel& cost_model) {
  auto assignment = full_assignment(instance);
  if (!assignment) return std::nullopt;

  std::vector<char> processor_used(
      static_cast<std::size_t>(instance.num_processors()), 0);
  for (int slot : *assignment) {
    processor_used[static_cast<std::size_t>(instance.slot_of(slot).processor)] =
        1;
  }

  Schedule schedule;
  schedule.assignment = std::move(*assignment);
  for (int p = 0; p < instance.num_processors(); ++p) {
    if (!processor_used[static_cast<std::size_t>(p)]) continue;
    const double c = cost_model.cost(p, 0, instance.horizon());
    if (!std::isfinite(c)) return std::nullopt;
    schedule.intervals.push_back(AwakeInterval{p, 0, instance.horizon()});
    schedule.energy_cost += c;
  }
  return schedule;
}

std::optional<Schedule> schedule_per_job_naive(
    const SchedulingInstance& instance, const CostModel& cost_model) {
  auto assignment = full_assignment(instance);
  if (!assignment) return std::nullopt;

  Schedule schedule;
  schedule.assignment = std::move(*assignment);
  for (int slot : schedule.assignment) {
    const SlotRef ref = instance.slot_of(slot);
    const double c = cost_model.cost(ref.processor, ref.time, ref.time + 1);
    if (!std::isfinite(c)) return std::nullopt;
    schedule.intervals.push_back(
        AwakeInterval{ref.processor, ref.time, ref.time + 1});
    schedule.energy_cost += c;
  }
  return schedule;
}

std::vector<int> useful_slots(const SchedulingInstance& instance) {
  std::vector<char> useful(static_cast<std::size_t>(instance.num_slots()), 0);
  for (const auto& job : instance.jobs()) {
    for (const auto& ref : job.allowed) {
      useful[static_cast<std::size_t>(instance.slot_index(ref))] = 1;
    }
  }
  std::vector<int> slots;
  for (int s = 0; s < instance.num_slots(); ++s) {
    if (useful[static_cast<std::size_t>(s)]) slots.push_back(s);
  }
  return slots;
}

SlotSubsetCosts::SlotSubsetCosts(const SchedulingInstance& instance,
                                 const CostModel& cost_model)
    : slots_(useful_slots(instance)) {
  const int u = static_cast<int>(slots_.size());
  if (u > kMaxBruteForceSlots) {
    std::fprintf(stderr,
                 "brute force: instance has %d useful slots; the limit is "
                 "%d\n",
                 u, kMaxBruteForceSlots);
    std::abort();
  }
  runs_.resize(static_cast<std::size_t>(instance.num_processors()));
  std::size_t bit = 0;
  std::vector<int> times;
  for (int p = 0; p < instance.num_processors(); ++p) {
    Run& run = runs_[static_cast<std::size_t>(p)];
    run.shift = static_cast<int>(bit);
    std::vector<int> run_times;
    for (; bit < slots_.size(); ++bit) {
      const SlotRef ref = instance.slot_of(slots_[bit]);
      if (ref.processor != p) break;
      run_times.push_back(ref.time);
    }
    run.width_mask = (1u << run_times.size()) - 1u;
    run.cost.assign(std::size_t{1} << run_times.size(), 0.0);
    if (run_times.empty()) continue;
    const CoverSpans spans(p, instance.horizon(), cost_model);
    for (std::uint32_t sub = 1; sub <= run.width_mask; ++sub) {
      times.clear();
      for (std::size_t b = 0; b < run_times.size(); ++b) {
        if ((sub >> b) & 1u) times.push_back(run_times[b]);
      }
      min_cost_cover(spans, times, &run.cost[sub]);
    }
  }
}

void SlotSubsetCosts::to_item_set(std::uint32_t mask,
                                  submodular::ItemSet* out) const {
  out->clear();
  for (std::size_t b = 0; b < slots_.size(); ++b) {
    if ((mask >> b) & 1u) out->insert(slots_[b]);
  }
}

namespace {

/// Whether the slots of a mask can host every job: Kuhn's augmenting paths
/// over per-job adjacency bit masks, allocation-free per query. Answers
/// exactly hopcroft_karp(graph, slots).size == num_jobs.
class AllJobsMatcher {
 public:
  AllJobsMatcher(const SchedulingInstance& instance,
                 const std::vector<int>& slots)
      : adjacency_(static_cast<std::size_t>(instance.num_jobs()), 0) {
    for (int j = 0; j < instance.num_jobs(); ++j) {
      for (const auto& ref : instance.job(j).allowed) {
        const auto it = std::lower_bound(slots.begin(), slots.end(),
                                         instance.slot_index(ref));
        adjacency_[static_cast<std::size_t>(j)] |=
            1u << (it - slots.begin());
      }
    }
  }

  bool feasible(std::uint32_t mask) {
    if (std::popcount(mask) < static_cast<int>(adjacency_.size())) {
      return false;
    }
    for (std::uint32_t adj : adjacency_) {
      if ((adj & mask) == 0) return false;
    }
    owner_.fill(-1);
    for (std::size_t j = 0; j < adjacency_.size(); ++j) {
      std::uint32_t visited = 0;
      if (!augment(j, mask, &visited)) return false;
    }
    return true;
  }

 private:
  bool augment(std::size_t job, std::uint32_t mask, std::uint32_t* visited) {
    for (std::uint32_t open = adjacency_[job] & mask & ~*visited; open != 0;
         open = adjacency_[job] & mask & ~*visited) {
      const int b = std::countr_zero(open);
      *visited |= 1u << b;
      int& owner = owner_[static_cast<std::size_t>(b)];
      if (owner < 0 ||
          augment(static_cast<std::size_t>(owner), mask, visited)) {
        owner = static_cast<int>(job);
        return true;
      }
    }
    return false;
  }

  std::vector<std::uint32_t> adjacency_;
  std::array<int, kMaxBruteForceSlots> owner_{};
};

/// Shared search of the two minimum-cost optima: the cheapest mask (first
/// in numeric order on ties) that `feasible` accepts, turned into a
/// schedule through `assign` and the exact per-processor cover.
template <typename FeasibleFn, typename AssignFn>
std::optional<Schedule> brute_force_impl(const SchedulingInstance& instance,
                                         const SlotSubsetCosts& subsets,
                                         const CostModel& cost_model,
                                         FeasibleFn&& feasible,
                                         AssignFn&& assign) {
  double best_cost = kInfiniteCost;
  std::uint32_t best_mask = 0;
  subsets.for_each_mask(best_cost, [&](std::uint32_t mask, double cost) {
    if (cost >= best_cost || !std::isfinite(cost)) return;
    if (!feasible(mask)) return;
    best_cost = cost;
    best_mask = mask;
  });
  if (!std::isfinite(best_cost)) return std::nullopt;

  submodular::ItemSet slots(instance.num_slots());
  subsets.to_item_set(best_mask, &slots);
  Schedule schedule;
  schedule.assignment = assign(slots);
  cover_assignment(instance, cost_model, &schedule);
  return schedule;
}

}  // namespace

std::optional<Schedule> brute_force_min_cost_all_jobs(
    const SchedulingInstance& instance, const CostModel& cost_model) {
  const SlotSubsetCosts subsets(instance, cost_model);
  AllJobsMatcher matcher(instance, subsets.slots());
  const auto graph = instance.build_slot_job_graph();
  const int n = instance.num_jobs();
  return brute_force_impl(
      instance, subsets, cost_model,
      [&](std::uint32_t mask) { return matcher.feasible(mask); },
      [&](const submodular::ItemSet& slots) {
        const auto matching = matching::hopcroft_karp(graph, slots);
        std::vector<int> assignment(static_cast<std::size_t>(n));
        for (int j = 0; j < n; ++j) {
          assignment[static_cast<std::size_t>(j)] =
              matching.match_y[static_cast<std::size_t>(j)];
        }
        return assignment;
      });
}

std::optional<Schedule> brute_force_min_cost_value(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double value_target_z) {
  const SlotSubsetCosts subsets(instance, cost_model);
  const auto graph = instance.build_slot_job_graph();
  const auto values = instance.job_values();
  matching::WeightedMatchingUtilityFunction utility(graph, values);
  submodular::ItemSet candidate(instance.num_slots());
  return brute_force_impl(
      instance, subsets, cost_model,
      [&](std::uint32_t mask) {
        subsets.to_item_set(mask, &candidate);
        return utility.value(candidate) >= value_target_z - 1e-9;
      },
      [&](const submodular::ItemSet& slots) {
        matching::WeightedMatchingOracle oracle(graph, values);
        slots.for_each([&](int s) { oracle.add_x(s); });
        return oracle.match_y();
      });
}

}  // namespace ps::scheduling
