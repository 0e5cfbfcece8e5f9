#include "scheduling/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace ps::scheduling {
namespace {

ValidationReport fail(const std::string& message) {
  return ValidationReport{false, message};
}

}  // namespace

int Schedule::num_scheduled() const {
  int count = 0;
  for (int slot : assignment) {
    if (slot >= 0) ++count;
  }
  return count;
}

void cover_assignment(const SchedulingInstance& instance,
                      const CostModel& cost_model, Schedule* schedule) {
  assert(schedule != nullptr);
  std::vector<std::vector<int>> required(
      static_cast<std::size_t>(instance.num_processors()));
  for (int slot : schedule->assignment) {
    if (slot < 0) continue;
    const SlotRef ref = instance.slot_of(slot);
    required[static_cast<std::size_t>(ref.processor)].push_back(ref.time);
  }
  schedule->intervals.clear();
  schedule->energy_cost = 0.0;
  for (int p = 0; p < instance.num_processors(); ++p) {
    auto& times = required[static_cast<std::size_t>(p)];
    if (times.empty()) continue;
    std::sort(times.begin(), times.end());
    double c = 0.0;
    const auto cover = min_cost_cover(
        CoverSpans(p, instance.horizon(), cost_model), times, &c);
    schedule->energy_cost += c;
    schedule->intervals.insert(schedule->intervals.end(), cover.begin(),
                               cover.end());
  }
}

double Schedule::scheduled_value(const SchedulingInstance& instance) const {
  double total = 0.0;
  for (std::size_t j = 0; j < assignment.size(); ++j) {
    if (assignment[j] >= 0) {
      total += instance.job(static_cast<int>(j)).value;
    }
  }
  return total;
}

ValidationReport validate_schedule(const Schedule& schedule,
                                   const SchedulingInstance& instance,
                                   const CostModel& cost_model,
                                   bool require_all_jobs) {
  if (static_cast<int>(schedule.assignment.size()) != instance.num_jobs()) {
    return fail("assignment size != number of jobs");
  }

  // Interval well-formedness and awake-slot coverage map.
  std::vector<char> awake(static_cast<std::size_t>(instance.num_slots()), 0);
  double recomputed_cost = 0.0;
  for (const auto& iv : schedule.intervals) {
    if (iv.processor < 0 || iv.processor >= instance.num_processors() ||
        iv.start < 0 || iv.end > instance.horizon() || iv.start >= iv.end) {
      return fail("malformed interval " + iv.to_string());
    }
    const double c = cost_model.cost(iv.processor, iv.start, iv.end);
    if (!std::isfinite(c)) {
      return fail("interval with infinite cost " + iv.to_string());
    }
    recomputed_cost += c;
    for (int t = iv.start; t < iv.end; ++t) {
      awake[static_cast<std::size_t>(instance.slot_index(iv.processor, t))] = 1;
    }
  }

  std::unordered_set<int> used_slots;
  for (int j = 0; j < instance.num_jobs(); ++j) {
    const int slot = schedule.assignment[static_cast<std::size_t>(j)];
    if (slot == -1) {
      if (require_all_jobs) {
        return fail("job " + std::to_string(j) + " unscheduled");
      }
      continue;
    }
    if (slot < 0 || slot >= instance.num_slots()) {
      return fail("job " + std::to_string(j) + " has out-of-range slot");
    }
    if (!used_slots.insert(slot).second) {
      return fail("slot collision at slot " + std::to_string(slot));
    }
    if (!awake[static_cast<std::size_t>(slot)]) {
      return fail("job " + std::to_string(j) +
                  " scheduled in a sleeping slot");
    }
    const SlotRef ref = instance.slot_of(slot);
    bool admissible = false;
    for (const auto& allowed : instance.job(j).allowed) {
      if (allowed == ref) {
        admissible = true;
        break;
      }
    }
    if (!admissible) {
      return fail("job " + std::to_string(j) + " placed in inadmissible slot");
    }
  }

  if (std::fabs(recomputed_cost - schedule.energy_cost) > 1e-6) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "energy cost mismatch: reported %.9g recomputed %.9g",
                  schedule.energy_cost, recomputed_cost);
    return fail(buf);
  }
  return ValidationReport{};
}

}  // namespace ps::scheduling
