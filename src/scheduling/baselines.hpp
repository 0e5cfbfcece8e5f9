// Comparator schedulers: two practical baselines and an exact brute-force
// optimum for small instances (the denominator of every approximation-ratio
// experiment).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "scheduling/schedule.hpp"
#include "submodular/item_set.hpp"

namespace ps::scheduling {

/// "Leave everything on": assign jobs by a maximum matching over all slots,
/// then keep every processor that hosts at least one job awake for the whole
/// horizon. Feasible whenever anything is; typically pays for a lot of idle
/// time. Returns nullopt when not all jobs can be scheduled at all.
std::optional<Schedule> schedule_always_on(const SchedulingInstance& instance,
                                           const CostModel& cost_model);

/// "Wake up per job": assign jobs by a maximum matching over all slots, then
/// open one singleton interval per used slot — the "immediately sleep again"
/// policy whose waste is the restart cost α per job (the 1+α regime the
/// paper contrasts with). Returns nullopt when not all jobs fit.
std::optional<Schedule> schedule_per_job_naive(
    const SchedulingInstance& instance, const CostModel& cost_model);

/// Ceiling on the useful slots an exhaustive optimum enumerates subsets of
/// (2^22 masks). Every brute force aborts above it, in Release too; callers
/// that take instances from outside reject them up front instead.
inline constexpr int kMaxBruteForceSlots = 22;

/// Global indices of the slots admissible for at least one job, ascending —
/// the only slots an optimal schedule ever needs awake.
std::vector<int> useful_slots(const SchedulingInstance& instance);

/// The tabulated enumeration behind every exhaustive optimum (the two
/// below and brute_force_max_value_with_energy_budget). Bit b of a mask
/// selects slots()[b].
///
/// A mask's exact interval-cover cost splits by processor, and because
/// slot index = processor * horizon + time, each processor's useful slots
/// are one contiguous run of mask bits. The constructor therefore builds
/// one CoverSpans table per processor and prices every sub-mask of its run
/// once, with the same min_cost_cover DP on the same sorted times a
/// per-mask cover would run (so each entry is the same double); cost() is
/// one table lookup per processor summed in processor order. Memory: Σ_p 2^{w_p} doubles for w_p useful slots on
/// processor p — 32 MiB at worst (one processor, 22 useful slots).
///
/// Aborts (in every build type) when the instance has more than
/// kMaxBruteForceSlots useful slots.
class SlotSubsetCosts {
 public:
  SlotSubsetCosts(const SchedulingInstance& instance,
                  const CostModel& cost_model);

  const std::vector<int>& slots() const { return slots_; }

  /// Calls visit(mask, cost) for every mask in increasing numeric order.
  /// The cost sum stops early once it reaches `stop_at`, which is re-read
  /// before each mask: a caller that lowers it inside `visit` prunes the
  /// rest of the enumeration against its running minimum.
  template <typename Visit>
  void for_each_mask(const double& stop_at, Visit&& visit) const {
    const std::uint32_t end = 1u << slots_.size();
    for (std::uint32_t mask = 0; mask < end; ++mask) {
      visit(mask, cost(mask, stop_at));
    }
  }

  /// Replaces the contents of `out` with the slots of `mask`.
  void to_item_set(std::uint32_t mask, submodular::ItemSet* out) const;

 private:
  /// Exact cover cost of the slots in `mask`, or a partial sum >= stop_at.
  double cost(std::uint32_t mask, double stop_at) const {
    double total = 0.0;
    for (std::size_t p = 0; p < runs_.size() && total < stop_at; ++p) {
      const Run& run = runs_[p];
      total += run.cost[(mask >> run.shift) & run.width_mask];
    }
    return total;
  }

  /// One processor's run of mask bits and its sub-mask cost table.
  struct Run {
    int shift = 0;
    std::uint32_t width_mask = 0;
    std::vector<double> cost;
  };

  std::vector<int> slots_;
  std::vector<Run> runs_;
};

/// Exact minimum-cost schedule of ALL jobs by exhaustive enumeration of
/// used-slot subsets (SlotSubsetCosts). Each subset cheaper than the best
/// so far is checked for feasibility with a bit-mask matching; the winner's
/// assignment comes from hopcroft_karp. Exponential: at most
/// kMaxBruteForceSlots useful slots. Returns nullopt if infeasible.
std::optional<Schedule> brute_force_min_cost_all_jobs(
    const SchedulingInstance& instance, const CostModel& cost_model);

/// Exact minimum-cost schedule of value >= Z (prize-collecting optimum).
/// Same enumeration; nullopt if no subset reaches Z.
std::optional<Schedule> brute_force_min_cost_value(
    const SchedulingInstance& instance, const CostModel& cost_model,
    double value_target_z);

}  // namespace ps::scheduling
