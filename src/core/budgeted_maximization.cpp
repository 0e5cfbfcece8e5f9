#include "core/budgeted_maximization.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <queue>

#include "submodular/coverage.hpp"
#include "util/thread_pool.hpp"

namespace ps::core {
namespace {
// Gains below this are treated as zero; utilities in this library are sums of
// values >= 1 or matching cardinalities, so 1e-9 is far below signal.
constexpr double kGainTol = 1e-9;
}  // namespace

SetFunctionUtility::SetFunctionUtility(const submodular::SetFunction& f)
    : f_(f),
      incremental_(f.make_incremental()),
      set_(f.ground_size()),
      current_value_(f.value(set_)) {}

double SetFunctionUtility::gain_of(const std::vector<int>& items) const {
  // value_with is const, so run_plain's pool may query it concurrently.
  if (incremental_ != nullptr && items.size() == 1) {
    return incremental_->value_with(items.front()) - current_value_;
  }
  // The scratch is thread-local for the same reason; assignment reuses its
  // buffer, so steady-state gain queries never allocate at any ground size.
  thread_local submodular::ItemSet augmented;
  augmented = set_;
  for (int item : items) augmented.insert(item);
  return f_.value(augmented) - current_value_;
}

void SetFunctionUtility::commit(const std::vector<int>& items) {
  if (incremental_ == nullptr) {
    for (int item : items) set_.insert(item);
    current_value_ = f_.value(set_);
    return;
  }
  // Add every new item but the last, then read F(S ∪ items) as value_with
  // of the last one before adding it: one value call, as value() would be.
  int last = -1;
  for (int item : items) {
    if (set_.contains(item)) continue;
    set_.insert(item);
    if (last != -1) incremental_->add(last);
    last = item;
  }
  if (last == -1) {
    current_value_ = f_.value(set_);
    return;
  }
  current_value_ = incremental_->value_with(last);
  incremental_->add(last);
}

namespace {

/// Shared loop state and the pick bookkeeping common to both modes.
struct GreedyState {
  const std::vector<CandidateSet>& candidates;
  IncrementalUtility& utility;
  double target_x;
  double stop_at;  // (1-ε)·x
  BudgetedMaximizationResult result;
  std::vector<char> picked;

  GreedyState(IncrementalUtility& u, const std::vector<CandidateSet>& c,
              double x, double eps)
      : candidates(c), utility(u), target_x(x), stop_at((1.0 - eps) * x),
        picked(c.size(), 0) {}

  double clipped_gain(double raw_gain) const {
    return std::min(target_x - utility.current(), raw_gain);
  }

  bool done() const { return utility.current() >= stop_at - kGainTol; }

  void take(int index) {
    picked[static_cast<std::size_t>(index)] = 1;
    utility.commit(candidates[static_cast<std::size_t>(index)].items);
    result.picked.push_back(index);
    result.picked_ids.push_back(
        candidates[static_cast<std::size_t>(index)].id);
    result.cost += candidates[static_cast<std::size_t>(index)].cost;
    result.utility_curve.push_back(utility.current());
    result.cost_curve.push_back(result.cost);
  }
};

void run_plain(GreedyState& state, std::size_t num_threads) {
  const std::size_t m = state.candidates.size();
  std::vector<double> raw_gains(m);
  // One transient pool reused across rounds when parallel.
  std::unique_ptr<util::ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<util::ThreadPool>(num_threads);

  while (!state.done()) {
    auto evaluate = [&](std::size_t i) {
      raw_gains[i] =
          state.picked[i]
              ? -1.0
              : state.utility.gain_of(state.candidates[i].items);
    };
    if (pool) {
      pool->parallel_for(0, m, evaluate);
    } else {
      for (std::size_t i = 0; i < m; ++i) evaluate(i);
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (!state.picked[i]) ++state.result.gain_evaluations;
    }

    int best = -1;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (state.picked[i]) continue;
      const double gain = state.clipped_gain(raw_gains[i]);
      if (gain <= kGainTol) continue;
      const double ratio = gain / state.candidates[i].cost;
      if (best == -1 || ratio > best_ratio) {
        best = static_cast<int>(i);
        best_ratio = ratio;
      }
    }
    if (best == -1) return;  // no candidate helps: infeasible target
    state.take(best);
  }
}

void run_lazy(GreedyState& state) {
  // CELF: clipped gain / cost is non-increasing as the working set grows
  // (truncation min{x, F} preserves submodularity and monotonicity), so a
  // stale ratio is a valid upper bound and a fresh entry on top is optimal.
  // Ties break toward the smaller candidate index, matching run_plain's
  // first-maximum rule so lazy and plain produce identical pick sequences.
  struct Entry {
    double ratio;
    int index;
    int round;
  };
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.ratio != b.ratio) return a.ratio < b.ratio;
    return a.index > b.index;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);

  for (std::size_t i = 0; i < state.candidates.size(); ++i) {
    const double gain =
        state.clipped_gain(state.utility.gain_of(state.candidates[i].items));
    ++state.result.gain_evaluations;
    if (gain > kGainTol) {
      heap.push({gain / state.candidates[i].cost, static_cast<int>(i), 0});
    }
  }

  int round = 1;
  while (!state.done() && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.round == round) {
      state.take(top.index);
      ++round;
    } else {
      const double gain = state.clipped_gain(state.utility.gain_of(
          state.candidates[static_cast<std::size_t>(top.index)].items));
      ++state.result.gain_evaluations;
      if (gain > kGainTol) {
        heap.push(
            {gain /
                 state.candidates[static_cast<std::size_t>(top.index)].cost,
             top.index, round});
      }
    }
  }
}

}  // namespace

BudgetedMaximizationResult maximize_with_budget(
    IncrementalUtility& utility, const std::vector<CandidateSet>& candidates,
    double target_x, const BudgetedMaximizationOptions& options) {
  assert(options.epsilon > 0.0 && options.epsilon < 1.0);
  for (const auto& c : candidates) {
    assert(c.cost > 0.0);
    (void)c;
  }

  GreedyState state(utility, candidates, target_x, options.epsilon);
  if (!state.done()) {
    if (options.lazy) {
      run_lazy(state);
    } else {
      run_plain(state, options.num_threads);
    }
  }
  state.result.utility = utility.current();
  state.result.reached_target = state.done();
  return state.result;
}

BudgetedMaximizationResult maximize_with_budget(
    const submodular::SetFunction& f,
    const std::vector<CandidateSet>& candidates, double target_x,
    const BudgetedMaximizationOptions& options) {
  SetFunctionUtility utility(f);
  return maximize_with_budget(utility, candidates, target_x, options);
}

SetCoverResult solve_set_cover(int num_elements,
                               const std::vector<std::vector<int>>& covers,
                               const std::vector<double>& costs) {
  assert(costs.empty() || costs.size() == covers.size());
  submodular::CoverageFunction coverage(num_elements, covers);

  std::vector<CandidateSet> candidates;
  candidates.reserve(covers.size());
  for (std::size_t i = 0; i < covers.size(); ++i) {
    // In the Set Cover reduction the ground set of F *is* the set system's
    // index set: candidate i contributes item i, and F counts covered
    // elements through CoverageFunction.
    candidates.push_back(CandidateSet{{static_cast<int>(i)},
                                      costs.empty() ? 1.0 : costs[i],
                                      static_cast<int>(i)});
  }

  BudgetedMaximizationOptions options;
  // ε below 1/(x+1): for the integer-valued coverage utility this forces
  // full coverage whenever it is achievable (Section 2.1's remark).
  options.epsilon = 1.0 / (static_cast<double>(num_elements) + 2.0);
  const auto res = maximize_with_budget(coverage, candidates,
                                        static_cast<double>(num_elements),
                                        options);
  SetCoverResult out;
  out.chosen = res.picked;
  out.cost = res.cost;
  out.covered_all =
      res.utility >= static_cast<double>(num_elements) - 1e-9;
  return out;
}

}  // namespace ps::core
