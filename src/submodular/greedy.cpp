#include "submodular/greedy.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>

namespace ps::submodular {
namespace {

/// One marginal-value query engine shared by the greedy family: routes
/// through the function's IncrementalEvaluator when it has one, and
/// otherwise through a reused scratch set — either way the steady state
/// allocates nothing and the returned doubles are bit-identical to the
/// original value(chosen.with(item)) oracle calls.
class ValueWithEngine {
 public:
  explicit ValueWithEngine(const SetFunction& f)
      : f_(f), incremental_(f.make_incremental()), scratch_(f.ground_size()) {}

  /// F(chosen ∪ {item}); `chosen` must be the set grown via picked().
  double value_with(const ItemSet& chosen, int item) {
    if (incremental_ != nullptr) return incremental_->value_with(item);
    scratch_.with_item(chosen, item);
    return f_.value(scratch_);
  }

  /// out[j] = value_with(chosen, items[j]) for j < n, as one batch when
  /// the function has an incremental evaluator.
  void values_with(const ItemSet& chosen, const int* items, std::size_t n,
                   double* out) {
    if (incremental_ != nullptr) {
      incremental_->values_with(items, n, out);
      return;
    }
    for (std::size_t j = 0; j < n; ++j) out[j] = value_with(chosen, items[j]);
  }

  /// Records that the caller committed `item` into its chosen set.
  void picked(int item) {
    if (incremental_ != nullptr) incremental_->add(item);
  }

 private:
  const SetFunction& f_;
  std::unique_ptr<IncrementalEvaluator> incremental_;
  ItemSet scratch_;
};

}  // namespace

GreedyResult greedy_max_cardinality(const SetFunction& f, int k) {
  const int n = f.ground_size();
  GreedyResult result;
  result.chosen = ItemSet(n);
  double current = f.value(result.chosen);
  ++result.oracle_calls;
  ValueWithEngine engine(f);
  // Each round prices the unchosen items as one batch.
  std::vector<int> open;
  std::vector<double> values;
  open.reserve(static_cast<std::size_t>(n));

  for (int round = 0; round < k; ++round) {
    open.clear();
    for (int i = 0; i < n; ++i) {
      if (!result.chosen.contains(i)) open.push_back(i);
    }
    values.resize(open.size());
    engine.values_with(result.chosen, open.data(), open.size(),
                       values.data());
    result.oracle_calls += open.size();
    int best_item = -1;
    double best_gain = 0.0;
    for (std::size_t j = 0; j < open.size(); ++j) {
      const double gain = values[j] - current;
      if (best_item == -1 || gain > best_gain) {
        best_item = open[j];
        best_gain = gain;
      }
    }
    if (best_item == -1 || best_gain <= 0.0) break;
    result.chosen.insert(best_item);
    engine.picked(best_item);
    current += best_gain;
    result.order.push_back(best_item);
    result.value_curve.push_back(current);
  }
  result.value = current;
  return result;
}

GreedyResult lazy_greedy_max_cardinality(const SetFunction& f, int k) {
  const int n = f.ground_size();
  GreedyResult result;
  result.chosen = ItemSet(n);
  double current = f.value(result.chosen);
  ++result.oracle_calls;
  ValueWithEngine engine(f);

  // Max-heap of (stale upper bound on gain, item, round the bound was
  // computed in). Submodularity guarantees true gain <= stale bound, so a
  // fresh bound that stays on top is exact. Ties break toward the smaller
  // item index, matching the plain greedy's first-maximum rule so the two
  // algorithms produce identical outputs.
  struct Entry {
    double bound;
    int item;
    int round;
  };
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.item > b.item;
  };
  // Filled flat and heapified in one O(n) pass; pop order (max bound, ties
  // toward the smaller item) is what a push-at-a-time priority queue would
  // produce.
  std::vector<Entry> heap;
  heap.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double gain = engine.value_with(result.chosen, i) - current;
    ++result.oracle_calls;
    heap.push_back({gain, i, 0});
  }
  std::make_heap(heap.begin(), heap.end(), cmp);

  for (int round = 1; round <= k && !heap.empty();) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const Entry top = heap.back();
    heap.pop_back();
    if (top.round == round) {
      if (top.bound <= 0.0) break;
      result.chosen.insert(top.item);
      engine.picked(top.item);
      current += top.bound;
      result.order.push_back(top.item);
      result.value_curve.push_back(current);
      ++round;
    } else {
      const double gain = engine.value_with(result.chosen, top.item) - current;
      ++result.oracle_calls;
      heap.push_back({gain, top.item, round});
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  result.value = current;
  return result;
}

GreedyResult stochastic_greedy_max_cardinality(const SetFunction& f, int k,
                                               double epsilon,
                                               util::Rng& rng) {
  assert(0.0 < epsilon && epsilon < 1.0);
  const int n = f.ground_size();
  GreedyResult result;
  result.chosen = ItemSet(n);
  double current = f.value(result.chosen);
  ++result.oracle_calls;
  ValueWithEngine engine(f);

  const int sample_size = std::max(
      1, static_cast<int>(std::ceil(static_cast<double>(n) /
                                    std::max(1, k) *
                                    std::log(1.0 / epsilon))));

  std::vector<int> remaining;
  remaining.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) remaining.push_back(i);

  for (int round = 0; round < k && !remaining.empty(); ++round) {
    // Partial Fisher-Yates: the first `take` entries become the sample.
    const int take =
        std::min<int>(sample_size, static_cast<int>(remaining.size()));
    for (int i = 0; i < take; ++i) {
      const auto j =
          i + static_cast<int>(rng.uniform_u64(remaining.size() -
                                               static_cast<std::size_t>(i)));
      std::swap(remaining[static_cast<std::size_t>(i)],
                remaining[static_cast<std::size_t>(j)]);
    }
    int best_pos = -1;
    double best_gain = 0.0;
    for (int i = 0; i < take; ++i) {
      const int item = remaining[static_cast<std::size_t>(i)];
      const double gain = engine.value_with(result.chosen, item) - current;
      ++result.oracle_calls;
      if (best_pos == -1 || gain > best_gain) {
        best_pos = i;
        best_gain = gain;
      }
    }
    if (best_pos == -1 || best_gain <= 0.0) continue;
    const int item = remaining[static_cast<std::size_t>(best_pos)];
    result.chosen.insert(item);
    engine.picked(item);
    current += best_gain;
    result.order.push_back(item);
    result.value_curve.push_back(current);
    remaining.erase(remaining.begin() + best_pos);
  }
  result.value = current;
  return result;
}

namespace {

/// Next larger integer with the same popcount (Gosper's hack) — the
/// sospd-style NextPerm subset walk. Enumerates the size-k masks in
/// increasing numeric order, the order the filtered full scan visits them
/// in, so argmax tie-breaking is unchanged.
std::uint64_t next_same_popcount(std::uint64_t mask) {
  const std::uint64_t low = mask & (~mask + 1);
  const std::uint64_t ripple = mask + low;
  return ripple | (((mask ^ ripple) >> 2) / low);
}

GreedyResult exhaustive_impl(const SetFunction& f, int k, bool exact_size) {
  const int n = f.ground_size();
  GreedyResult result;
  result.chosen = ItemSet(n);
  result.value = f.value(result.chosen);
  ++result.oracle_calls;
  if (k <= 0 || n <= 0) {
    // The empty set is the only candidate; also keeps the shift below
    // well-defined for k=0 probes on large ground sets.
    result.order = result.chosen.to_vector();
    result.value_curve.assign(1, result.value);
    return result;
  }
  assert(n <= 24 && "exhaustive maximization is exponential in ground size");

  // Mask-native scan: no per-candidate set is materialized; the winning
  // mask becomes an ItemSet exactly once at the end.
  const std::uint64_t limit = std::uint64_t{1} << n;
  std::uint64_t best_mask = 0;
  if (exact_size) {
    const int target = std::min(k, n);
    for (std::uint64_t mask = (std::uint64_t{1} << target) - 1; mask < limit;
         mask = next_same_popcount(mask)) {
      const double v = f.value_mask(mask);
      ++result.oracle_calls;
      if (v > result.value) {
        result.value = v;
        best_mask = mask;
      }
    }
  } else {
    for (std::uint64_t mask = 1; mask < limit; ++mask) {
      if (__builtin_popcountll(mask) > k) continue;
      const double v = f.value_mask(mask);
      ++result.oracle_calls;
      if (v > result.value) {
        result.value = v;
        best_mask = mask;
      }
    }
  }
  result.chosen = ItemSet::from_mask(n, best_mask);
  result.order = result.chosen.to_vector();
  result.value_curve.assign(1, result.value);
  return result;
}

}  // namespace

GreedyResult exhaustive_max_cardinality(const SetFunction& f, int k) {
  return exhaustive_impl(f, k, /*exact_size=*/false);
}

GreedyResult exhaustive_max_exact_cardinality(const SetFunction& f, int k) {
  return exhaustive_impl(f, k, /*exact_size=*/true);
}

}  // namespace ps::submodular
