// Incremental matching oracles: the efficient realization of the submodular
// utility functions of Lemma 2.2.2 (cardinality) and Lemma 2.3.2 (job values).
//
// The greedy of Lemma 2.1.2 repeatedly asks F(S ∪ I) for many candidate
// interval sets I. Recomputing a matching from scratch per query is wasteful;
// instead these oracles maintain a maximum (weight) matching over the current
// slot set and support add_x(), whose correctness rests exactly on the
// structural facts proven in the two lemmas:
//   * cardinality: one augmenting-path search from the new slot restores a
//     maximum matching (classic alternating-path theory);
//   * job values: the max-weight saturated job set grows monotonically with
//     the slot set (shown in Lemma 2.3.2's proof), and the new optimum is the
//     old one plus the best-value free job reachable from the new slot by an
//     alternating path — or nothing.
// What-if evaluation of a candidate set copies the oracle, adds the
// candidate's slots and reads the value. Cost of the cardinality oracle:
// add_x is one DFS over the jobs not yet stamped, and a failed search's
// jobs stay stamped until the next augmentation, so a run of failed add_x
// calls costs O(E) in total rather than O(E) each; gain_of copies into a
// reused thread-local scratch, O(|X| + |Y|) per query with no allocation.
// gains_of prices a batch of slot lists, and a list that extends the one
// before it continues on the same scratch, so a processor's intervals
// [s, s+1), [s, s+2), ... cost one augmentation per slot in total.
#pragma once

#include <cstddef>
#include <vector>

#include "matching/bipartite_graph.hpp"
#include "submodular/item_set.hpp"
#include "submodular/set_function.hpp"

namespace ps::matching {

/// Maintains a maximum-cardinality matching over a growing subset S ⊆ X.
class IncrementalMatchingOracle {
 public:
  /// `graph` must outlive the oracle.
  explicit IncrementalMatchingOracle(const BipartiteGraph& graph);

  /// Adds slot x to S and augments. Returns 1 if the matching grew else 0.
  /// Adding the same x twice is a no-op returning 0.
  int add_x(int x);

  /// Current matching size, i.e. F(S).
  int size() const { return size_; }
  /// The current slot set S.
  const submodular::ItemSet& active_x() const { return active_x_; }
  /// match_y[y] = slot assigned to job y, or -1.
  const std::vector<int>& match_y() const { return match_y_; }
  const std::vector<int>& match_x() const { return match_x_; }

  /// F(S ∪ extra) - F(S) without mutating this oracle. Works on a
  /// thread-local scratch copy that is assigned, not allocated, per query,
  /// so concurrent calls on one oracle from different threads are safe.
  int gain_of(const std::vector<int>& extra_x) const;

  /// out[j] = gain_of(*extra_lists[j]) for j < n. When a list starts with
  /// the whole list before it, its scratch continues from that list's
  /// state (S ∪ previous list) and adds only the rest. The answer is the
  /// same: a gain is a difference of matching sizes, the rank of S ∪ list
  /// in the transversal matroid minus that of S, which no choice of
  /// augmenting paths changes. Thread-safety as gain_of; this oracle's own
  /// matching is never touched.
  void gains_of(const std::vector<int>* const* extra_lists, std::size_t n,
                int* out) const;

 private:
  IncrementalMatchingOracle() = default;  // the what-if scratch
  /// This thread's what-if scratch, shared by gain_of and gains_of.
  static IncrementalMatchingOracle& scratch();
  bool try_augment_from(int x);

  const BipartiteGraph* graph_ = nullptr;
  submodular::ItemSet active_x_;
  std::vector<int> match_x_;
  std::vector<int> match_y_;
  int size_ = 0;
  // DFS bookkeeping, versioned to avoid clearing between searches. A job
  // stamped current_stamp_ is visited in this search or dead: reached by a
  // failed search since the last augmentation, so it cannot lie on an
  // augmenting path. The stamp advances only when the matching grows.
  std::vector<int> visit_stamp_;
  int current_stamp_ = 1;
};

/// Maintains a maximum-weight saturated job set over a growing subset S ⊆ X,
/// with weights on the Y (job) side — the F of Lemma 2.3.2.
class WeightedMatchingOracle {
 public:
  /// `graph` and `y_values` must outlive the oracle; y_values[y] >= 0.
  WeightedMatchingOracle(const BipartiteGraph& graph,
                         const std::vector<double>& y_values);

  /// Adds slot x to S. Returns the gain in total value (0 if no new job
  /// becomes schedulable, else the value of the single job added — the
  /// dichotomy proven in Lemma 2.3.2).
  double add_x(int x);

  /// Total value of saturated jobs, i.e. F(S).
  double value() const { return value_; }
  const submodular::ItemSet& active_x() const { return active_x_; }
  const std::vector<int>& match_y() const { return match_y_; }
  const std::vector<int>& match_x() const { return match_x_; }

  /// F(S ∪ extra) - F(S) without mutating this oracle (works on a copy).
  double gain_of(const std::vector<int>& extra_x) const;

 private:
  struct Search;
  // Alternating BFS from free slot x; returns the highest-value free job
  // reachable, or -1. `search` keeps the parent pointers that rebuild the
  // path; its buffers are stamp-versioned and reused across calls.
  int best_reachable_free_job(int x, Search& search) const;

  const BipartiteGraph* graph_;
  const std::vector<double>* y_values_;
  submodular::ItemSet active_x_;
  std::vector<int> match_x_;
  std::vector<int> match_y_;
  double value_ = 0.0;
};

/// Stateless SetFunction view of the cardinality matching utility
/// (Lemma 2.2.2): value(S) = max matching saturating only S in X.
/// Recomputes per query via the incremental oracle; used for property tests
/// and as the scheduler's utility function.
class MatchingUtilityFunction final : public submodular::SetFunction {
 public:
  explicit MatchingUtilityFunction(const BipartiteGraph& graph)
      : graph_(&graph) {}

  int ground_size() const override { return graph_->num_x(); }
  double value(const submodular::ItemSet& s) const override;

 private:
  const BipartiteGraph* graph_;
};

/// Stateless SetFunction view of the weighted matching utility
/// (Lemma 2.3.2): value(S) = max total value of jobs schedulable in S.
class WeightedMatchingUtilityFunction final : public submodular::SetFunction {
 public:
  WeightedMatchingUtilityFunction(const BipartiteGraph& graph,
                                  std::vector<double> y_values)
      : graph_(&graph), y_values_(std::move(y_values)) {}

  int ground_size() const override { return graph_->num_x(); }
  double value(const submodular::ItemSet& s) const override;
  const std::vector<double>& y_values() const { return y_values_; }

 private:
  const BipartiteGraph* graph_;
  std::vector<double> y_values_;
};

}  // namespace ps::matching
