// Submodular maximization with budget constraints (Section 2.1) — the
// paper's central algorithmic framework.
//
// Problem (Definition 1): ground set U, explicit candidate subsets
// S_1..S_m ⊆ U with costs C_1..C_m, a monotone submodular utility
// F : 2^U -> R, and a utility threshold x. Find a collection of candidates
// whose union has utility >= x at minimum total cost.
//
// Algorithm (Lemma 2.1.2): repeatedly pick the candidate maximizing
//     (min{x, F(S ∪ S_i)} - F(S)) / C_i,
// stopping once F(S) >= (1-ε)x. If some collection of cost B reaches
// utility x, the greedy's cost is at most 2B·log2(1/ε).
//
// Notes on fidelity:
//  * costs may be sub-additive across candidates — candidates are arbitrary
//    explicit subsets, exactly as the paper allows ("the cost of a subset
//    might be different from the sum of the costs of the items");
//  * setting ε < 1/(x+1) for integer-valued F forces utility exactly x,
//    which is how Theorem 2.2.1 derives its O(log n) factor, and how the
//    framework specializes to the greedy Set Cover algorithm.
//
// Engineering: the greedy talks to the utility through IncrementalUtility so
// callers can supply an efficient what-if evaluator (the scheduling reduction
// prices a candidate on a scratch copy of the incremental matching oracle,
// and a run of candidates that extend one another on one copy); each sweep
// over the open candidates is batched through gains_of(); a lazy
// (CELF-style) mode exploits that clipped gains are non-increasing, and a
// parallel mode fans the plain sweep's blocks across a thread pool.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "submodular/item_set.hpp"
#include "submodular/set_function.hpp"

namespace ps::core {

/// One allowable subset S_i of Definition 1.
struct CandidateSet {
  /// Ground elements of U contributed when this candidate is picked.
  std::vector<int> items;
  /// C_i > 0.
  double cost = 1.0;
  /// Caller tag carried through to the result (e.g. interval index).
  int id = -1;
};

/// What-if evaluation interface the greedy drives. Implementations must make
/// gain_of() safe to call concurrently from multiple threads.
class IncrementalUtility {
 public:
  virtual ~IncrementalUtility() = default;

  /// F(S) for the current working set S.
  virtual double current() const = 0;

  /// F(S ∪ items) - F(S), without changing the working set.
  virtual double gain_of(const std::vector<int>& items) const = 0;

  /// out[j] = gain_of(cands[j]->items) for j < n, bit for bit: the batch
  /// the greedy's sweeps price. The default loops over gain_of(); an
  /// override may share work between the candidates of one batch but must
  /// return the same doubles. Safe to call concurrently, like gain_of().
  virtual void gains_of(const CandidateSet* const* cands, std::size_t n,
                        double* out) const {
    for (std::size_t j = 0; j < n; ++j) out[j] = gain_of(cands[j]->items);
  }

  /// S <- S ∪ items.
  virtual void commit(const std::vector<int>& items) = 0;
};

/// IncrementalUtility over a SetFunction value oracle. When `f` offers an
/// IncrementalEvaluator, a single-item gain_of is value_with(item) -
/// current(), gains_of prices its single-item candidates with values_with,
/// and commit adds only the new items, one value_with for the new value;
/// otherwise each query evaluates F(S ∪ items) from scratch. Both give the
/// doubles, and the value-call counts under a CountingOracle, of one
/// value() per gain_of, per candidate of gains_of and per commit.
class SetFunctionUtility final : public IncrementalUtility {
 public:
  explicit SetFunctionUtility(const submodular::SetFunction& f);

  double current() const override { return current_value_; }
  double gain_of(const std::vector<int>& items) const override;
  void gains_of(const CandidateSet* const* cands, std::size_t n,
                double* out) const override;
  void commit(const std::vector<int>& items) override;

  const submodular::ItemSet& working_set() const { return set_; }

 private:
  const submodular::SetFunction& f_;
  // Tracks set_ when f_ has a fast path; nullptr otherwise.
  std::unique_ptr<submodular::IncrementalEvaluator> incremental_;
  submodular::ItemSet set_;
  double current_value_;
};

struct BudgetedMaximizationOptions {
  /// ε of Lemma 2.1.2; the greedy stops at utility (1-ε)·x.
  double epsilon = 0.01;
  /// Lazy evaluation with stale upper bounds (identical output, fewer calls).
  bool lazy = true;
  /// Worker threads for the non-lazy evaluation sweep (1 = serial); they
  /// split each round's sweep into fixed blocks of candidates.
  std::size_t num_threads = 1;
};

struct BudgetedMaximizationResult {
  /// Indices into the candidates vector, in pick order.
  std::vector<int> picked;
  /// Candidate ids (CandidateSet::id) in pick order.
  std::vector<int> picked_ids;
  double utility = 0.0;
  double cost = 0.0;
  /// Utility and cumulative cost after each pick.
  std::vector<double> utility_curve;
  std::vector<double> cost_curve;
  /// Number of gain_of evaluations (the oracle-call currency of the paper).
  std::size_t gain_evaluations = 0;
  /// Whether utility >= (1-ε)·x was reached. False means the instance was
  /// infeasible for this utility target (no candidate had positive gain).
  bool reached_target = false;
};

/// The Lemma 2.1.2 greedy over an arbitrary IncrementalUtility.
BudgetedMaximizationResult maximize_with_budget(
    IncrementalUtility& utility, const std::vector<CandidateSet>& candidates,
    double target_x, const BudgetedMaximizationOptions& options = {});

/// Convenience overload building a SetFunctionUtility over `f`.
BudgetedMaximizationResult maximize_with_budget(
    const submodular::SetFunction& f,
    const std::vector<CandidateSet>& candidates, double target_x,
    const BudgetedMaximizationOptions& options = {});

/// The Set Cover specialization: `covers[i]` lists the elements of set i,
/// which costs `costs[i]` (unit if empty). Chooses sets covering all
/// `num_elements` elements (if possible) with the classic ln(n) guarantee,
/// by running the framework with ε = 1/(num_elements + 1).
struct SetCoverResult {
  std::vector<int> chosen;
  double cost = 0.0;
  bool covered_all = false;
};
SetCoverResult solve_set_cover(int num_elements,
                               const std::vector<std::vector<int>>& covers,
                               const std::vector<double>& costs = {});

}  // namespace ps::core
