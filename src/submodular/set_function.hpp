// Value-oracle interface for set functions (Definition 1 of the paper and the
// f : 2^S -> R oracle of Chapter 3).
//
// The paper works with three nested classes:
//   monotone submodular  ⊂  submodular  ⊂  subadditive,
// plus two deliberately-non-submodular aggregates (min / max with weights)
// from Section 3.6. All are exposed through the same value oracle; which
// properties actually hold is documented per concrete class and validated by
// the checkers in submodular/verify.hpp.
//
// Two fast paths sit beside the plain value oracle:
//   - value_mask(): mask-native evaluation for the small-n enumeration
//     kernels (exhaustive maximizer, property verifiers), which iterate
//     uint64_t subset masks directly instead of materializing an ItemSet
//     per candidate.
//   - make_incremental(): an optional stateful evaluator for the greedy
//     family, which answers F(S ∪ {item}) against a working set S it
//     maintains itself — coverage and facility location implement it in
//     O(touched state) instead of O(|S| · full re-evaluation).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "submodular/item_set.hpp"

namespace ps::submodular {

/// Stateful incremental evaluator over a growing working set S (initially
/// empty), vended by SetFunction::make_incremental(). The bit-exactness
/// contract is what lets the greedy loops switch over transparently:
/// value_with(i) must return exactly the double that
/// SetFunction::value(S.with(i)) would, for the S accumulated via add().
///
/// Concurrency: value_with() is const and only reads the evaluator's state,
/// so any number of threads may call it at once (the parallel budgeted
/// greedy does); add(), remove() and gain() need exclusive access.
class IncrementalEvaluator {
 public:
  virtual ~IncrementalEvaluator() = default;

  /// F(S ∪ {item}); does not change S. Bit-identical to value(S.with(item)).
  /// Safe to call concurrently with other value_with() calls.
  virtual double value_with(int item) const = 0;

  /// out[j] = value_with(items[j]) for j < n, bit for bit: the batch entry
  /// point of the greedy sweeps, which price every open item per round.
  /// The default loops over value_with(); an override may share work
  /// across the batch only where each out[j] stays the same double. (The
  /// coverage override sums eight items as eight lanes over one pass of
  /// the elements, and a lane adds +0.0 for an element outside its item's
  /// union. That changes no lane: its sum starts at +0.0, so it is never
  /// -0.0, and x + 0.0 == x for every other x.) Counts as n value_with()
  /// queries (CountingOracle charges n calls). Const like value_with(),
  /// with the same concurrency guarantee.
  virtual void values_with(const int* items, std::size_t n,
                           double* out) const {
    for (std::size_t j = 0; j < n; ++j) out[j] = value_with(items[j]);
  }

  /// S ← S ∪ {item}.
  virtual void add(int item) = 0;

  /// S ← S \ {item}. Optional (local-search style callers); implementations
  /// that support it document so.
  virtual void remove(int item) = 0;

  /// Marginal gain F(S ∪ {item}) - F(S) computed from incremental state
  /// only — O(touched) and allocation-free, but summed in state order, so
  /// NOT bit-identical to a value()-difference (agrees to ~1e-9 relative).
  /// Callers that must reproduce oracle-difference bits use value_with().
  virtual double gain(int item) = 0;
};

/// Abstract value oracle F : 2^U -> R over a ground set of fixed size.
class SetFunction {
 public:
  virtual ~SetFunction() = default;

  /// Size of the ground set U.
  virtual int ground_size() const = 0;

  /// F(s). `s.universe_size()` must equal ground_size().
  virtual double value(const ItemSet& s) const = 0;

  /// F of the subset encoded by `mask` (bit i = item i). Only meaningful
  /// for ground_size() <= 64 — the mask-native enumeration kernels. The
  /// default routes through a stack-built ItemSet (no heap for any n this
  /// path accepts); overrides must stay bit-identical to that.
  virtual double value_mask(std::uint64_t mask) const {
    return value(ItemSet::from_mask(ground_size(), mask));
  }

  /// Marginal gain F(s ∪ {item}) - F(s). Concrete classes may override with
  /// a faster incremental computation; the default costs two oracle calls.
  virtual double marginal(const ItemSet& s, int item) const {
    return value(s.with(item)) - value(s);
  }

  /// Optional incremental fast path for add-one-item loops; nullptr when
  /// the function has none (callers then fall back to the plain oracle).
  virtual std::unique_ptr<IncrementalEvaluator> make_incremental() const {
    return nullptr;
  }
};

/// Decorator counting oracle calls, the complexity currency the paper uses
/// ("we assume a value oracle access to the submodular function").
/// Thread-safe: counts are atomics so the parallel greedy can share one.
class CountingOracle final : public SetFunction {
 public:
  explicit CountingOracle(const SetFunction& inner) : inner_(inner) {}

  int ground_size() const override { return inner_.ground_size(); }

  double value(const ItemSet& s) const override {
    value_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.value(s);
  }

  double value_mask(std::uint64_t mask) const override {
    value_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.value_mask(mask);
  }

  double marginal(const ItemSet& s, int item) const override {
    marginal_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.marginal(s, item);
  }

  /// Forwards the inner fast path; each value_with()/gain() query, and each
  /// item of a values_with() batch, counts as one value call, matching the
  /// single value() it replaces in the greedy loops so instrumented call
  /// counts stay identical either way.
  std::unique_ptr<IncrementalEvaluator> make_incremental() const override;

  /// Number of value() calls since construction or reset().
  std::size_t value_calls() const {
    return value_calls_.load(std::memory_order_relaxed);
  }
  std::size_t marginal_calls() const {
    return marginal_calls_.load(std::memory_order_relaxed);
  }
  /// value() + marginal() calls.
  std::size_t total_calls() const { return value_calls() + marginal_calls(); }

  void reset() {
    value_calls_.store(0, std::memory_order_relaxed);
    marginal_calls_.store(0, std::memory_order_relaxed);
  }

 private:
  class CountingIncremental;

  const SetFunction& inner_;
  mutable std::atomic<std::size_t> value_calls_{0};
  mutable std::atomic<std::size_t> marginal_calls_{0};
};

}  // namespace ps::submodular
