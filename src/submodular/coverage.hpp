// (Weighted) coverage functions — "Set-Cover type functions ... are special
// cases of monotone submodular functions" (Section 2.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "submodular/set_function.hpp"
#include "util/rng.hpp"

namespace ps::submodular {

/// Why CoverageFunction::random cannot draw `items` items of `cover`
/// elements each out of `elements`, or empty when it can: every size must
/// be >= 0 and cover <= elements.
std::string coverage_generator_violation(int items, int elements, int cover);

/// F(S) = total weight of elements covered by the union of the items' sets.
/// Monotone and submodular. With unit weights this is exactly the Max-Cover /
/// Set-Cover utility the paper specializes to.
///
/// Hot-path layout: the per-item element masks live in one flat contiguous
/// word array (`mask_words_`), so a value query is a single streaming pass —
/// no pointer-chasing through per-item heap blocks. Instances are immutable
/// after construction, which also lets value() keep a one-entry
/// repeated-query memo (see coverage.cpp).
class CoverageFunction final : public SetFunction {
 public:
  /// `covers[i]` lists the element ids covered by ground item i; elements are
  /// in [0, num_elements). `element_weights` is optional (empty = all 1.0)
  /// and must have `num_elements` entries otherwise.
  CoverageFunction(int num_elements, std::vector<std::vector<int>> covers,
                   std::vector<double> element_weights = {});

  int ground_size() const override { return num_items_; }
  int num_elements() const { return num_elements_; }

  double value(const ItemSet& s) const override;
  double marginal(const ItemSet& s, int item) const override;

  /// Incremental fast path: maintains the covered-element bitmask and
  /// per-element coverage counts of the working set, so value_with() is
  /// O(covered) with no |S| factor and no allocation, and gain() is
  /// O(newly covered). gain() is bit-identical to marginal(); value_with()
  /// is bit-identical to value() on the grown set, and so is each lane of
  /// values_with(), which runs eight items per pass over the elements.
  /// Supports remove().
  std::unique_ptr<IncrementalEvaluator> make_incremental() const override;

  /// Weight of the whole element universe, i.e. F(full set) upper bound.
  double total_weight() const { return total_weight_; }

  /// The sorted element ids item covers, decoded from its bitmask row.
  /// O(num_elements / 64 + cover size) per call; hot paths use
  /// item_mask_words() instead.
  std::vector<int> cover_of(int item) const;

  double element_weight(int element) const {
    return element_weights_[static_cast<std::size_t>(element)];
  }

  /// cover_of(item) as an element bitmask: `mask_word_count()` words starting
  /// at the returned pointer, bit e%64 of word e/64 set iff item covers e.
  const std::uint64_t* item_mask_words(int item) const {
    return mask_words_.data() +
           static_cast<std::size_t>(item) * mask_word_count();
  }
  std::size_t mask_word_count() const { return words_per_mask_; }

  /// Random instance: `num_items` items, each covering a uniform subset of
  /// size `cover_size` of `num_elements` elements, weights in [1, max_weight].
  /// Prints coverage_generator_violation and aborts (in every build type)
  /// when it is not empty; front ends reject such parameters before any
  /// trial with engine::check_coverage_generator.
  static CoverageFunction random(int num_items, int num_elements,
                                 int cover_size, double max_weight,
                                 util::Rng& rng);

 private:
  /// Uninitialized shell for the static factories; every field is filled in
  /// by the caller.
  CoverageFunction();

  /// Weight of the elements whose bits are set in `covered`, summed in
  /// increasing element order — the canonical traversal every oracle entry
  /// point shares, so their results are bit-identical.
  double weight_of_mask(const std::uint64_t* covered) const;

  int num_items_ = 0;
  int num_elements_ = 0;
  std::size_t words_per_mask_ = 0;
  std::vector<double> element_weights_;
  double total_weight_ = 0.0;
  // The item covers as bitmasks in one flat array: item i's mask is the
  // words_per_mask_ words starting at i * words_per_mask_. This is the only
  // encoding stored; cover_of() decodes it on demand.
  std::vector<std::uint64_t> mask_words_;
  // Distinguishes this instance from any earlier one that lived at the same
  // address, so the thread-local value() memo can never serve a stale hit.
  std::uint64_t memo_generation_;
};

}  // namespace ps::submodular
