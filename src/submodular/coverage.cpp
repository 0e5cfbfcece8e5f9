#include "submodular/coverage.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace ps::submodular {
namespace {

/// One-entry repeated-query memo for CoverageFunction::value(). Benchmark
/// loops and verification sweeps routinely re-evaluate the oracle on the set
/// it was just asked about; instances are immutable after construction, so
/// replaying the previous answer is bit-exact. Thread-local so concurrent
/// sweeps sharing one function never race, and guarded by a monotonically
/// increasing generation id so an instance reusing a freed address can never
/// inherit a stale entry.
constexpr std::size_t kMemoKeyWords = 8;  // item sets up to n = 512

struct ValueMemo {
  const void* fn = nullptr;
  std::uint64_t generation = 0;
  std::size_t num_words = 0;
  std::uint64_t key[kMemoKeyWords] = {};
  double value = 0.0;
};
thread_local ValueMemo t_value_memo;

std::atomic<std::uint64_t> g_next_memo_generation{1};

/// Element universes up to 64 * kStackCoverWords build their covered mask in
/// a stack buffer; larger ones fall back to a reused thread-local scratch.
constexpr std::size_t kStackCoverWords = 16;

}  // namespace

CoverageFunction::CoverageFunction()
    : memo_generation_(
          g_next_memo_generation.fetch_add(1, std::memory_order_relaxed)) {}

CoverageFunction::CoverageFunction(int num_elements,
                                   std::vector<std::vector<int>> covers,
                                   std::vector<double> element_weights)
    : num_items_(static_cast<int>(covers.size())),
      num_elements_(num_elements),
      words_per_mask_((static_cast<std::size_t>(num_elements) + 63) / 64),
      element_weights_(std::move(element_weights)),
      memo_generation_(
          g_next_memo_generation.fetch_add(1, std::memory_order_relaxed)) {
  assert(num_elements >= 0);
  if (element_weights_.empty()) {
    element_weights_.assign(static_cast<std::size_t>(num_elements), 1.0);
  }
  assert(static_cast<int>(element_weights_.size()) == num_elements);
  total_weight_ =
      std::accumulate(element_weights_.begin(), element_weights_.end(), 0.0);
  mask_words_.assign(covers.size() * words_per_mask_, 0);
  for (std::size_t i = 0; i < covers.size(); ++i) {
    std::uint64_t* row = mask_words_.data() + i * words_per_mask_;
    for (int e : covers[i]) {
      assert(0 <= e && e < num_elements_);
      row[static_cast<std::size_t>(e) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(e) % 64);
    }
  }
}

std::vector<int> CoverageFunction::cover_of(int item) const {
  std::vector<int> cover;
  const std::uint64_t* row = item_mask_words(item);
  for (std::size_t w = 0; w < words_per_mask_; ++w) {
    std::uint64_t bits = row[w];
    while (bits) {
      cover.push_back(static_cast<int>(w * 64) + __builtin_ctzll(bits));
      bits &= bits - 1;
    }
  }
  return cover;
}

namespace {

/// ORs the mask rows of every item in `(sw, snw)` into `cov`
/// (`words` words, already zeroed).
inline void accumulate_covered(const std::uint64_t* sw, std::size_t snw,
                               const std::uint64_t* mask_words,
                               std::size_t words, std::uint64_t* cov) {
  for (std::size_t w = 0; w < snw; ++w) {
    std::uint64_t bits = sw[w];
    while (bits) {
      const std::size_t item =
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      const std::uint64_t* row = mask_words + item * words;
      if (words == 2) {  // the dominant small-universe shape
        cov[0] |= row[0];
        cov[1] |= row[1];
      } else {
        for (std::size_t j = 0; j < words; ++j) cov[j] |= row[j];
      }
      bits &= bits - 1;
    }
  }
}

}  // namespace

double CoverageFunction::weight_of_mask(const std::uint64_t* covered) const {
  double total = 0.0;
  const double* weights = element_weights_.data();
  for (std::size_t w = 0; w < words_per_mask_; ++w) {
    std::uint64_t bits = covered[w];
    const double* base = weights + w * 64;
    while (bits) {
      total += base[__builtin_ctzll(bits)];
      bits &= bits - 1;
    }
  }
  return total;
}

double CoverageFunction::value(const ItemSet& s) const {
  assert(s.universe_size() == ground_size());
  const std::uint64_t* sw = s.words();
  const std::size_t snw = s.word_count();
  ValueMemo& memo = t_value_memo;
  const bool memoizable = snw <= kMemoKeyWords;
  if (memoizable && memo.fn == this && memo.generation == memo_generation_ &&
      memo.num_words == snw && std::equal(sw, sw + snw, memo.key)) {
    return memo.value;
  }

  double total;
  if (words_per_mask_ <= kStackCoverWords) {
    std::uint64_t covered[kStackCoverWords];
    for (std::size_t w = 0; w < words_per_mask_; ++w) covered[w] = 0;
    accumulate_covered(sw, snw, mask_words_.data(), words_per_mask_, covered);
    total = weight_of_mask(covered);
  } else {
    thread_local std::vector<std::uint64_t> scratch;
    scratch.assign(words_per_mask_, 0);
    accumulate_covered(sw, snw, mask_words_.data(), words_per_mask_,
                       scratch.data());
    total = weight_of_mask(scratch.data());
  }

  if (memoizable) {
    memo.fn = this;
    memo.generation = memo_generation_;
    memo.num_words = snw;
    std::copy(sw, sw + snw, memo.key);
    memo.value = total;
  }
  return total;
}

double CoverageFunction::marginal(const ItemSet& s, int item) const {
  assert(s.universe_size() == ground_size());
  const std::uint64_t* sw = s.words();
  const std::size_t snw = s.word_count();
  const std::uint64_t* row = item_mask_words(item);
  const double* weights = element_weights_.data();

  auto gain_over = [&](const std::uint64_t* cov) {
    double gain = 0.0;
    for (std::size_t w = 0; w < words_per_mask_; ++w) {
      std::uint64_t bits = row[w] & ~cov[w];
      const double* base = weights + w * 64;
      while (bits) {
        gain += base[__builtin_ctzll(bits)];
        bits &= bits - 1;
      }
    }
    return gain;
  };

  if (words_per_mask_ <= kStackCoverWords) {
    std::uint64_t covered[kStackCoverWords];
    for (std::size_t w = 0; w < words_per_mask_; ++w) covered[w] = 0;
    accumulate_covered(sw, snw, mask_words_.data(), words_per_mask_, covered);
    return gain_over(covered);
  }
  thread_local std::vector<std::uint64_t> scratch;
  scratch.assign(words_per_mask_, 0);
  accumulate_covered(sw, snw, mask_words_.data(), words_per_mask_,
                     scratch.data());
  return gain_over(scratch.data());
}

namespace {

/// Incremental state for a growing working set: the covered-element mask
/// drops the O(|S|) union rebuild from every query, and per-element counts
/// make remove() exact. value_with() walks the union mask in increasing
/// element order — the exact traversal value() performs — so its result is
/// bit-identical to the plain oracle's.
class CoverageIncremental final : public IncrementalEvaluator {
 public:
  explicit CoverageIncremental(const CoverageFunction& f)
      : f_(f),
        words_(f.mask_word_count()),
        covered_(words_, 0),
        counts_(static_cast<std::size_t>(f.num_elements()), 0),
        row_sums_(static_cast<std::size_t>(f.ground_size()), 0.0) {
    // Per-item cover weights, each summed in increasing element order — the
    // exact chain value_with() would run on an empty working set. Greedy's
    // first sweep queries every item against ∅, so this one streaming pass
    // over the flat mask array answers all n of them.
    for (int i = 0; i < f.ground_size(); ++i) {
      const std::uint64_t* row = f.item_mask_words(i);
      double total = 0.0;
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t bits = row[w];
        while (bits) {
          const int bit = __builtin_ctzll(bits);
          total += f.element_weight(static_cast<int>(w * 64) + bit);
          bits &= bits - 1;
        }
      }
      row_sums_[static_cast<std::size_t>(i)] = total;
    }
  }

  double value_with(int item) const override {
    if (num_members_ == 0) return row_sums_[static_cast<std::size_t>(item)];
    const std::uint64_t* row = f_.item_mask_words(item);
    const std::uint64_t* cw = covered_.data();
    double total = 0.0;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = cw[w] | row[w];
      while (bits) {
        const int bit = __builtin_ctzll(bits);
        total += f_.element_weight(static_cast<int>(w * 64) + bit);
        bits &= bits - 1;
      }
    }
    return total;
  }

  // Eight items at a time as eight lanes over the union of covered_ and
  // their rows, in element order. A covered element adds its weight to
  // every lane; any other element adds it to the lanes whose row holds it
  // and +0.0 to the rest, which changes no lane (see
  // IncrementalEvaluator::values_with). Each lane thus makes value_with()'s
  // additions in value_with()'s order and is bit-identical to it, while
  // the eight independent chains overlap instead of running one after
  // another.
  void values_with(const int* items, std::size_t n,
                   double* out) const override {
    if (num_members_ == 0) {
      for (std::size_t j = 0; j < n; ++j) {
        out[j] = row_sums_[static_cast<std::size_t>(items[j])];
      }
      return;
    }
    constexpr std::size_t kLanes = 8;
    const std::uint64_t* cw = covered_.data();
    for (std::size_t first = 0; first < n; first += kLanes) {
      const std::size_t lanes = std::min(kLanes, n - first);
      // A short final batch repeats its last item in the spare lanes and
      // drops their sums.
      const std::uint64_t* rows[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        rows[l] = f_.item_mask_words(items[first + std::min(l, lanes - 1)]);
      }
      double acc[kLanes] = {};
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t lane_bits[kLanes];
        std::uint64_t bits = cw[w];
        for (std::size_t l = 0; l < kLanes; ++l) {
          lane_bits[l] = rows[l][w];
          bits |= lane_bits[l];
        }
        while (bits) {
          const int bit = __builtin_ctzll(bits);
          const double weight =
              f_.element_weight(static_cast<int>(w * 64) + bit);
          if ((cw[w] >> bit) & 1) {
            for (std::size_t l = 0; l < kLanes; ++l) acc[l] += weight;
          } else {
            for (std::size_t l = 0; l < kLanes; ++l) {
              acc[l] += ((lane_bits[l] >> bit) & 1) ? weight : 0.0;
            }
          }
          bits &= bits - 1;
        }
      }
      for (std::size_t l = 0; l < lanes; ++l) out[first + l] = acc[l];
    }
  }

  void add(int item) override {
    ++num_members_;
    const std::uint64_t* row = f_.item_mask_words(item);
    for (std::size_t w = 0; w < words_; ++w) {
      covered_[w] |= row[w];
      std::uint64_t bits = row[w];
      while (bits) {
        const int bit = __builtin_ctzll(bits);
        ++counts_[w * 64 + static_cast<std::size_t>(bit)];
        bits &= bits - 1;
      }
    }
  }

  void remove(int item) override {
    --num_members_;
    const std::uint64_t* row = f_.item_mask_words(item);
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = row[w];
      while (bits) {
        const int bit = __builtin_ctzll(bits);
        if (--counts_[w * 64 + static_cast<std::size_t>(bit)] == 0) {
          covered_[w] &= ~(std::uint64_t{1} << bit);
        }
        bits &= bits - 1;
      }
    }
  }

  double gain(int item) override {
    // Weight of cover(item) \ covered, in increasing element order — the
    // same traversal as CoverageFunction::marginal, hence bit-identical.
    if (num_members_ == 0) return row_sums_[static_cast<std::size_t>(item)];
    const std::uint64_t* row = f_.item_mask_words(item);
    const std::uint64_t* cw = covered_.data();
    double total = 0.0;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = row[w] & ~cw[w];
      while (bits) {
        const int bit = __builtin_ctzll(bits);
        total += f_.element_weight(static_cast<int>(w * 64) + bit);
        bits &= bits - 1;
      }
    }
    return total;
  }

 private:
  const CoverageFunction& f_;
  std::size_t words_;
  int num_members_ = 0;
  std::vector<std::uint64_t> covered_;
  std::vector<int> counts_;
  // F({i}) per item; answers the empty-working-set queries of greedy's
  // first sweep without re-walking any mask.
  std::vector<double> row_sums_;
};

}  // namespace

std::unique_ptr<IncrementalEvaluator> CoverageFunction::make_incremental()
    const {
  return std::make_unique<CoverageIncremental>(*this);
}

std::string coverage_generator_violation(int items, int elements,
                                         int cover) {
  if (items >= 0 && elements >= 0 && cover >= 0 && cover <= elements) {
    return {};
  }
  return "items, elements and cover must be >= 0 and cover <= elements, "
         "but items = " +
         std::to_string(items) + ", elements = " + std::to_string(elements) +
         ", cover = " + std::to_string(cover);
}

CoverageFunction CoverageFunction::random(int num_items, int num_elements,
                                          int cover_size, double max_weight,
                                          util::Rng& rng) {
  if (const std::string why =
          coverage_generator_violation(num_items, num_elements, cover_size);
      !why.empty()) {
    std::fprintf(stderr, "CoverageFunction::random: %s\n", why.c_str());
    std::abort();
  }
  // Builds the flat mask array directly — the per-item covers are never
  // materialized as vectors, so generation performs two bulk allocations
  // (masks + weights) regardless of num_items. Draw order matches the
  // covers-based constructor path exactly: item samples first, weights after.
  CoverageFunction f;
  f.num_items_ = num_items;
  f.num_elements_ = num_elements;
  f.words_per_mask_ = (static_cast<std::size_t>(num_elements) + 63) / 64;
  f.mask_words_.assign(
      static_cast<std::size_t>(num_items) * f.words_per_mask_, 0);
  for (int i = 0; i < num_items; ++i) {
    rng.sample_without_replacement_mask(
        num_elements, cover_size,
        f.mask_words_.data() + static_cast<std::size_t>(i) * f.words_per_mask_);
  }
  f.element_weights_.resize(static_cast<std::size_t>(num_elements));
  for (auto& w : f.element_weights_) w = rng.uniform_double(1.0, max_weight);
  f.total_weight_ = std::accumulate(f.element_weights_.begin(),
                                    f.element_weights_.end(), 0.0);
  return f;
}

}  // namespace ps::submodular
