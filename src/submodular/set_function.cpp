#include "submodular/set_function.hpp"

namespace ps::submodular {

/// Forwards an inner IncrementalEvaluator, charging each query to the
/// shared atomic counters exactly as the plain-oracle path would.
class CountingOracle::CountingIncremental final : public IncrementalEvaluator {
 public:
  CountingIncremental(std::unique_ptr<IncrementalEvaluator> inner,
                      std::atomic<std::size_t>& value_calls)
      : inner_(std::move(inner)), value_calls_(value_calls) {}

  double value_with(int item) const override {
    value_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->value_with(item);
  }

  void add(int item) override { inner_->add(item); }
  void remove(int item) override { inner_->remove(item); }

  double gain(int item) override {
    value_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->gain(item);
  }

 private:
  std::unique_ptr<IncrementalEvaluator> inner_;
  std::atomic<std::size_t>& value_calls_;
};

std::unique_ptr<IncrementalEvaluator> CountingOracle::make_incremental()
    const {
  std::unique_ptr<IncrementalEvaluator> inner = inner_.make_incremental();
  if (inner == nullptr) return nullptr;
  return std::make_unique<CountingIncremental>(std::move(inner),
                                               value_calls_);
}

}  // namespace ps::submodular
