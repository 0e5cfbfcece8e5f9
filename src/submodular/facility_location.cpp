#include "submodular/facility_location.hpp"

#include <algorithm>
#include <cassert>

namespace ps::submodular {

FacilityLocationFunction::FacilityLocationFunction(
    std::vector<std::vector<double>> service)
    : service_(std::move(service)) {
  num_clients_ = service_.empty() ? 0 : static_cast<int>(service_[0].size());
  for (const auto& row : service_) {
    assert(static_cast<int>(row.size()) == num_clients_);
    for (double v : row) {
      assert(v >= 0.0);
      (void)v;
    }
  }
}

double FacilityLocationFunction::value(const ItemSet& s) const {
  assert(s.universe_size() == ground_size());
  if (s.empty() || num_clients_ == 0) return 0.0;
  std::vector<double> best(static_cast<std::size_t>(num_clients_), 0.0);
  s.for_each([&](int facility) {
    const auto& row = service_[static_cast<std::size_t>(facility)];
    for (int j = 0; j < num_clients_; ++j) {
      best[static_cast<std::size_t>(j)] =
          std::max(best[static_cast<std::size_t>(j)],
                   row[static_cast<std::size_t>(j)]);
    }
  });
  double total = 0.0;
  for (double b : best) total += b;
  return total;
}

double FacilityLocationFunction::marginal(const ItemSet& s, int item) const {
  // Gain of `item` over S, computed in one pass over clients.
  std::vector<double> best(static_cast<std::size_t>(num_clients_), 0.0);
  s.for_each([&](int facility) {
    const auto& row = service_[static_cast<std::size_t>(facility)];
    for (int j = 0; j < num_clients_; ++j) {
      best[static_cast<std::size_t>(j)] =
          std::max(best[static_cast<std::size_t>(j)],
                   row[static_cast<std::size_t>(j)]);
    }
  });
  const auto& row = service_[static_cast<std::size_t>(item)];
  double gain = 0.0;
  for (int j = 0; j < num_clients_; ++j) {
    gain += std::max(0.0, row[static_cast<std::size_t>(j)] -
                              best[static_cast<std::size_t>(j)]);
  }
  return gain;
}

namespace {

/// Per-client best/second-best service over the working set. value_with()
/// sums max(best_j, row_j) in client order — exactly the loop value() runs
/// on the grown set, so the result is bit-identical to the plain oracle.
class FacilityIncremental final : public IncrementalEvaluator {
 public:
  explicit FacilityIncremental(const FacilityLocationFunction& f)
      : f_(f),
        members_(f.ground_size()),
        best_(static_cast<std::size_t>(f.num_clients()), 0.0),
        best_fac_(static_cast<std::size_t>(f.num_clients()), -1),
        second_(static_cast<std::size_t>(f.num_clients()), 0.0),
        second_fac_(static_cast<std::size_t>(f.num_clients()), -1) {}

  double value_with(int item) const override {
    const std::vector<double>& row = f_.service_row(item);
    const std::size_t clients = best_.size();
    double total = 0.0;
    for (std::size_t j = 0; j < clients; ++j) {
      total += std::max(best_[j], row[j]);
    }
    return total;
  }

  void add(int item) override {
    members_.insert(item);
    const std::vector<double>& row = f_.service_row(item);
    const std::size_t clients = best_.size();
    for (std::size_t j = 0; j < clients; ++j) {
      const double v = row[j];
      if (v > best_[j]) {
        second_[j] = best_[j];
        second_fac_[j] = best_fac_[j];
        best_[j] = v;
        best_fac_[j] = item;
      } else if (v > second_[j]) {
        second_[j] = v;
        second_fac_[j] = item;
      }
    }
  }

  void remove(int item) override {
    members_.erase(item);
    const std::size_t clients = best_.size();
    for (std::size_t j = 0; j < clients; ++j) {
      // Only clients the removed facility backed need a rescan; everyone
      // else's best/second pair is untouched.
      if (best_fac_[j] == item || second_fac_[j] == item) rescan(j);
    }
  }

  double gain(int item) override {
    // One pass over clients against the maintained bests — the same loop
    // as FacilityLocationFunction::marginal, hence bit-identical.
    const std::vector<double>& row = f_.service_row(item);
    const std::size_t clients = best_.size();
    double total = 0.0;
    for (std::size_t j = 0; j < clients; ++j) {
      total += std::max(0.0, row[j] - best_[j]);
    }
    return total;
  }

 private:
  void rescan(std::size_t client) {
    double best = 0.0, second = 0.0;
    int best_fac = -1, second_fac = -1;
    members_.for_each([&](int facility) {
      const double v = f_.service_row(facility)[client];
      if (v > best) {
        second = best;
        second_fac = best_fac;
        best = v;
        best_fac = facility;
      } else if (v > second) {
        second = v;
        second_fac = facility;
      }
    });
    best_[client] = best;
    best_fac_[client] = best_fac;
    second_[client] = second;
    second_fac_[client] = second_fac;
  }

  const FacilityLocationFunction& f_;
  ItemSet members_;
  std::vector<double> best_;
  std::vector<int> best_fac_;
  std::vector<double> second_;
  std::vector<int> second_fac_;
};

}  // namespace

std::unique_ptr<IncrementalEvaluator>
FacilityLocationFunction::make_incremental() const {
  return std::make_unique<FacilityIncremental>(*this);
}

FacilityLocationFunction FacilityLocationFunction::random(int num_facilities,
                                                          int num_clients,
                                                          double max_service,
                                                          util::Rng& rng) {
  std::vector<std::vector<double>> service(
      static_cast<std::size_t>(num_facilities),
      std::vector<double>(static_cast<std::size_t>(num_clients)));
  for (auto& row : service) {
    for (auto& v : row) v = rng.uniform_double(0.0, max_service);
  }
  return FacilityLocationFunction(std::move(service));
}

}  // namespace ps::submodular
