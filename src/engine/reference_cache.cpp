#include "engine/reference_cache.hpp"

#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "scheduling/baselines.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/generators.hpp"
#include "scheduling/instance_io.hpp"
#include "submodular/coverage.hpp"

namespace ps::engine {
namespace {

struct Cache {
  std::mutex mutex;
  std::unordered_map<std::string, double> values;
  ReferenceCacheStats stats;
};

Cache& cache() {
  static Cache instance;
  return instance;
}

}  // namespace

double cached_reference(const std::string& key,
                        const std::function<double()>& compute) {
  Cache& c = cache();
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    const auto it = c.values.find(key);
    if (it != c.values.end()) {
      ++c.stats.hits;
      if (obs::enabled()) {
        obs::Registry::global().counter("cache.reference.hits").add(1);
      }
      return it->second;
    }
    ++c.stats.misses;
  }
  if (obs::enabled()) {
    obs::Registry::global().counter("cache.reference.misses").add(1);
  }
  const double value = compute();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.values.emplace(key, value);
  return value;
}

double power_opt_reference(const scheduling::SchedulingInstance& instance,
                           double alpha) {
  char alpha_text[40];
  std::snprintf(alpha_text, sizeof(alpha_text), "|%.17g", alpha);
  std::string key = "power.opt|";
  key += scheduling::instance_to_text(instance);
  key += alpha_text;
  return cached_reference(key, [&] {
    const scheduling::RestartCostModel model(alpha);
    const auto opt = scheduling::brute_force_min_cost_all_jobs(instance, model);
    return opt ? opt->energy_cost : -1.0;
  });
}

Status check_brute_force_grid(const std::string& what, int processors,
                              int horizon) {
  if (processors * horizon <= scheduling::kMaxBruteForceSlots) {
    return Status();
  }
  return Status::usage(
      what + " enumerates at most " +
      std::to_string(scheduling::kMaxBruteForceSlots) +
      " slots, but processors * horizon = " + std::to_string(processors) +
      " * " + std::to_string(horizon) + " = " +
      std::to_string(processors * horizon));
}

Status check_feasible_generator(const scheduling::RandomInstanceParams& gen) {
  if (gen.num_jobs < 1 || gen.num_processors < 1 || gen.horizon < 1 ||
      gen.window_length < 1) {
    return Status::usage(
        "jobs, processors, horizon and window_length must be >= 1, but "
        "jobs = " + std::to_string(gen.num_jobs) +
        ", processors = " + std::to_string(gen.num_processors) +
        ", horizon = " + std::to_string(gen.horizon) +
        ", window_length = " + std::to_string(gen.window_length));
  }
  const long long slots =
      static_cast<long long>(gen.num_processors) * gen.horizon;
  if (gen.num_jobs <= slots) return Status();
  return Status::usage(
      "a feasible instance plants each job in its own slot, but jobs = " +
      std::to_string(gen.num_jobs) + " exceeds processors * horizon = " +
      std::to_string(gen.num_processors) + " * " +
      std::to_string(gen.horizon) + " = " + std::to_string(slots));
}

Status check_random_generator(const scheduling::RandomInstanceParams& gen) {
  const std::string why = scheduling::random_instance_violation(gen);
  return why.empty() ? Status() : Status::usage(why);
}

Status check_coverage_generator(int items, int elements, int cover) {
  const std::string why =
      submodular::coverage_generator_violation(items, elements, cover);
  return why.empty() ? Status() : Status::usage(why);
}

ReferenceCacheStats reference_cache_stats() {
  Cache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return c.stats;
}

void clear_reference_cache() {
  Cache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.values.clear();
  c.stats = {};
}

}  // namespace ps::engine
