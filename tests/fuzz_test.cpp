// Randomized differential tests ("fuzz" suites): each drives a component
// with long random operation sequences and checks it against a trivially
// correct reference implementation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "engine/cache_store.hpp"
#include "engine/registry.hpp"
#include "engine/sweep_runner.hpp"
#include "matching/bipartite_graph.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching_oracle.hpp"
#include "scheduling/cost_model.hpp"
#include "scheduling/intervals.hpp"
#include "submodular/item_set.hpp"
#include "util/rng.hpp"

namespace ps {
namespace {

TEST(FuzzItemSet, MatchesStdSetReference) {
  util::Rng rng(1001);
  for (int universe : {7, 64, 65, 130}) {
    submodular::ItemSet set(universe);
    std::set<int> reference;
    for (int op = 0; op < 2000; ++op) {
      const int item = rng.uniform_int(0, universe - 1);
      switch (rng.uniform_int(0, 3)) {
        case 0:
          set.insert(item);
          reference.insert(item);
          break;
        case 1:
          set.erase(item);
          reference.erase(item);
          break;
        case 2:
          ASSERT_EQ(set.contains(item), reference.count(item) > 0)
              << "universe " << universe << " op " << op;
          break;
        default: {
          ASSERT_EQ(set.size(), static_cast<int>(reference.size()));
          const auto vec = set.to_vector();
          ASSERT_TRUE(std::equal(vec.begin(), vec.end(), reference.begin(),
                                 reference.end()));
          break;
        }
      }
    }
  }
}

TEST(FuzzItemSet, AlgebraIdentities) {
  util::Rng rng(1003);
  const int n = 90;
  for (int trial = 0; trial < 300; ++trial) {
    submodular::ItemSet a(n), b(n);
    for (int i = 0; i < n; ++i) {
      if (rng.bernoulli(0.4)) a.insert(i);
      if (rng.bernoulli(0.4)) b.insert(i);
    }
    // De Morgan, inclusion-exclusion, difference identities.
    EXPECT_EQ(a.united(b).complement(),
              a.complement().intersected(b.complement()));
    EXPECT_EQ(a.united(b).size() + a.intersected(b).size(),
              a.size() + b.size());
    EXPECT_EQ(a.minus(b), a.intersected(b.complement()));
    EXPECT_TRUE(a.intersected(b).is_subset_of(a));
    EXPECT_EQ(a.minus(b).size() + a.intersected(b).size(), a.size());
  }
}

TEST(FuzzIncrementalOracle, LongRandomAddSequences) {
  util::Rng rng(1007);
  for (int trial = 0; trial < 10; ++trial) {
    const int nx = rng.uniform_int(5, 30);
    const int ny = rng.uniform_int(5, 30);
    const auto g =
        matching::BipartiteGraph::random(nx, ny, rng.uniform_double(0.1, 0.5),
                                         rng);
    matching::IncrementalMatchingOracle oracle(g);
    submodular::ItemSet added(nx);
    for (int op = 0; op < 2 * nx; ++op) {
      const int x = rng.uniform_int(0, nx - 1);  // duplicates on purpose
      oracle.add_x(x);
      added.insert(x);
      ASSERT_EQ(oracle.size(), matching::hopcroft_karp(g, added).size)
          << "trial " << trial << " op " << op;
    }
  }
}

TEST(FuzzWeightedOracle, AgreesWithMatroidGreedyUnderDuplicates) {
  util::Rng rng(1009);
  for (int trial = 0; trial < 10; ++trial) {
    const int nx = rng.uniform_int(5, 20);
    const int ny = rng.uniform_int(5, 15);
    const auto g =
        matching::BipartiteGraph::random(nx, ny, rng.uniform_double(0.2, 0.5),
                                         rng);
    std::vector<double> values(static_cast<std::size_t>(ny));
    for (auto& v : values) v = rng.uniform_double(0.5, 9.5);
    matching::WeightedMatchingUtilityFunction reference(g, values);

    matching::WeightedMatchingOracle oracle(g, values);
    submodular::ItemSet added(nx);
    for (int op = 0; op < 2 * nx; ++op) {
      const int x = rng.uniform_int(0, nx - 1);
      oracle.add_x(x);
      added.insert(x);
      ASSERT_NEAR(oracle.value(), reference.value(added), 1e-9)
          << "trial " << trial << " op " << op;
    }
  }
}

TEST(FuzzMinCostCover, CoverIsAlwaysValidAndPriced) {
  util::Rng rng(1013);
  for (int trial = 0; trial < 100; ++trial) {
    const int horizon = rng.uniform_int(3, 15);
    std::vector<double> prices(static_cast<std::size_t>(horizon));
    for (auto& p : prices) p = rng.uniform_double(0.0, 3.0);
    scheduling::TimeVaryingCostModel model(rng.uniform_double(0.0, 2.0),
                                           prices);
    std::vector<int> required;
    for (int t = 0; t < horizon; ++t) {
      if (rng.bernoulli(0.35)) required.push_back(t);
    }
    double cost = -1.0;
    const auto cover =
        scheduling::min_cost_cover(scheduling::CoverSpans(0, horizon, model),
                                   required, &cost);
    std::vector<char> awake(static_cast<std::size_t>(horizon), 0);
    double recomputed = 0.0;
    for (const auto& iv : cover) {
      ASSERT_GE(iv.start, 0);
      ASSERT_LE(iv.end, horizon);
      ASSERT_LT(iv.start, iv.end);
      recomputed += model.cost(0, iv.start, iv.end);
      for (int t = iv.start; t < iv.end; ++t) {
        awake[static_cast<std::size_t>(t)] = 1;
      }
    }
    for (int t : required) ASSERT_TRUE(awake[static_cast<std::size_t>(t)]);
    ASSERT_NEAR(cost, recomputed, 1e-9);
  }
}

// Mutation fuzzing of the v2 cache-file loader: starting from a valid
// sample-bearing file, apply random text mutations and require that every
// variant either loads cleanly or fails closed — never crashes — and that
// whatever does load re-saves canonically (save -> load -> save is a
// byte-level fixed point, the property shard merging leans on).
TEST(FuzzCacheStoreV2, MutatedFilesLoadCleanlyOrFailClosedNeverCrash) {
  engine::SweepPlan plan;
  plan.solvers = {"powerdown.break_even", "powerdown.never"};
  plan.base_params = {{"alpha", 2.0}, {"gaps", 50.0}};
  plan.axes = {{"dist", {0, 1}}};
  plan.trials = 3;
  plan.seed = 991;
  engine::SweepOptions options;
  options.keep_samples = true;
  const auto results = engine::SweepRunner(options).run(
      engine::SolverRegistry::with_builtins(), plan);
  engine::ScenarioCache cache;
  for (const auto& result : results) {
    cache.insert(engine::scenario_cache_key(result.spec),
                 std::make_shared<const engine::ScenarioResult>(result));
  }
  const std::string dir = ::testing::TempDir();
  const std::string valid_path = dir + "fuzz_cache_valid.cache";
  ASSERT_TRUE(engine::ScenarioCacheStore(valid_path).save(cache));
  std::string valid;
  {
    std::ifstream in(valid_path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    valid = text.str();
  }
  ASSERT_FALSE(valid.empty());

  const std::string mutated_path = dir + "fuzz_cache_mutated.cache";
  const std::string resaved_path = dir + "fuzz_cache_resaved.cache";
  const std::string roundtrip_path = dir + "fuzz_cache_roundtrip.cache";
  util::Rng rng(20100601);
  int loaded_ok = 0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::string text = valid;
    const int mutations = rng.uniform_int(1, 3);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(text.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0: {  // substitute a character (digits, separators, junk)
          const char alphabet[] = "0123456789.-+eE \nXz";
          text[at] = alphabet[rng.uniform_int(
              0, static_cast<int>(sizeof(alphabet)) - 2)];
          break;
        }
        case 1:  // delete a span
          text.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 12)));
          break;
        case 2:  // duplicate a span (repeats tokens or whole lines)
          text.insert(at, text.substr(
                              at, static_cast<std::size_t>(
                                      rng.uniform_int(1, 40))));
          break;
        default:  // truncate the tail
          text.resize(at);
          break;
      }
    }
    {
      std::ofstream out(mutated_path, std::ios::binary);
      out << text;
    }
    engine::ScenarioCache mutated_cache;
    if (!engine::ScenarioCacheStore(mutated_path).load(mutated_cache)) {
      continue;  // failed closed: the accepted outcome for most mutants
    }
    ++loaded_ok;
    // Whatever survived must be internally consistent enough to re-save,
    // and the re-save must be canonical: save(load(save(x))) == save(x).
    ASSERT_TRUE(engine::ScenarioCacheStore(resaved_path).save(mutated_cache))
        << "iteration " << iteration;
    engine::ScenarioCache reloaded;
    ASSERT_TRUE(engine::ScenarioCacheStore(resaved_path).load(reloaded))
        << "iteration " << iteration << ": a file this build saved must load";
    ASSERT_TRUE(engine::ScenarioCacheStore(roundtrip_path).save(reloaded))
        << "iteration " << iteration;
    std::ifstream a(resaved_path, std::ios::binary);
    std::ifstream b(roundtrip_path, std::ios::binary);
    std::ostringstream text_a, text_b;
    text_a << a.rdbuf();
    text_b << b.rdbuf();
    ASSERT_EQ(text_a.str(), text_b.str()) << "iteration " << iteration;
  }
  // The unmutated file itself must load (sanity that the loop tested the
  // real format, not a path error). Some mutants legitimately survive
  // (e.g. a mutation confined to trailing whitespace or a duplicated
  // entry), so no upper bound on loaded_ok.
  engine::ScenarioCache sanity;
  EXPECT_TRUE(engine::ScenarioCacheStore(valid_path).load(sanity));
  EXPECT_EQ(sanity.size(), cache.size());
  std::remove(valid_path.c_str());
  std::remove(mutated_path.c_str());
  std::remove(resaved_path.c_str());
  std::remove(roundtrip_path.c_str());
}

TEST(FuzzHopcroftKarp, KonigConsistency) {
  // max matching size == num_y - (max independent-ish check is heavy);
  // instead verify maximality: no augmenting edge between a free x and a
  // free y exists.
  util::Rng rng(1017);
  for (int trial = 0; trial < 50; ++trial) {
    const auto g = matching::BipartiteGraph::random(
        rng.uniform_int(2, 15), rng.uniform_int(2, 15),
        rng.uniform_double(0.1, 0.6), rng);
    const auto m = matching::hopcroft_karp(g);
    ASSERT_TRUE(matching::is_valid_matching(g, m));
    for (int x = 0; x < g.num_x(); ++x) {
      if (m.match_x[static_cast<std::size_t>(x)] != -1) continue;
      for (int y : g.neighbors_of_x(x)) {
        ASSERT_NE(m.match_y[static_cast<std::size_t>(y)], -1)
            << "free-free edge => not even maximal";
      }
    }
  }
}

}  // namespace
}  // namespace ps
