#include "matching/matching_oracle.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace ps::matching {

IncrementalMatchingOracle::IncrementalMatchingOracle(
    const BipartiteGraph& graph)
    : graph_(&graph),
      active_x_(graph.num_x()),
      match_x_(static_cast<std::size_t>(graph.num_x()), -1),
      match_y_(static_cast<std::size_t>(graph.num_y()), -1),
      visit_stamp_(static_cast<std::size_t>(graph.num_y()), 0) {}

int IncrementalMatchingOracle::add_x(int x) {
  assert(0 <= x && x < graph_->num_x());
  if (active_x_.contains(x)) return 0;
  active_x_.insert(x);
  // A new augmenting path, if any, must start at the only new free vertex.
  // Jobs stamped by a failed search stay stamped: they hold no free job and
  // are closed under alternating reachability, so until the matching
  // changes, any later search that reaches one fails through it and visits
  // nothing else. Skipping them leaves every search's path unchanged, and
  // only a successful augmentation starts a fresh stamp.
  if (try_augment_from(x)) {
    ++current_stamp_;
    ++size_;
    return 1;
  }
  return 0;
}

bool IncrementalMatchingOracle::try_augment_from(int x) {
  for (int y : graph_->neighbors_of_x(x)) {
    if (visit_stamp_[static_cast<std::size_t>(y)] == current_stamp_) continue;
    visit_stamp_[static_cast<std::size_t>(y)] = current_stamp_;
    const int other = match_y_[static_cast<std::size_t>(y)];
    if (other == -1 || try_augment_from(other)) {
      match_x_[static_cast<std::size_t>(x)] = y;
      match_y_[static_cast<std::size_t>(y)] = x;
      return true;
    }
  }
  return false;
}

IncrementalMatchingOracle& IncrementalMatchingOracle::scratch() {
  // What-if queries run concurrently under the greedy's pool, so the
  // scratch copy is thread-local; assignment reuses its buffers, so
  // steady-state queries never allocate.
  thread_local IncrementalMatchingOracle oracle;
  return oracle;
}

int IncrementalMatchingOracle::gain_of(const std::vector<int>& extra_x) const {
  IncrementalMatchingOracle& what_if = scratch();
  what_if = *this;
  int gain = 0;
  for (int x : extra_x) gain += what_if.add_x(x);
  return gain;
}

void IncrementalMatchingOracle::gains_of(
    const std::vector<int>* const* extra_lists, std::size_t n,
    int* out) const {
  IncrementalMatchingOracle& what_if = scratch();
  const std::vector<int>* previous = nullptr;
  for (std::size_t j = 0; j < n; ++j) {
    const std::vector<int>& list = *extra_lists[j];
    std::size_t from = 0;
    if (previous != nullptr && previous->size() <= list.size() &&
        std::equal(previous->begin(), previous->end(), list.begin())) {
      from = previous->size();  // what_if holds S ∪ *previous
    } else {
      what_if = *this;
    }
    for (std::size_t k = from; k < list.size(); ++k) what_if.add_x(list[k]);
    out[j] = what_if.size_ - size_;
    previous = &list;
  }
}

WeightedMatchingOracle::WeightedMatchingOracle(
    const BipartiteGraph& graph, const std::vector<double>& y_values)
    : graph_(&graph),
      y_values_(&y_values),
      active_x_(graph.num_x()),
      match_x_(static_cast<std::size_t>(graph.num_x()), -1),
      match_y_(static_cast<std::size_t>(graph.num_y()), -1) {
  assert(static_cast<int>(y_values.size()) == graph.num_y());
}

/// BFS bookkeeping of add_x, kept per thread so a search allocates nothing
/// once the buffers reach the graph's size. An entry is valid only while
/// its stamp equals `stamp`, so a new search starts by bumping the stamp
/// instead of clearing O(|X| + |Y|) entries.
struct WeightedMatchingOracle::Search {
  std::vector<int> parent_slot_of_job;
  std::vector<unsigned> job_stamp;
  std::vector<int> entry_job_of_slot;
  std::vector<unsigned> slot_stamp;
  std::vector<int> slot_queue;
  unsigned stamp = 0;

  void start(std::size_t num_x, std::size_t num_y) {
    if (job_stamp.size() < num_y) {
      job_stamp.resize(num_y, 0);
      parent_slot_of_job.resize(num_y);
    }
    if (slot_stamp.size() < num_x) {
      slot_stamp.resize(num_x, 0);
      entry_job_of_slot.resize(num_x);
    }
    if (++stamp == 0) {  // wrapped: no entry may look current
      std::fill(job_stamp.begin(), job_stamp.end(), 0u);
      std::fill(slot_stamp.begin(), slot_stamp.end(), 0u);
      stamp = 1;
    }
    slot_queue.clear();
  }
  bool job_seen(int job) const {
    return job_stamp[static_cast<std::size_t>(job)] == stamp;
  }
  bool slot_seen(int slot) const {
    return slot_stamp[static_cast<std::size_t>(slot)] == stamp;
  }
  void see_job(int job, int parent_slot) {
    job_stamp[static_cast<std::size_t>(job)] = stamp;
    parent_slot_of_job[static_cast<std::size_t>(job)] = parent_slot;
  }
  void see_slot(int slot, int entry_job) {
    slot_stamp[static_cast<std::size_t>(slot)] = stamp;
    entry_job_of_slot[static_cast<std::size_t>(slot)] = entry_job;
    slot_queue.push_back(slot);
  }
};

int WeightedMatchingOracle::best_reachable_free_job(int x,
                                                    Search& search) const {
  // Alternating BFS: slot --edge--> job --matched-edge--> slot ...
  // Collects all free jobs reachable from the free slot x; the best of them
  // is the job the new optimum saturates (Lemma 2.3.2's path endpoint).
  search.start(static_cast<std::size_t>(graph_->num_x()),
               static_cast<std::size_t>(graph_->num_y()));
  search.see_slot(x, -1);  // BFS root

  int best_job = -1;
  double best_value = -1.0;
  for (std::size_t head = 0; head < search.slot_queue.size(); ++head) {
    const int s = search.slot_queue[head];
    for (int job : graph_->neighbors_of_x(s)) {
      if (search.job_seen(job)) continue;
      search.see_job(job, s);
      const int matched_slot = match_y_[static_cast<std::size_t>(job)];
      if (matched_slot == -1) {
        const double v = (*y_values_)[static_cast<std::size_t>(job)];
        if (v > best_value) {
          best_value = v;
          best_job = job;
        }
      } else if (!search.slot_seen(matched_slot)) {
        search.see_slot(matched_slot, job);
      }
    }
  }
  return best_job;
}

double WeightedMatchingOracle::add_x(int x) {
  assert(0 <= x && x < graph_->num_x());
  if (active_x_.contains(x)) return 0.0;
  active_x_.insert(x);

  thread_local Search search;
  const int job = best_reachable_free_job(x, search);
  if (job == -1) return 0.0;

  // Augment along the discovered alternating path back to x, displacing the
  // previous occupant of each intermediate slot onto its discovery slot.
  int u = job;
  for (;;) {
    const int s = search.parent_slot_of_job[static_cast<std::size_t>(u)];
    const int displaced =
        s == x ? -1 : match_x_[static_cast<std::size_t>(s)];
    match_x_[static_cast<std::size_t>(s)] = u;
    match_y_[static_cast<std::size_t>(u)] = s;
    if (s == x) break;
    assert(displaced ==
           search.entry_job_of_slot[static_cast<std::size_t>(s)]);
    u = displaced;
  }
  const double gain = (*y_values_)[static_cast<std::size_t>(job)];
  value_ += gain;
  return gain;
}

double WeightedMatchingOracle::gain_of(const std::vector<int>& extra_x) const {
  WeightedMatchingOracle copy = *this;
  double gain = 0.0;
  for (int x : extra_x) gain += copy.add_x(x);
  return gain;
}

double MatchingUtilityFunction::value(const submodular::ItemSet& s) const {
  assert(s.universe_size() == graph_->num_x());
  IncrementalMatchingOracle oracle(*graph_);
  s.for_each([&](int x) { oracle.add_x(x); });
  return oracle.size();
}

double WeightedMatchingUtilityFunction::value(
    const submodular::ItemSet& s) const {
  assert(s.universe_size() == graph_->num_x());
  // Independent of the incremental oracle: greedy over the transversal
  // matroid of schedulable job sets — process jobs by non-increasing value,
  // keep a job iff it still fits via an augmenting path inside S. Matroid
  // greedy is exactly optimal, which is what makes this a good cross-check.
  const int ny = graph_->num_y();
  std::vector<int> jobs(static_cast<std::size_t>(ny));
  std::iota(jobs.begin(), jobs.end(), 0);
  std::stable_sort(jobs.begin(), jobs.end(), [&](int a, int b) {
    return y_values_[static_cast<std::size_t>(a)] >
           y_values_[static_cast<std::size_t>(b)];
  });

  const auto adj_y = graph_->adjacency_from_y();
  std::vector<int> match_x(static_cast<std::size_t>(graph_->num_x()), -1);
  std::vector<int> match_y(static_cast<std::size_t>(ny), -1);
  std::vector<int> stamp(static_cast<std::size_t>(ny), -1);

  // Kuhn augmentation from the job side, restricted to slots in S.
  auto augment = [&](auto&& self, int job, int round) -> bool {
    for (int slot : adj_y[static_cast<std::size_t>(job)]) {
      if (!s.contains(slot)) continue;
      const int occupant = match_x[static_cast<std::size_t>(slot)];
      if (occupant != -1) continue;
      match_x[static_cast<std::size_t>(slot)] = job;
      match_y[static_cast<std::size_t>(job)] = slot;
      return true;
    }
    for (int slot : adj_y[static_cast<std::size_t>(job)]) {
      if (!s.contains(slot)) continue;
      const int occupant = match_x[static_cast<std::size_t>(slot)];
      if (occupant == -1 || occupant == job) continue;
      if (stamp[static_cast<std::size_t>(occupant)] == round) continue;
      stamp[static_cast<std::size_t>(occupant)] = round;
      if (self(self, occupant, round)) {
        match_x[static_cast<std::size_t>(slot)] = job;
        match_y[static_cast<std::size_t>(job)] = slot;
        return true;
      }
    }
    return false;
  };

  double total = 0.0;
  int round = 0;
  for (int job : jobs) {
    stamp[static_cast<std::size_t>(job)] = round;
    if (augment(augment, job, round)) {
      total += y_values_[static_cast<std::size_t>(job)];
    }
    ++round;
  }
  return total;
}

}  // namespace ps::matching
