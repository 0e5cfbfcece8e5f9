#include "engine/cache_store.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/time.hpp"
#include "util/file_io.hpp"

namespace ps::engine {

const char kScenarioCacheFormatHeader[] = "powersched-scenario-cache v2";
const char kScenarioCacheFormatHeaderV1[] = "powersched-scenario-cache v1";

namespace {

/// Whitespace as `istream >>` splits on it in the classic locale.
bool is_space(char ch) { return ch == ' ' || (ch >= '\t' && ch <= '\r'); }

/// Names embedded in the line format (solver, parameter, metric names) must
/// be single whitespace-free tokens. Every name in the library is; this
/// guards the format against a future one that is not.
bool plain_token(const std::string& name) {
  if (name.empty()) return false;
  for (char ch : name) {
    if (is_space(ch)) return false;
  }
  return true;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

bool load_error(const std::string& path, std::size_t line_no,
                const std::string& detail) {
  std::fprintf(stderr, "cache load: %s:%zu: %s\n", path.c_str(), line_no,
               detail.c_str());
  return false;
}

/// The whitespace-separated tokens of one line, as views into it, with
/// fail-closed number parsing.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  /// The next token; false (and an empty token) at the end of the line.
  bool next(std::string_view& token) {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) ++begin;
    std::size_t end = begin;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return !token.empty();
  }

  bool next(std::string& out) {
    std::string_view token;
    if (!next(token)) return false;
    out.assign(token);
    return true;
  }

  /// A decimal integer, or a double in format_param's grammar, filling the
  /// whole token. from_chars reads the %.17g rendering back bit-exactly,
  /// subnormals included, and takes no leading '+', no hex and no value
  /// outside the type's range (overflow, or underflow to zero) — tokens
  /// the writer never emits fail the load.
  template <typename Number>
  bool next_number(Number& out) {
    std::string_view token;
    if (!next(token)) return false;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    return ec == std::errc() && ptr == end;
  }

  /// Whether only whitespace remains.
  bool done() {
    std::string_view token;
    return !next(token);
  }

 private:
  std::string_view rest_;
};

bool parse_accumulator_state(Fields& in, util::Accumulator::State& state) {
  return in.next_number(state.count) && in.next_number(state.mean) &&
         in.next_number(state.m2) && in.next_number(state.min) &&
         in.next_number(state.max) && in.next_number(state.sum);
}

/// Writes ' ' and then `value` as format_param renders it, through a stack
/// buffer: a save builds no per-value and no whole-file string.
void put_field(std::FILE* out, double value) {
  char text[1 + kMaxParamChars] = {' '};
  std::fwrite(text, 1, format_param_to(text + 1, value) - text, out);
}

void write_accumulator_state(std::FILE* out, const util::Accumulator& acc) {
  const util::Accumulator::State state = acc.state();
  std::fprintf(out, "%zu", state.count);
  for (double v : {state.mean, state.m2, state.min, state.max, state.sum}) {
    put_field(out, v);
  }
}

/// The five core accumulators, in fixed file order.
constexpr const char* kCoreAccumulators[] = {"objective", "ratio", "cost",
                                             "oracle_calls", "wall_ms"};

/// The core accumulators that retain samples under `--tails` — wall_ms never
/// does (it is the one non-deterministic reading, and persisting it would
/// break byte-identical shard merges).
constexpr const char* kSampledAccumulators[] = {"objective", "ratio", "cost",
                                                "oracle_calls"};

/// One `samples` / `metric_samples` line: keyword, name, count, then the
/// retained readings in ascending order (sorted_samples() — the canonical
/// deterministic order, so the emitted bytes never depend on whether a
/// percentile was computed before the save).
void write_samples_line(std::FILE* out, const char* keyword,
                        const std::string& name,
                        const util::Accumulator& acc) {
  const std::vector<double>& sorted = acc.sorted_samples();
  std::fprintf(out, "%s %s %zu", keyword, name.c_str(), sorted.size());
  for (double v : sorted) put_field(out, v);
  std::fputc('\n', out);
}

/// Whether every sample-bearing accumulator of `result` retained its
/// samples — the condition for writing the entry's sample blocks. Mixed
/// retention (which no aggregation path produces) degrades to a
/// streaming-only entry rather than a half-sampled one.
bool all_samples_kept(const ScenarioResult& result) {
  bool keep = result.objective.samples_kept() && result.ratio.samples_kept() &&
              result.cost.samples_kept() &&
              result.oracle_calls.samples_kept();
  for (const auto& [name, acc] : result.metrics) {
    keep = keep && acc.samples_kept();
  }
  return keep;
}

util::Accumulator* core_accumulator(ScenarioResult& result,
                                    const std::string& name) {
  if (name == "objective") return &result.objective;
  if (name == "ratio") return &result.ratio;
  if (name == "cost") return &result.cost;
  if (name == "oracle_calls") return &result.oracle_calls;
  if (name == "wall_ms") return &result.wall_ms;
  return nullptr;
}

}  // namespace

bool ScenarioCacheStore::load(ScenarioCache& cache) const {
  if (!file_exists(path_)) return true;  // nothing persisted yet
  const obs::StopWatch watch;
  std::size_t entries_loaded = 0;
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cache load: cannot open '%s'\n", path_.c_str());
    return false;
  }

  std::string line;
  std::size_t line_no = 1;
  int version = 0;
  if (!std::getline(in, line)) {
    return load_error(path_, line_no, "not a powersched scenario cache file");
  }
  if (line == kScenarioCacheFormatHeader) {
    version = 2;
  } else if (line == kScenarioCacheFormatHeaderV1) {
    version = 1;
  } else if (line.rfind("powersched-scenario-cache", 0) == 0) {
    return load_error(path_, line_no,
                      "version mismatch: file is '" + line +
                          "', this build reads '" +
                          std::string(kScenarioCacheFormatHeaderV1) +
                          "' or '" + kScenarioCacheFormatHeader +
                          "' — regenerate the cache file");
  } else {
    return load_error(path_, line_no, "not a powersched scenario cache file");
  }

  bool in_entry = false;
  ScenarioSpec spec;
  ScenarioResult result;
  std::size_t core_seen = 0;
  bool aggregate_seen = false;
  // v2 sample blocks, buffered until 'end' so counts can be checked against
  // the accumulator states regardless of line order within the entry.
  int samples_flag = 0;
  std::map<std::string, std::vector<double>> core_samples;
  std::map<std::string, std::vector<double>> metric_samples;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Fields fields(line);
    std::string keyword;
    fields.next(keyword);

    if (!in_entry) {
      if (keyword != "scenario") {
        return load_error(path_, line_no,
                          "expected 'scenario', got '" + keyword + "'");
      }
      spec = ScenarioSpec{};
      result = ScenarioResult{};
      core_seen = 0;
      aggregate_seen = false;
      samples_flag = 0;
      core_samples.clear();
      metric_samples.clear();
      if (!fields.next(spec.solver)) {
        return load_error(path_, line_no, "scenario line missing solver name");
      }
      in_entry = true;
      continue;
    }

    if (keyword == "trials") {
      if (!fields.next_number(spec.trials)) {
        return load_error(path_, line_no, "bad trials line");
      }
    } else if (keyword == "seed") {
      if (!fields.next_number(spec.seed)) {
        return load_error(path_, line_no, "bad seed line");
      }
    } else if (keyword == "param") {
      std::string name;
      double value = 0.0;
      if (!fields.next(name) || !fields.next_number(value)) {
        return load_error(path_, line_no, "bad param line");
      }
      spec.params.set(name, value);
    } else if (keyword == "algo_param") {
      std::string name;
      if (!fields.next(name)) {
        return load_error(path_, line_no, "bad algo_param line");
      }
      spec.algo_params.push_back(name);
    } else if (keyword == "aggregate") {
      if (!fields.next_number(result.trials_run) ||
          !fields.next_number(result.infeasible)) {
        return load_error(path_, line_no, "bad aggregate line");
      }
      if (version >= 2) {
        // v2 requires the 0/1 samples flag as a third field — a v2 header
        // over a v1 body fails here rather than loading half-understood.
        std::size_t flag = 0;
        if (!fields.next_number(flag) || flag > 1 || !fields.done()) {
          return load_error(path_, line_no,
                            "bad aggregate line: v2 requires "
                            "'aggregate <trials> <infeasible> <0|1>'");
        }
        samples_flag = static_cast<int>(flag);
      }
      aggregate_seen = true;
    } else if (version >= 2 &&
               (keyword == "samples" || keyword == "metric_samples")) {
      if (samples_flag != 1) {
        return load_error(path_, line_no,
                          "'" + keyword +
                              "' block in an entry whose aggregate line did "
                              "not declare samples");
      }
      std::string name;
      std::size_t count = 0;
      if (!fields.next(name) || !fields.next_number(count)) {
        return load_error(path_, line_no, "bad " + keyword + " line");
      }
      if (keyword == "samples") {
        bool sampled_core = false;
        for (const char* core_name : kSampledAccumulators) {
          sampled_core = sampled_core || name == core_name;
        }
        if (!sampled_core) {
          return load_error(path_, line_no,
                            "'samples " + name +
                                "' is not a sample-bearing core accumulator");
        }
      }
      // The declared count is untrusted input: parse values one at a time
      // (a short list fails before, not after, a giant allocation) and cap
      // the up-front reserve by what the line could physically hold.
      std::vector<double> values;
      values.reserve(std::min(count, line.size() / 2 + 1));
      for (std::size_t i = 0; i < count; ++i) {
        double value = 0.0;
        if (!fields.next_number(value)) {
          return load_error(path_, line_no,
                            keyword + " '" + name + "': expected " +
                                std::to_string(count) +
                                " values, found a short or malformed list");
        }
        values.push_back(value);
      }
      if (!fields.done()) {
        return load_error(path_, line_no,
                          keyword + " '" + name +
                              "': trailing tokens after the declared " +
                              std::to_string(count) + " values");
      }
      auto& dest = keyword == "samples" ? core_samples : metric_samples;
      if (!dest.emplace(name, std::move(values)).second) {
        return load_error(path_, line_no,
                          "duplicate " + keyword + " '" + name + "'");
      }
    } else if (keyword == "acc") {
      std::string name;
      util::Accumulator::State state;
      if (!fields.next(name) || !parse_accumulator_state(fields, state)) {
        return load_error(path_, line_no, "bad acc line");
      }
      util::Accumulator* acc = core_accumulator(result, name);
      if (acc == nullptr) {
        return load_error(path_, line_no, "unknown accumulator '" + name + "'");
      }
      *acc = util::Accumulator::from_state(state);
      ++core_seen;
    } else if (keyword == "metric") {
      std::string name;
      util::Accumulator::State state;
      if (!fields.next(name) || !parse_accumulator_state(fields, state)) {
        return load_error(path_, line_no, "bad metric line");
      }
      result.metrics.insert_or_assign(name,
                                      util::Accumulator::from_state(state));
    } else if (keyword == "end") {
      if (!aggregate_seen ||
          core_seen != std::size(kCoreAccumulators)) {
        return load_error(path_, line_no, "incomplete scenario entry");
      }
      if (samples_flag == 1) {
        // Rebuild every sample-bearing accumulator with its retained
        // samples, failing closed on any missing block or a retained count
        // exceeding the streaming state. Fewer retained than counted is
        // legal: a --tails-cap reservoir keeps a bounded subset.
        for (const char* name : kSampledAccumulators) {
          util::Accumulator* acc = core_accumulator(result, name);
          const auto it = core_samples.find(name);
          if (it == core_samples.end()) {
            return load_error(path_, line_no,
                              std::string("entry declares samples but has "
                                          "no 'samples ") +
                                  name + "' block");
          }
          if (it->second.size() > acc->count()) {
            return load_error(
                path_, line_no,
                std::string("samples ") + name + ": " +
                    std::to_string(it->second.size()) +
                    " value(s) but the accumulator counted " +
                    std::to_string(acc->count()));
          }
          *acc = util::Accumulator::from_state_and_samples(
              acc->state(), std::move(it->second));
        }
        for (auto& [name, values] : metric_samples) {
          const auto it = result.metrics.find(name);
          if (it == result.metrics.end()) {
            return load_error(path_, line_no,
                              "metric_samples '" + name +
                                  "' has no matching metric line");
          }
          if (values.size() > it->second.count()) {
            return load_error(path_, line_no,
                              "metric_samples " + name + ": " +
                                  std::to_string(values.size()) +
                                  " value(s) but the accumulator counted " +
                                  std::to_string(it->second.count()));
          }
          it->second = util::Accumulator::from_state_and_samples(
              it->second.state(), std::move(values));
        }
        for (const auto& [name, acc] : result.metrics) {
          if (!acc.samples_kept()) {
            return load_error(path_, line_no,
                              "entry declares samples but metric '" + name +
                                  "' has no metric_samples block");
          }
        }
      }
      result.spec = spec;
      // The key is recomputed from the loaded spec, so file content and
      // cache key can never disagree.
      cache.insert(scenario_cache_key(spec),
                   std::make_shared<ScenarioResult>(std::move(result)));
      ++entries_loaded;
      in_entry = false;
    } else {
      return load_error(path_, line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (in_entry) {
    return load_error(path_, line_no, "truncated file: entry missing 'end'");
  }
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    registry.counter("cache.store.load.files").add(1);
    registry.counter("cache.store.load.entries").add(entries_loaded);
    registry.counter("cache.store.load.bytes").add(file_size(path_));
    registry.histogram("cache.store.load.ns").record(watch.ns());
  }
  return true;
}

bool ScenarioCacheStore::save(const ScenarioCache& cache) const {
  const obs::StopWatch watch;
  std::size_t entries_saved = 0;
  // A save that reproduces the file on disk (every warm rerun) leaves it
  // alone, inode and mtime included; any other save replaces it.
  const Status status =
      util::write_file_if_changed(path_, [&](std::FILE* out) {
    std::fprintf(out, "%s\n", kScenarioCacheFormatHeader);
    for (const auto& [key, result] : cache.snapshot()) {
      const ScenarioSpec& spec = result->spec;
      bool names_ok = plain_token(spec.solver);
      for (const auto& [name, value] : spec.params.values()) {
        names_ok = names_ok && plain_token(name);
      }
      for (const auto& name : spec.algo_params) {
        names_ok = names_ok && plain_token(name);
      }
      for (const auto& [name, acc] : result->metrics) {
        names_ok = names_ok && plain_token(name);
      }
      if (!names_ok) {
        std::fprintf(stderr,
                     "cache save: scenario '%s' has a name the line format "
                     "cannot hold (empty or contains whitespace)\n",
                     key.c_str());
        return false;
      }

      std::fprintf(out, "scenario %s\ntrials %d\nseed %" PRIu64 "\n",
                   spec.solver.c_str(), spec.trials, spec.seed);
      for (const auto& [name, value] : spec.params.values()) {
        std::fprintf(out, "param %s", name.c_str());
        put_field(out, value);
        std::fputc('\n', out);
      }
      for (const auto& name : spec.algo_params) {
        std::fprintf(out, "algo_param %s\n", name.c_str());
      }
      const bool with_samples = all_samples_kept(*result);
      std::fprintf(out, "aggregate %zu %zu %d\n", result->trials_run,
                   result->infeasible, with_samples ? 1 : 0);
      const util::Accumulator* const core[] = {
          &result->objective, &result->ratio, &result->cost,
          &result->oracle_calls, &result->wall_ms};
      for (std::size_t i = 0; i < std::size(kCoreAccumulators); ++i) {
        std::fprintf(out, "acc %s ", kCoreAccumulators[i]);
        write_accumulator_state(out, *core[i]);
        std::fputc('\n', out);
      }
      if (with_samples) {
        for (std::size_t i = 0; i < std::size(kSampledAccumulators); ++i) {
          write_samples_line(out, "samples", kSampledAccumulators[i], *core[i]);
        }
      }
      for (const auto& [name, acc] : result->metrics) {
        std::fprintf(out, "metric %s ", name.c_str());
        write_accumulator_state(out, acc);
        std::fputc('\n', out);
      }
      if (with_samples) {
        for (const auto& [name, acc] : result->metrics) {
          write_samples_line(out, "metric_samples", name, acc);
        }
      }
      std::fputs("end\n", out);
      ++entries_saved;
    }
    return true;
  });
  if (!status.ok()) {
    std::fprintf(stderr, "cache save: %s\n", status.message().c_str());
    return false;
  }
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    registry.counter("cache.store.save.files").add(1);
    registry.counter("cache.store.save.entries").add(entries_saved);
    registry.counter("cache.store.save.bytes").add(file_size(path_));
    registry.histogram("cache.store.save.ns").record(watch.ns());
  }
  return true;
}

bool ScenarioCacheStore::merge_into(const std::vector<std::string>& paths,
                                    ScenarioCache& cache) {
  for (const auto& path : paths) {
    if (!file_exists(path)) {
      std::fprintf(stderr, "cache merge: cache file '%s' does not exist\n",
                   path.c_str());
      return false;
    }
    if (!ScenarioCacheStore(path).load(cache)) return false;
  }
  return true;
}

bool setup_file_cache(const std::string& cache_file,
                      const std::vector<std::string>& merge_files,
                      ScenarioCache& cache, SweepOptions& sweep_options) {
  if (cache_file.empty() && merge_files.empty()) return true;
  sweep_options.use_cache = true;
  sweep_options.cache = &cache;
  if (!merge_files.empty() &&
      !ScenarioCacheStore::merge_into(merge_files, cache)) {
    return false;
  }
  if (!cache_file.empty() && !ScenarioCacheStore(cache_file).load(cache)) {
    return false;
  }
  return true;
}

}  // namespace ps::engine
