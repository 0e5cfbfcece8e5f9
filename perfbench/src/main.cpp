// perfbench — the powersched benchmark binary.
//
//   perfbench --workload <catalogue|serve_mix|dispatch_tails>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --describe
//
// Run from the repository root (dispatch fingerprints ./src). The last line
// of standard output is the JSON result; --describe prints the declared
// workload/metric table instead (the self-tests compare it with
// BENCHMARK.json).
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 | --describe\n";
  return 2;
}

/// One line per metric each workload prints: "<workload> <kind> <name>
/// <unit>".
void describe() {
  for (const auto& spec : perfbench::workload_specs()) {
    for (const auto& metric : perfbench::end_to_end_metrics()) {
      std::cout << spec.name << " end_to_end " << metric.name << " "
                << metric.unit << "\n";
    }
    for (const auto& metric : perfbench::per_layer_metrics()) {
      std::cout << spec.name << " per_layer " << metric.name << " "
                << metric.unit << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      describe();
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace (0|1) "
                 "are all required");
  }
  return perfbench::run_workload(args);
}
