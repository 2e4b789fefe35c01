// perfbench — the repository benchmark's harness. perfbench/run.py builds
// it and invokes it as
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR [--commit REV]
//
// It prints a report line, then, as its last stdout line, the result
// object {"correct","attempted","failed","metrics"}. The exit code is 0
// only when every job was answered correctly.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "mkp-scalar|qkp-bitslice|serve-open|fleet-open --seed N "
               "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR "
               "[--commit REV]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (!end || *end != '\0' || !(options.seconds > 0)) {
        usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--bin-dir") {
      options.bin_dir = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (options.bin_dir.empty() || options.work_dir.empty()) {
    usage("--bin-dir and --work-dir are required");
  }

  try {
    const bool served = options.workload == "serve-open" ||
                        options.workload == "fleet-open";
    if (!served && options.workload != "mkp-scalar" &&
        options.workload != "qkp-bitslice") {
      usage(("unknown workload " + options.workload).c_str());
    }
    perfbench::Outcome outcome =
        served ? perfbench::run_served_workload(options)
               : perfbench::run_solve_workload(options);
    perfbench::finalize_metrics(outcome, options.trace);
    perfbench::print_outcome(options, outcome);
    return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
