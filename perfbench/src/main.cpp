// drms_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Host-performance benchmark of the DRMS checkpoint/restart stack (see
// perfbench/README.md). Prints provenance and one line per metric, then
// the result as one JSON object on the last line of stdout. Exit status
// is nonzero on any failed or mismatched operation.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "drms_perf: " << problem
            << "\nusage: drms_perf --workload full_reconfig|delta_chain|"
               "supervised_recovery --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Stamp process_start = perfbench::Stamp::now();
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed) {
    usage("--seed <unsigned integer> is required");
  }

  std::cout << "# workload " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace << "\n"
            << "# host nproc " << perfbench::online_cpus() << " cpu "
            << cpu_model() << "\n"
            << "# compiler g++ " << __VERSION__ << " build "
            << DRMS_PERF_BUILD_TYPE << " (" << DRMS_PERF_CXX_FLAGS << ")\n";

  if (args.workload == "full_reconfig") {
    return perfbench::run_full_reconfig(args, process_start);
  }
  if (args.workload == "delta_chain") {
    return perfbench::run_delta_chain(args, process_start);
  }
  if (args.workload == "supervised_recovery") {
    return perfbench::run_supervised_recovery(args, process_start);
  }
  usage("unknown workload '" + args.workload + "'");
}
