// perfbench — the repository benchmark.
//
//   perfbench --workload study|tap|daemon --seed N --seconds S --trace 0|1
//             [--paced-rate R] [--study-threads T] [--scratch DIR]
//
// Untraced (--trace 0) runs print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and write their spans to
// <scratch>/traces/<workload>-<seed>.csv. The last stdout line is the result
// object; the exit code is 0 only when every correctness gate held.
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) {
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload study|tap|daemon --seed N "
                 "--seconds S --trace 0|1 [--paced-rate R] "
                 "[--study-threads T] [--scratch DIR]\n";
    return 2;
  }
  bool (*workload)(const Args&, Tracer*, Outcome&) = nullptr;
  if (args.workload == "study") workload = run_study;
  if (args.workload == "tap") workload = run_tap;
  if (args.workload == "daemon") workload = run_daemon;
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  std::filesystem::create_directories(args.scratch);

  Tracer tracer;
  Outcome outcome;
  bool ran = false;
  try {
    ran = workload(args, args.trace ? &tracer : nullptr, outcome);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " threw: " << e.what()
              << "\n";
  }
  if (!ran) return 1;
  if (args.trace) {
    const std::string dir = args.scratch + "/traces";
    std::filesystem::create_directories(dir);
    const std::string path =
        dir + "/" + args.workload + "-" + std::to_string(args.seed) + ".csv";
    if (tracer.write_csv(path)) info("trace.file", path);
    info("trace.spans", static_cast<double>(tracer.spans().size()));
  }
  if (!print_result(outcome, args.trace ? per_layer_metrics()
                                        : end_to_end_metrics())) {
    return 1;
  }
  return outcome.correct ? 0 : 1;
}
