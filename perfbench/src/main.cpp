// The repository benchmark: one workload per invocation.
//
//   perfbench --workload <draw_gnp256|draw_lollipop64|serve_tcp_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the timed workload; --trace 1 runs the traced variant. The
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}, where "metrics" maps each metric the run measured to its value.
// Any failed correctness check makes the exit code nonzero.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "linalg/parallel.hpp"

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<draw_gnp256|draw_lollipop64|serve_tcp_mix> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.seconds < 1 || args.seconds > 600) usage("--seconds must be in [1, 600]");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Result result;
  const double ref_before = perfbench::machine_ref_ms();
  try {
    if (args.workload == "draw_gnp256" || args.workload == "draw_lollipop64") {
      result = perfbench::run_draw(args);
    } else if (args.workload == "serve_tcp_mix") {
      result = perfbench::run_serve(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  const double ref_after = perfbench::machine_ref_ms();
  result.set("machine.ref_ms", 0.5 * (ref_before + ref_after));
  result.set("linalg.matmul_threads", cliquest::linalg::matmul_threads());

  std::printf("workload %s, seed %llu, seconds %d, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("machine.ref_ms before %.3f, after %.3f\n", ref_before, ref_after);
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());

  // Only measured metrics are printed, by name; run.py checks them against
  // BENCHMARK.json, which carries the units, and completes the result line.
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  const char* separator = "";
  for (const auto& [name, value] : result.values) {
    std::printf("%s\"%s\": %.17g", separator, name.c_str(), value);
    separator = ", ";
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
