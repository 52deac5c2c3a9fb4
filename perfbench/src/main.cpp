/// \file main.cpp
/// Entry point of the repository benchmark (see ../README.md):
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--socket PATH] [--source-id ID] [--corrupt history|reply]
///
/// Prints one context line and then, as the last line of standard output,
/// the result object {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "nn/backend.hpp"
#include "util/parallel.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--socket PATH] [--source-id ID] [--corrupt history|reply]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (arg == "--socket") {
        o.socket = value;
      } else if (arg == "--source-id") {
        o.source_id = value;
      } else if (arg == "--corrupt") {
        o.corrupt = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (!o.corrupt.empty() && o.corrupt != "history" && o.corrupt != "reply")
    usage("--corrupt takes history or reply");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  const bool serve = options.workload == "serve_mlp_mixed";

  // One partition width for every workload, pinned before anything is
  // constructed (DlPicSimulation ignores SimulationConfig::nthreads).
  const size_t width = perfbench::kPinnedWidth;
  dlpic::util::set_max_workers(width);

  perfbench::Report report(options.trace);
  report.context("workload", options.workload);
  report.context("seed", static_cast<double>(options.seed));
  report.context("seconds", options.seconds);
  report.context("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.context("width", static_cast<double>(width));
  report.context("kernel_backend", dlpic::nn::active_backend().name());
  report.context("llc_mb", perfbench::llc_mb());
  report.context("source", options.source_id);
  report.context("build_type", PERFBENCH_BUILD_TYPE);
  try {
    if (serve)
      perfbench::run_serve_workload(options, report);
    else
      perfbench::run_simulation_workload(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return 0;
}
