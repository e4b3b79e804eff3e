// fgp_perfbench — the repository's benchmark harness (run it through
// perfbench/run.py, which builds it first).
//
// Usage: fgp_perfbench --workload fig-sweep|service-stream|stream-pass
//                      --seed N --seconds S --trace 0|1 --scratch DIR
//
// Every input is generated from --seed inside the harness; the library
// code under test only ever sees those generated inputs.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fgp_perfbench: " << why
            << "\nusage: fgp_perfbench --workload "
               "fig-sweep|service-stream|stream-pass --seed N --seconds S "
               "--trace 0|1 --scratch DIR\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgp::perfbench;
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--scratch") {
        opt.scratch = value;
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.scratch.empty()) usage("--scratch is required");

  void (*workload)(const Options&, Report&) = nullptr;
  if (opt.workload == "fig-sweep") workload = run_fig_sweep;
  if (opt.workload == "service-stream") workload = run_service_stream;
  if (opt.workload == "stream-pass") workload = run_stream_pass;
  if (workload == nullptr) usage("unknown workload '" + opt.workload + "'");

  std::filesystem::create_directories(opt.scratch);
  int code = 2;
  try {
    Report report(opt.trace);
    report.info("workload", opt.workload);
    report.info("seed", std::to_string(opt.seed));
    workload(opt, report);
    code = report.print();
  } catch (const std::exception& e) {
    std::cerr << "fgp_perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.scratch, ec);
  return code;
}
