// bees_perfbench: runs one benchmark workload against the BEES libraries
// and prints its result as one JSON line (the last line of stdout).
//
//   bees_perfbench prepare --workload W --seed N --seconds S --dir D
//   bees_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                      [--inject FAULT]
//
// `prepare` builds the inputs a workload needs on disk (data directories,
// encoded requests, reference replies) in a process of its own, so the
// measuring process's set-up time covers only what the program itself
// does: loading and recovering.  perfbench/run.py drives both steps.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Result;

int usage() {
  std::cerr << "usage: bees_perfbench prepare|run --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] --dir DIR [--inject FAULT]\n";
  return 2;
}

void print_result(const Result& result, bool trace) {
  for (const std::string& p : result.problems) {
    std::cerr << "INCORRECT: " << p << "\n";
  }
  const auto& metrics = trace ? result.per_layer : result.end_to_end;
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace

namespace perfbench {

const Workload* find_workload(const std::string& name) {
  static const Workload workloads[] = {
      {"device_batches", nullptr, run_device_batches},
      {"hot_cell_queries", prepare_hot_cell_queries, run_hot_cell_queries},
      {"ingest_mix", prepare_ingest_mix, run_ingest_mix},
      {"fleet_disaster", nullptr, run_fleet_disaster},
  };
  for (const Workload& w : workloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Args args;
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--dir") {
        args.dir = value;
      } else if (key == "--inject") {
        args.inject = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {  // a malformed number
    return usage();
  }
  if (args.workload.empty() || args.dir.empty() || args.seconds <= 0) {
    return usage();
  }
  const perfbench::Workload* workload = perfbench::find_workload(args.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  try {
    if (mode == "prepare") {
      if (workload->prepare) workload->prepare(args);
      return 0;
    }
    if (mode != "run") return usage();
    if (args.trace) {
      // Traced runs switch on the program's own counters and timers too;
      // untraced runs keep them off (the registry takes a global mutex per
      // event, which would perturb the timings measured).
      bees::obs::set_enabled(true);
      perfbench::tracer().enable();
    }
    Result result = workload->run(args);
    if (args.trace) {
      perfbench::tracer().write_chrome_trace(args.dir + "/trace.json");
      // The end-to-end figures of a traced run go to stderr only: their
      // difference from an untraced run is the tracing overhead.
      for (const Metric& m : result.end_to_end) {
        std::cerr << "traced " << m.name << " " << m.value << " " << m.unit
                  << "\n";
      }
    }
    print_result(result, args.trace);
  } catch (const std::exception& e) {
    std::cerr << "bees_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
