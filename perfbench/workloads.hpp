// The benchmark's workloads.  Each takes its inputs only from the seed in
// Args (and, where it has a prepare step, from what that step wrote under
// Args::dir), runs for Args::seconds of measured time, checks the
// program's outputs, and returns the metrics.
#pragma once

#include "common.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  /// Builds on-disk inputs under args.dir; null when none are needed.
  void (*prepare)(const Args& args);
  Result (*run)(const Args& args);
};

/// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);

Result run_device_batches(const Args& args);
void prepare_hot_cell_queries(const Args& args);
Result run_hot_cell_queries(const Args& args);
void prepare_ingest_mix(const Args& args);
Result run_ingest_mix(const Args& args);
Result run_fleet_disaster(const Args& args);

}  // namespace perfbench
