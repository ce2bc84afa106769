// Shared plumbing of the benchmark program: run arguments, the result a
// workload hands back (operations attempted/failed, correctness problems,
// metrics), order statistics, peak memory, and the in-memory span recorder
// behind the traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run working directory (prepared inputs, data directories, trace).
  std::string dir;
  /// Deliberate fault for the checks' self-test; empty in real runs.
  std::string inject;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `end_to_end` is printed by untraced
/// runs, `per_layer` by traced ones.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  /// Records a failed correctness check (the run then reports
  /// "correct": false and the message goes to stderr).
  void fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

using Clock = std::chrono::steady_clock;

/// The instant the process started (first static initializer).
Clock::time_point process_start();

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// The end-to-end metric set every workload reports, in BENCHMARK.json
/// order.  `latencies_ms` are the per-operation samples behind p50/p99.
void add_end_to_end(Result& result, double ops_per_s,
                    const std::vector<double>& latencies_ms, double setup_s,
                    double uplink_bytes_per_image,
                    double device_joules_per_image);

/// The per-layer metric names, in BENCHMARK.json order, with their units.
/// A traced run prints every one of them; layers a workload does not
/// drive read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

/// Fills `result.per_layer` from `values` (name -> value), defaulting the
/// layers the workload does not drive to 0.
void set_per_layer(Result& result,
                   const std::vector<std::pair<std::string, double>>& values);

/// The program's obs registry as of construction (traced runs switch it
/// on): a counter's total and a histogram's mean, 0 when never recorded.
class ObsSnapshot {
 public:
  ObsSnapshot();
  double counter(const char* name) const;
  double mean(const char* name) const;

 private:
  bees::obs::MetricsSnapshot snap_;
};

/// In-memory span recorder for traced runs.  A span has a name, start,
/// end, parent span and request id; spans are written out as a Chrome
/// trace when the run ends.  Inert (records nothing) when disabled.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::uint32_t lane = 0;
  };

  /// RAII span: starts at construction, recorded at destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t parent = 0,
          std::uint64_t request = 0, std::uint32_t lane = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const noexcept { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  bool enabled() const noexcept { return enabled_; }
  /// Switches recording on; call before any span is opened.
  void enable() noexcept { enabled_ = true; }

  /// Total and count of the recorded spans called `name`.
  double total_ms(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Mean span duration of `name` in ms (0 when none was recorded).
  double mean_ms(const std::string& name) const;

  /// Writes every span as a Chrome trace (JSON array of "X" events).
  void write_chrome_trace(const std::string& path) const;

 private:
  void record(const Span& span);

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Global tracer of this run (enabled by --trace 1).
Tracer& tracer();

}  // namespace perfbench
