#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
Tracer g_tracer;
}  // namespace

Clock::time_point process_start() { return g_process_start; }

Tracer& tracer() { return g_tracer; }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void add_end_to_end(Result& result, double ops_per_s,
                    const std::vector<double>& latencies_ms, double setup_s,
                    double uplink_bytes_per_image,
                    double device_joules_per_image) {
  result.end_to_end = {
      {"ops_per_s", ops_per_s, "1/s"},
      {"p50_ms", quantile(latencies_ms, 0.50), "ms"},
      {"p99_ms", quantile(latencies_ms, 0.99), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"uplink_bytes_per_image", uplink_bytes_per_image, "bytes"},
      {"device_joules_per_image", device_joules_per_image, "J"},
  };
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      // device_batches (stage replay, obs counters, batch reports)
      {"features.orb_ms_per_image", "ms"},
      {"features.keypoints_per_image", "count"},
      {"features.match_lanes_pruned_ratio", "ratio"},
      {"submodular.graph_ms_per_batch", "ms"},
      {"submodular.ssmm_ms_per_batch", "ms"},
      {"imaging.encode_ms_per_image", "ms"},
      {"imaging.bytes_per_upload", "bytes"},
      {"cloud.query_ms", "ms"},
      {"cloud.candidates_per_query", "count"},
      {"net.chunks_sent", "count"},
      {"net.chunks_deduped", "count"},
      // hot_cell_queries (spans, obs counters and timers)
      {"index.candidates_per_query", "count"},
      {"index.rescore_ms", "ms"},
      {"serve.handle_ms", "ms"},
      {"serve.query_binary_ms", "ms"},
      {"serve.batch_query_handle_ms", "ms"},
      {"serve.query_binary_batch_ms", "ms"},
      // ingest_mix (spans, obs counters, store stats, sender lateness)
      {"serve.store_ms", "ms"},
      {"serve.queue_depth_max", "count"},
      {"serve.checkpoints", "count"},
      {"store.chunk_writes", "count"},
      {"store.dedup_hits", "count"},
      {"store.cache_hit_ratio", "ratio"},
      {"store.compaction_moved_bytes", "bytes"},
      {"serve.recovery_replayed", "count"},
      {"serve.recovery_s", "s"},
      {"ingest.query_p50_ms", "ms"},
      {"ingest.query_p99_ms", "ms"},
      {"ingest.uploads_per_batch", "count"},
      {"loadgen.lateness_p99_ms", "ms"},
      // fleet_disaster (the fleet report and wall clocks)
      {"replica.ship_records", "count"},
      {"replica.ship_bytes", "bytes"},
      {"serve.batch_size_p50", "count"},
      {"relay.dedup_saved_ratio", "ratio"},
      {"sched.scans_delivered", "count"},
      {"fleet.serve_wall_s", "s"},
      {"fleet.device_wall_s", "s"},
  };
  return names;
}

void set_per_layer(Result& result,
                   const std::vector<std::pair<std::string, double>>& values) {
  std::map<std::string, double> given(values.begin(), values.end());
  result.per_layer.clear();
  for (const auto& [name, unit] : per_layer_names()) {
    const auto it = given.find(name);
    result.per_layer.push_back(
        {name, it == given.end() ? 0.0 : it->second, unit});
    if (it != given.end()) given.erase(it);
  }
  for (const auto& [name, value] : given) {
    result.fail("per-layer metric not declared: " + name);
  }
}

ObsSnapshot::ObsSnapshot()
    : snap_(bees::obs::MetricsRegistry::global().snapshot()) {}

double ObsSnapshot::counter(const char* name) const {
  const auto it = snap_.counters.find(name);
  return it == snap_.counters.end() ? 0.0 : it->second;
}

double ObsSnapshot::mean(const char* name) const {
  const auto it = snap_.histograms.find(name);
  return it == snap_.histograms.end() ? 0.0 : it->second.mean();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t parent,
                     std::uint64_t request, std::uint32_t lane)
    : tracer_(&tracer) {
  if (!tracer.enabled()) return;
  {
    std::lock_guard<std::mutex> lock(tracer.mutex_);
    span_.id = tracer.next_id_++;
  }
  span_.name = name;
  span_.parent = parent;
  span_.request = request;
  span_.lane = lane;
  span_.start_us = seconds_since(process_start()) * 1e6;
}

Tracer::Scope::~Scope() {
  if (span_.id == 0) return;
  span_.end_us = seconds_since(process_start()) * 1e6;
  tracer_->record(span_);
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

double Tracer::total_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += (s.end_us - s.start_us) / 1000.0;
  }
  return total;
}

std::size_t Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Span& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

double Tracer::mean_ms(const std::string& name) const {
  const std::size_t n = count(name);
  return n ? total_ms(name) / static_cast<double>(n) : 0.0;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fputs("{\"traceEvents\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.lane, s.start_us,
                 s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", out);
  std::fclose(out);
}

}  // namespace perfbench
