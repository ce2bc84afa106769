// hot_cell_queries: closed-loop clients send the BEES device's real
// message, an encoded kBatchQuery of 4-40 feature sets, to a 4-shard
// serve::Cluster recovered from a prepared data directory.  The indexed
// images are wl::make_paris_like: heavy-tailed geotags put most of them in
// one hot cell, so one shard carries most of the candidates.  The gate
// runs at batch_window 1, where Cluster::route_request answers each
// kBatchQuery with a serial query_binary loop.  No device layer runs.
//
// prepare writes the data directory (a checkpoint covering most images
// plus a WAL tail), the requests, the replies of a serial cloud::Server
// fed the same images (the reference), and which stored image each query
// view was taken from.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cloud/rpc.hpp"
#include "cloud/server.hpp"
#include "common.hpp"
#include "index/serialize.hpp"
#include "inputs.hpp"
#include "net/protocol.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bees;

constexpr int kImages = 2000;
constexpr int kLocations = 40;
constexpr int kWidth = 96;
constexpr int kHeight = 72;
/// Images stored after the checkpoint: recovery replays them from the WAL.
constexpr int kWalTail = 400;
constexpr int kQueryViews = 400;
constexpr int kRequests = 128;
constexpr int kShards = 4;
constexpr int kServerThreads = 4;
constexpr int kClients = 4;
/// Share of query views whose best match shows the source image's scene.
constexpr double kSceneRecallFloor = 0.9;
/// The query views cannot be asked to rank their own source first:
/// wl::make_near_duplicate re-renders the scene under a fresh mild
/// perturbation instead of perturbing the source's view, so a view is no
/// closer to its source than to the other stored views of that scene
/// (source-first recall measured 4-7 % on seeds 1-8).  Source-level
/// ranking is checked on stored images instead: a kBatchQuery of stored
/// images' own features must rank each image first (measured 1.0 on
/// seeds 1-4).
constexpr int kSelfProbes = 64;
constexpr double kSelfRecallFloor = 0.95;
/// Throughput is the median over slices of the measured window.
constexpr double kSliceSeconds = 0.5;

serve::ClusterOptions cluster_options(const std::string& dir) {
  serve::ClusterOptions o;
  o.shards = kShards;
  o.threads = kServerThreads;
  o.batch_window = 1;
  o.data_dir = dir + "/data";
  return o;
}

cloud::StoreInfo store_info(const wl::ImageSpec& spec) {
  return {50'000.0, spec.geo, 11'000.0};
}

}  // namespace

void prepare_hot_cell_queries(const Args& args) {
  const wl::Imageset set = wl::make_paris_like(
      kImages, kLocations, wl::GeoBox{}, kWidth, kHeight, args.seed);
  const std::vector<feat::BinaryFeatures> features = extract_all(set.images);

  util::Rng rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<wl::ImageSpec> views;
  std::vector<std::uint32_t> view_source;
  for (int v = 0; v < kQueryViews; ++v) {
    const auto j = static_cast<std::uint32_t>(rng.uniform_int(0, kImages - 1));
    views.push_back(wl::make_near_duplicate(set.images[j], rng.next_u64()));
    view_source.push_back(j);
  }
  const std::vector<feat::BinaryFeatures> pool = extract_all(views);
  const BatchQueries queries =
      make_batch_queries(pool, kRequests, args.seed * 31 + 7);

  std::filesystem::create_directories(args.dir + "/data");
  idx::FeatureIndexParams serial;
  serial.rescore_threads = 1;
  cloud::Server reference(serial);
  {
    serve::ClusterOptions o = cluster_options(args.dir);
    o.threads = 1;
    serve::Cluster cluster(o);
    for (int i = 0; i < kImages; ++i) {
      if (i == kImages - kWalTail) cluster.checkpoint();
      const auto& spec = set.images[static_cast<std::size_t>(i)];
      cluster.store_binary(features[static_cast<std::size_t>(i)],
                           store_info(spec));
      reference.store_binary(features[static_cast<std::size_t>(i)],
                             store_info(spec));
    }
  }
  std::vector<Blob> replies, sources;
  for (int r = 0; r < kRequests; ++r) {
    replies.push_back(cloud::dispatch(reference, queries.requests[r]));
    std::vector<std::uint32_t> groups;
    for (const std::uint32_t v : queries.sources[r]) {
      groups.push_back(
          static_cast<std::uint32_t>(set.images[view_source[v]].group));
    }
    sources.push_back(pack_u32(groups));
  }
  // Scene of every stored image, by global id (== store order).
  std::vector<std::uint32_t> group_of;
  for (const auto& spec : set.images) {
    group_of.push_back(static_cast<std::uint32_t>(spec.group));
  }
  sources.push_back(pack_u32(group_of));
  write_blobs(args.dir + "/requests.bin", queries.requests);
  write_blobs(args.dir + "/reference.bin", replies);
  write_blobs(args.dir + "/sources.bin", sources);
  // Self-retrieval probes: stored images queried with their own features.
  std::vector<std::uint32_t> probe_ids;
  std::vector<const feat::BinaryFeatures*> probe_sets;
  std::vector<double> probe_bytes;
  for (int p = 0; p < kSelfProbes; ++p) {
    const auto j = static_cast<std::uint32_t>(rng.uniform_int(0, kImages - 1));
    probe_ids.push_back(j);
    probe_sets.push_back(&features[j]);
    probe_bytes.push_back(
        static_cast<double>(idx::serialize_binary(features[j]).size()));
  }
  write_blobs(args.dir + "/self_probes.bin",
              {net::encode_batch_query(probe_sets, probe_bytes,
                                       idx::kDefaultTopK),
               pack_u32(probe_ids)});
}

Result run_hot_cell_queries(const Args& args) {
  Result result;
  // Set-up is the program's: the requests are read after the cluster is
  // ready, so their size does not count as set-up time.
  const auto recovery_start = Clock::now();
  serve::Cluster cluster(cluster_options(args.dir));
  const double recovery_s = seconds_since(recovery_start);
  const double setup_s = seconds_since(process_start());
  const std::vector<Blob> requests = read_blobs(args.dir + "/requests.bin");
  std::vector<Blob> reference = read_blobs(args.dir + "/reference.bin");
  const std::vector<Blob> sources = read_blobs(args.dir + "/sources.bin");
  const std::vector<Blob> self_probes =
      read_blobs(args.dir + "/self_probes.bin");
  if (requests.size() != kRequests || reference.size() != kRequests ||
      sources.size() != kRequests + 1 || self_probes.size() != 2) {
    throw std::runtime_error("hot_cell_queries: prepared inputs incomplete");
  }
  std::vector<std::size_t> sets(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    sets[r] = unpack_u32(sources[r]).size();
  }
  if (args.inject == "flip_reply") reference[0][reference[0].size() / 2] ^= 1;

  struct Sample {
    double done_s;
    double latency_ms;
    std::size_t sets;
  };
  std::vector<std::vector<Sample>> samples(kClients);
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::uint64_t first_pass_failed = 0;
  // The first pass over the requests warms the recovered index up and is
  // not timed; every reply is checked.
  std::vector<Blob> first_reply(requests.size());
  auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::uint64_t r = next.fetch_add(1); r < requests.size();
           r = next.fetch_add(1)) {
        first_reply[r] = cluster.handle(requests[r]);
      }
    });
  }
  for (auto& t : clients) t.join();
  clients.clear();
  next = 0;
  start = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (seconds_since(start) < args.seconds) {
        const std::uint64_t i = next.fetch_add(1);
        const std::size_t r = i % requests.size();
        const auto t0 = Clock::now();
        Blob reply;
        {
          Tracer::Scope span(tracer(), "serve.handle", 0, i + 1,
                             static_cast<std::uint32_t>(c));
          reply = cluster.handle(requests[r]);
        }
        const auto t1 = Clock::now();
        if (reply != reference[r]) mismatches.fetch_add(1);
        samples[static_cast<std::size_t>(c)].push_back(
            {seconds_between(start, t1), seconds_between(t0, t1) * 1000.0,
             sets[r]});
      }
    });
  }
  for (auto& t : clients) t.join();
  const double window_s = seconds_since(start);

  std::vector<double> latencies_ms;
  const auto slices = static_cast<std::size_t>(window_s / kSliceSeconds);
  std::vector<double> slice_sets(std::max<std::size_t>(slices, 1), 0.0);
  for (const auto& per_client : samples) {
    for (const Sample& s : per_client) {
      latencies_ms.push_back(s.latency_ms);
      const auto k = static_cast<std::size_t>(s.done_s / kSliceSeconds);
      if (k < slice_sets.size()) slice_sets[k] += static_cast<double>(s.sets);
    }
  }
  result.attempted = latencies_ms.size() + requests.size();

  // --- checks ---
  result.check(mismatches.load() == 0,
               std::to_string(mismatches.load()) +
                   " replies differ from the serial cloud::Server's");
  const std::vector<std::uint32_t> group_of = unpack_u32(sources.back());
  std::size_t scene_hits = 0, total = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    if (first_reply[r] != reference[r]) {
      ++first_pass_failed;
      result.fail("reply to request " + std::to_string(r) +
                  " differs from the serial cloud::Server's");
    }
    try {
      const net::Envelope env = net::open_envelope(first_reply[r]);
      if (env.type != net::MessageType::kBatchQueryResponse) {
        result.fail("request " + std::to_string(r) + " answered with an error");
        continue;
      }
      const auto verdicts =
          net::decode_batch_query_response(env.payload).verdicts;
      const std::vector<std::uint32_t> src = unpack_u32(sources[r]);
      result.check(verdicts.size() == src.size(), "verdict count mismatch");
      for (std::size_t i = 0; i < std::min(verdicts.size(), src.size()); ++i) {
        const idx::ImageId best = verdicts[i].best_id;
        scene_hits += best < group_of.size() && group_of[best] == src[i];
        ++total;
      }
    } catch (const std::exception& e) {
      result.fail("reply to request " + std::to_string(r) +
                  " does not decode: " + e.what());
    }
  }
  result.failed = mismatches.load() + first_pass_failed;
  const double scene_recall =
      total ? static_cast<double>(scene_hits) / total : 0.0;
  double self_recall = 0.0;
  try {
    const std::vector<std::uint32_t> ids = unpack_u32(self_probes[1]);
    const auto verdicts = net::decode_batch_query_response(
                              net::open_envelope(cluster.handle(self_probes[0]))
                                  .payload)
                              .verdicts;
    std::size_t self_hits = 0;
    for (std::size_t i = 0; i < std::min(verdicts.size(), ids.size()); ++i) {
      self_hits += verdicts[i].best_id == ids[i];
    }
    self_recall = static_cast<double>(self_hits) / ids.size();
  } catch (const std::exception& e) {
    result.fail(std::string("self-retrieval probe failed: ") + e.what());
  }
  result.check(scene_recall >= kSceneRecallFloor,
               "query views find their source's scene at recall " +
                   std::to_string(scene_recall));
  result.check(self_recall >= kSelfRecallFloor,
               "stored images rank themselves first at recall " +
                   std::to_string(self_recall));
  result.check(cluster.shed_count() == 0, "requests were shed");

  double request_bytes = 0.0, request_sets = 0.0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    request_bytes += static_cast<double>(requests[r].size());
    request_sets += static_cast<double>(sets[r]);
  }
  const double bytes_per_image = request_bytes / request_sets;
  add_end_to_end(result, quantile(slice_sets, 0.5) / kSliceSeconds,
                 latencies_ms, setup_s, bytes_per_image,
                 modelled_tx_joules(bytes_per_image));

  if (tracer().enabled()) {
    // The serial per-item loop behind a kBatchQuery at batch_window 1
    // against the batched fan-out, on the same feature sets, one at a time.
    Tracer& t = tracer();
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const net::BatchQueryRequest decoded = net::decode_batch_query(
          net::open_envelope(requests[r]).payload);
      std::vector<serve::BinaryBatchItem> items;
      for (std::size_t i = 0; i < decoded.features.size(); ++i) {
        serve::BinaryBatchItem item;
        item.features = &decoded.features[i];
        item.feature_bytes = decoded.feature_bytes[i];
        item.options.top_k = decoded.top_k;
        items.push_back(item);
      }
      Blob reply;
      {
        Tracer::Scope s(t, "serve.batch_query_handle", 0, r + 1);
        reply = cluster.handle(requests[r]);
      }
      std::vector<idx::QueryResult> batched;
      {
        Tracer::Scope s(t, "serve.query_binary_batch", 0, r + 1);
        batched = cluster.query_binary_batch(items);
      }
      const auto verdicts = net::decode_batch_query_response(
                                net::open_envelope(reply).payload)
                                .verdicts;
      for (std::size_t i = 0; i < batched.size(); ++i) {
        result.check(verdicts[i].best_id == batched[i].best_id &&
                         verdicts[i].max_similarity ==
                             batched[i].max_similarity,
                     "query_binary_batch disagrees with handle");
      }
    }
    const ObsSnapshot snap;
    const double examined = snap.counter("feat.match.lanes_examined");
    set_per_layer(
        result,
        {
            {"features.match_lanes_pruned_ratio",
             examined > 0 ? snap.counter("feat.match.lanes_pruned") / examined
                          : 0.0},
            {"index.candidates_per_query",
             snap.mean("serve.query.binary.candidates")},
            {"index.rescore_ms",
             snap.mean("cloud.query.rescore.seconds") * 1000.0},
            {"serve.handle_ms", t.mean_ms("serve.handle")},
            {"serve.query_binary_ms",
             snap.mean("serve.query.binary.seconds") * 1000.0},
            {"serve.batch_query_handle_ms",
             t.mean_ms("serve.batch_query_handle")},
            {"serve.query_binary_batch_ms",
             t.mean_ms("serve.query_binary_batch")},
            {"serve.recovery_replayed",
             snap.counter("serve.recovery.replayed")},
            {"serve.recovery_s", recovery_s},
        });
  }
  return result;
}

}  // namespace perfbench
