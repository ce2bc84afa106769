// device_batches: the phone's pipeline.  core::BeesScheme::upload_batch runs
// on 40-image disaster-like batches at 320x240, two batches per battery
// level (100/50/20%) per round, so the EAC/EDR/EAU knobs change the work
// per image.  Each batch carries in-batch similar views and 25% cross-batch
// redundancy planted in the server with core::seed_cross_batch_redundancy.
// Uploads are chunked into a memory-backed segment store attached to a
// serial cloud::Server.  Single thread.
//
// Every round repeats the same six batches against a fresh server, so
// each round is the same work and each batch's best time over the rounds
// is its cost with host interference filtered out.  Rendering (and the
// planted duplicates' features) happen before the timed call on a fresh
// wl::ImageStore whose pixel cache holds the whole batch plus its
// duplicates, and no ORB feature or encoded payload is cached before
// upload_batch runs.
//
// The traced run also replays each batch's stages on a fresh store,
// from outside: extract_orb on the EAC bitmap, cloud::dispatch of the
// kBatchQuery, the IBRD graph, SSMM and the AIU encode.  The replay must
// select exactly what BeesScheme::last_trace() reported.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/rpc.hpp"
#include "cloud/server.hpp"
#include "common.hpp"
#include "core/bees.hpp"
#include "core/simulation.hpp"
#include "energy/adaptive.hpp"
#include "features/orb.hpp"
#include "imaging/codec.hpp"
#include "imaging/quality.hpp"
#include "imaging/transform.hpp"
#include "index/serialize.hpp"
#include "net/protocol.hpp"
#include "store/segment_store.hpp"
#include "submodular/graph.hpp"
#include "submodular/ssmm.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bees;

constexpr int kBatchImages = 40;
constexpr int kSimilarInBatch = 8;      // extra views of earlier batch images
constexpr double kCrossBatchRatio = 0.25;
constexpr int kWidth = 320;
constexpr int kHeight = 240;
constexpr double kBatteryLevels[] = {1.0, 0.5, 0.2};
/// Decoded uploads must keep at least this PSNR against the pixels that
/// were encoded.  The AIU's 0.85 quality proportion is aggressive: the v1
/// codec lands at 19-28 dB on these scenes; a broken decode lands far below.
constexpr double kPsnrFloorDb = 17.0;
/// Distinct batches of a round (two per battery level).  Every round
/// repeats them against a fresh server, so each batch is timed at least
/// three times and its best time filters out bursts of host interference.
constexpr std::size_t kRoundBatches = 6;
constexpr std::size_t kMinRounds = 3;
/// Maps codec bytes onto the paper's ~700 KB average image (§IV-A): the v1
/// codec's as-shot payloads of these scenes average ~23.7 KB.  Fixed (not
/// calibrated per run) so a codec change moves the modelled bytes.
constexpr double kImageByteScale = 30.0;

struct Batch {
  std::vector<wl::ImageSpec> images;
  double battery = 1.0;
  std::uint64_t plant_seed = 0;
};

/// Batch `k` of the run: its own disaster-like imageset, at battery level
/// k mod 3.
Batch make_batch(std::uint64_t seed, std::size_t k) {
  const std::uint64_t s = seed * 1000003ULL + k * 7919ULL + 17;
  Batch batch;
  batch.images =
      wl::make_disaster_like(kBatchImages, kSimilarInBatch, kWidth, kHeight, s)
          .images;
  batch.battery = kBatteryLevels[k % std::size(kBatteryLevels)];
  batch.plant_seed = s ^ 0x5eedULL;
  return batch;
}

/// Seeds the upload server and (in traced runs) the replay server with the
/// same planted duplicates, so the replay's CBRD sees the same index.
struct SeedBoth {
  cloud::Server& main;
  cloud::Server* replay;
  void seed_binary(const feat::BinaryFeatures& f, const idx::GeoTag& geo,
                   double thumb) {
    main.seed_binary(f, geo, thumb);
    if (replay != nullptr) replay->seed_binary(f, geo, thumb);
  }
  void seed_global(const feat::ColorHistogram& h, const idx::GeoTag& geo) {
    main.seed_global(h, geo);
    if (replay != nullptr) replay->seed_global(h, geo);
  }
  void seed_float(const feat::FloatFeatures& f, const idx::GeoTag& geo) {
    main.seed_float(f, geo);
    if (replay != nullptr) replay->seed_float(f, geo);
  }
};

/// What the traced stage replay of one batch decided and measured.
struct Replay {
  std::vector<std::size_t> cross_redundant;
  std::vector<std::size_t> selected;
  std::vector<feat::BinaryFeatures> features;
  double keypoints = 0.0;
  double encoded_bytes = 0.0;
};

Replay replay_stages(const Batch& batch, const core::SchemeConfig& config,
                     cloud::Server& server, std::uint64_t request) {
  Tracer& t = tracer();
  const auto knobs = energy::adapt::Knobs::from_battery(batch.battery);
  wl::ImageStore store;
  for (const auto& spec : batch.images) store.pixels(spec);  // untimed render

  Tracer::Scope batch_span(t, "replay.batch", 0, request);
  Replay r;
  std::vector<double> fbytes;
  for (const auto& spec : batch.images) {
    const img::Image small =
        img::bitmap_compress(store.pixels(spec), knobs.bitmap_compression);
    {
      Tracer::Scope s(t, "features.orb", batch_span.id(), request);
      r.features.push_back(feat::extract_orb(small, store.params().orb));
    }
    r.keypoints += static_cast<double>(r.features.back().size());
    fbytes.push_back(static_cast<double>(
        idx::serialize_binary(r.features.back()).size()));
  }
  std::vector<const feat::BinaryFeatures*> ptrs;
  for (const auto& f : r.features) ptrs.push_back(&f);
  const auto query = net::encode_batch_query(ptrs, fbytes, config.top_k);
  std::vector<std::uint8_t> reply;
  {
    Tracer::Scope s(t, "cloud.query", batch_span.id(), request);
    reply = cloud::dispatch(server, query);
  }
  const auto verdicts =
      net::decode_batch_query_response(net::open_envelope(reply).payload)
          .verdicts;
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].max_similarity > knobs.redundancy_threshold) {
      r.cross_redundant.push_back(i);
    } else {
      survivors.push_back(i);
    }
  }
  if (!survivors.empty()) {
    std::vector<const feat::BinaryFeatures*> survivor_features;
    for (const std::size_t i : survivors) survivor_features.push_back(ptrs[i]);
    std::optional<sub::SimilarityGraph> graph;
    {
      Tracer::Scope s(t, "submodular.graph", batch_span.id(), request);
      graph.emplace(sub::build_similarity_graph(survivor_features,
                                                config.match));
    }
    sub::SsmmResult ssmm;
    {
      Tracer::Scope s(t, "submodular.ssmm", batch_span.id(), request);
      ssmm = sub::select_unique_images(*graph, knobs.ssmm_threshold,
                                       config.ssmm);
    }
    for (const std::size_t s : ssmm.selected) {
      r.selected.push_back(survivors[s]);
    }
  }
  std::sort(r.selected.begin(), r.selected.end());
  for (const std::size_t i : r.selected) {
    Tracer::Scope s(t, "imaging.encode", batch_span.id(), request);
    const img::Image reduced = img::bitmap_compress(
        store.pixels(batch.images[i]), knobs.resolution_compression);
    r.encoded_bytes += static_cast<double>(
        img::encode_jpeg_like(reduced,
                              img::quality_from_proportion(
                                  knobs.quality_proportion))
            .size());
  }
  return r;
}

std::string str(const std::vector<std::size_t>& v) {
  std::string s = "[";
  for (const std::size_t x : v) {
    s += (s.size() > 1 ? "," : "") + std::to_string(x);
  }
  return s + "]";
}

}  // namespace

Result run_device_batches(const Args& args) {
  Result result;
  const bool traced = tracer().enabled();
  core::SchemeConfig config;
  config.image_byte_scale = kImageByteScale;
  config.chunking.enabled = true;
  std::vector<double> latencies_ms;
  double timed_s = 0.0;
  double setup_s = -1.0;
  double modelled_bytes = 0.0, modelled_joules = 0.0,
         modelled_offered = 0.0;
  double chunks_sent = 0.0, chunks_deduped = 0.0, batches = 0.0;
  double replay_images = 0.0, replay_keypoints = 0.0, replay_uploads = 0.0,
         replay_bytes = 0.0;
  std::uint64_t request = 0;

  idx::FeatureIndexParams serial_index;
  serial_index.rescore_threads = 1;  // the phone's server stays single-threaded
  std::optional<store::SegmentStore> segments;
  std::optional<cloud::Server> server;
  std::optional<cloud::Server> replay_server;
  std::vector<double> best_s(kRoundBatches, 1e300);
  for (std::size_t k = 0; k < kMinRounds * kRoundBatches ||
                          timed_s < args.seconds || k % kRoundBatches != 0;
       ++k) {
    const std::size_t b = k % kRoundBatches;
    const bool first_round = k < kRoundBatches;
    if (b == 0) {
      // A fresh server each round keeps the index, and so the work per
      // batch, from growing over the run.
      server.reset();
      store::SegmentStoreOptions seg_options;
      seg_options.chunk_size = config.chunking.chunk_size;
      segments.emplace(seg_options);
      server.emplace(serial_index);
      server->attach_chunk_store(&*segments);
      if (traced) replay_server.emplace(serial_index);
    }
    const Batch batch = make_batch(args.seed, b);
    ++request;
    wl::ImageStore::Params store_params;
    // The whole batch plus its planted duplicates stay rendered, so no
    // rendering happens inside the timed call.
    store_params.pixel_cache_capacity = 2 * kBatchImages;
    wl::ImageStore store(store_params);
    SeedBoth seeder{*server, replay_server ? &*replay_server : nullptr};
    const std::vector<std::size_t> planted =
        core::seed_cross_batch_redundancy(batch.images, kCrossBatchRatio,
                                          store, seeder, nullptr,
                                          batch.plant_seed, kImageByteScale);
    for (const auto& spec : batch.images) store.pixels(spec);

    std::optional<Replay> replay;
    if (traced) {
      replay = replay_stages(batch, config, *replay_server, request);
    }

    // A constant-rate channel: the modelled airtime and joules then follow
    // the bytes alone, not a bitrate random walk.
    net::ChannelParams channel_params;
    channel_params.step_bps = 0.0;
    channel_params.seed = batch.plant_seed;
    net::Channel channel(channel_params);
    energy::Battery battery;
    battery.drain(battery.capacity_j() * (1.0 - batch.battery));
    core::BeesScheme scheme(store, config);
    const cloud::ServerStats before = server->stats();

    if (setup_s < 0) setup_s = seconds_since(process_start());
    const auto start = Clock::now();
    core::BatchReport report;
    {
      Tracer::Scope span(tracer(), "core.upload_batch", 0, request);
      report = scheme.upload_batch(batch.images, *server, channel, battery);
    }
    const double seconds = seconds_since(start);
    ++result.attempted;
    timed_s += seconds;
    best_s[b] = std::min(best_s[b], seconds);
    ++batches;
    chunks_sent += report.chunks_sent;
    chunks_deduped += report.chunks_deduped;

    // --- checks, outside the timed call ---
    const core::BeesBatchTrace& trace = scheme.last_trace();
    std::vector<std::size_t> cbrd = trace.cross_redundant;
    if (args.inject == "drop_cbrd" && !planted.empty()) {
      cbrd.erase(std::remove(cbrd.begin(), cbrd.end(), planted.front()),
                 cbrd.end());
    }
    for (const std::size_t p : planted) {
      result.check(std::binary_search(cbrd.begin(), cbrd.end(), p),
                   "planted duplicate " + std::to_string(p) +
                       " not among CBRD-dropped " + str(cbrd));
    }
    if (report.aborted || report.gave_up != 0) {
      ++result.failed;
      result.fail("batch aborted or gave up");
    }
    result.check(report.images_offered ==
                     report.images_uploaded + report.eliminated_cross_batch +
                         report.eliminated_in_batch,
                 "offered != uploaded + cross-batch + in-batch eliminated");
    const cloud::ServerStats after = server->stats();
    result.check(after.images_stored - before.images_stored ==
                     static_cast<std::size_t>(report.images_uploaded),
                 "server images_stored disagrees with the client report");
    result.check(after.image_bytes_received - before.image_bytes_received ==
                     report.image_bytes,
                 "server image_bytes_received disagrees with the report");
    // The report's feature bytes also carry chunk-plane control messages,
    // so the server's count is held against the CBRD query payload the
    // client's features make up.
    double query_bytes = 0.0;
    for (const auto& spec : batch.images) {
      query_bytes += static_cast<double>(
          idx::serialize_binary(
              store.orb(spec, scheme.last_trace().knobs.bitmap_compression))
              .size());
    }
    result.check(after.feature_bytes_received - before.feature_bytes_received ==
                     query_bytes,
                 "server feature_bytes_received disagrees with the client's "
                 "query payload");
    const auto knobs = trace.knobs;
    for (const std::size_t i : trace.selected) {
      const auto& spec = batch.images[i];
      const auto& payload = store.encoded_payload(
          spec, knobs.resolution_compression, knobs.quality_proportion);
      const store::Manifest manifest =
          store::build_manifest(payload, config.chunking.chunk_size);
      const std::vector<std::uint8_t> stored = segments->get_payload(manifest);
      const img::Image decoded = img::decode_jpeg_like(stored);
      const img::Image source = img::bitmap_compress(
          store.pixels(spec), knobs.resolution_compression);
      const int want_w = static_cast<int>(
          std::lround(kWidth * (1 - knobs.resolution_compression)));
      const int want_h = static_cast<int>(
          std::lround(kHeight * (1 - knobs.resolution_compression)));
      if (decoded.width() != want_w || decoded.height() != want_h) {
        result.fail("stored payload of image " + std::to_string(i) +
                    " decodes to the wrong size");
        continue;
      }
      const double psnr = img::psnr(decoded, source);
      result.check(psnr >= kPsnrFloorDb,
                   "stored payload PSNR " + std::to_string(psnr) +
                       " dB below the floor");
    }
    if (replay) {
      result.check(replay->cross_redundant == trace.cross_redundant &&
                       replay->selected == trace.selected,
                   "stage replay selected " + str(replay->selected) +
                       " but upload_batch selected " + str(trace.selected));
      replay_images += static_cast<double>(batch.images.size());
      replay_keypoints += replay->keypoints;
      replay_uploads += static_cast<double>(replay->selected.size());
      replay_bytes += replay->encoded_bytes;
      for (const std::size_t i : trace.selected) {
        replay_server->store_binary(replay->features[i],
                                    {0.0, batch.images[i].geo, 0.0});
      }
    }
    if (first_round) {
      modelled_offered += report.images_offered;
      modelled_bytes += report.feature_bytes + report.image_bytes +
                        report.retransmitted_bytes;
      modelled_joules += report.energy.active_total();
    }
  }

  // Throughput and latency from each batch's best time over the rounds.
  double round_s = 0.0;
  for (const double t : best_s) {
    round_s += t;
    latencies_ms.push_back(t * 1000.0);
  }
  add_end_to_end(result, kBatchImages * kRoundBatches / round_s, latencies_ms,
                 setup_s,
                 modelled_bytes / modelled_offered,
                 modelled_joules / modelled_offered);
  if (tracer().enabled()) {
    const ObsSnapshot snap;
    const double examined = snap.counter("feat.match.lanes_examined");
    const double n_batches = static_cast<double>(batches);
    Tracer& t = tracer();
    set_per_layer(result,
                  {
                      {"features.orb_ms_per_image",
                       t.total_ms("features.orb") / replay_images},
                      {"features.keypoints_per_image",
                       replay_keypoints / replay_images},
                      {"features.match_lanes_pruned_ratio",
                       examined > 0
                           ? snap.counter("feat.match.lanes_pruned") / examined
                           : 0.0},
                      {"submodular.graph_ms_per_batch",
                       t.total_ms("submodular.graph") / n_batches},
                      {"submodular.ssmm_ms_per_batch",
                       t.total_ms("submodular.ssmm") / n_batches},
                      {"imaging.encode_ms_per_image",
                       replay_uploads > 0
                           ? t.total_ms("imaging.encode") / replay_uploads
                           : 0.0},
                      {"imaging.bytes_per_upload",
                       replay_uploads > 0 ? replay_bytes / replay_uploads
                                          : 0.0},
                      {"cloud.query_ms", t.mean_ms("cloud.query")},
                      {"cloud.candidates_per_query",
                       snap.mean("cloud.query.binary.candidates")},
                      {"net.chunks_sent", chunks_sent / n_batches},
                      {"net.chunks_deduped", chunks_deduped / n_batches},
                  });
  }
  return result;
}

}  // namespace perfbench
