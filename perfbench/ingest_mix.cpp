// ingest_mix: open-loop phones speak the BEES upload protocol to a durable
// cluster: a data directory, one segment store shared by the WAL,
// snapshots and the wire chunk plane, and periodic checkpoints (and so
// compaction).  Each phone batch is one kBatchQuery of the batch's feature
// sets followed, as soon as the verdicts arrive, by a chunked upload
// (kChunkManifest -> missing kChunkData -> kChunkCommit) of every image
// the server did not judge redundant, one after another: the message mix
// of core::BeesScheme::upload_batch and fleet::run_fleet.  The shards run
// without standbys: a replicated cluster with a shared segment store does
// not survive the restart this workload checks (see CHANGES.md), so
// replica shipping is measured on fleet_disaster instead.
// Batches are due on a fixed schedule.  A batch's query is timed from when
// the batch was due, so a stall shows in the batches queued behind it.  A
// phone sends its batch's uploads one after another, as upload_batch does,
// so an upload is due when the phone's link is free (the verdicts arrived
// or its previous upload was acknowledged) and is timed from its manifest
// to its commit ack.  The generator's own lateness is reported.
//
// prepare writes the data directory (base images behind a checkpoint) and
// one batch per scheduled slot of the run, so no upload repeats: each
// batch holds one near-duplicate of a stored image (planted cross-batch
// redundancy) and fresh scenes, with features, real codec payloads and
// geotags.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "energy/adaptive.hpp"
#include "imaging/codec.hpp"
#include "index/serialize.hpp"
#include "inputs.hpp"
#include "net/protocol.hpp"
#include "serve/cluster.hpp"
#include "store/chunk.hpp"
#include "util/byte_io.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bees;

constexpr int kBaseImages = 600;
constexpr int kWidth = 96;
constexpr int kHeight = 72;
constexpr int kPayloadQuality = 75;
/// Images per phone batch: fleet::FleetOptions::batch, the fleet's
/// capture size.
constexpr int kBatchImages = 4;
/// One image per batch is a near-duplicate of a stored image: the 25 %
/// cross-batch redundancy of device_batches.
constexpr int kPlantedPerBatch = 1;
constexpr int kShards = 4;
constexpr int kServerThreads = 3;
constexpr int kSenders = 8;
/// Each shard checkpoints (snapshot + compaction, under its write lock)
/// every 16 mutations, so about one upload in twelve waits behind a
/// checkpoint and p99_ms reads the checkpoint's cost.  At 64, the 1 %
/// rank fell on the edge of ~25 stalled uploads and moved 0.21 across
/// seeds; at 128 it fell between stalls and queueing and moved 0.27.
constexpr std::size_t kCheckpointEvery = 16;
constexpr std::uint32_t kChunkSize = 1024;
/// Offered load in phone batches per second (see the README for how it
/// was set).
constexpr double kBatchRate = 80.0;
constexpr std::size_t kProbes = 8;

/// CBRD threshold of a phone at full battery: an image whose best match
/// scores above it is redundant and is not uploaded.
const double kRedundancyThreshold = energy::adapt::edr_threshold(1.0);

std::size_t scheduled_batches(double seconds) {
  return static_cast<std::size_t>(std::ceil(seconds * kBatchRate));
}

serve::ClusterOptions cluster_options(const std::string& dir) {
  serve::ClusterOptions o;
  o.shards = kShards;
  o.threads = kServerThreads;
  o.batch_window = 1;
  o.data_dir = dir + "/data";
  o.checkpoint_every = kCheckpointEvery;
  o.enable_segment_store = true;
  o.segment_store.dir = dir + "/data/segments";
  return o;
}

struct Upload {
  feat::BinaryFeatures features;
  Blob payload;
  idx::GeoTag geo;
};

Blob encode_upload(const feat::BinaryFeatures& f, const Blob& payload,
                   const idx::GeoTag& geo) {
  util::ByteWriter w;
  const Blob features = idx::serialize_binary(f);
  w.put_u32(static_cast<std::uint32_t>(features.size()));
  w.put_bytes(features);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_bytes(payload);
  w.put_f64(geo.lon);
  w.put_f64(geo.lat);
  return w.take();
}

Upload decode_upload(const Blob& blob) {
  util::ByteReader r(blob);
  Upload u;
  const Blob features = r.get_bytes(r.get_u32());
  u.features = idx::deserialize_binary(features);
  u.payload = r.get_bytes(r.get_u32());
  u.geo.lon = r.get_f64();
  u.geo.lat = r.get_f64();
  u.geo.valid = true;
  return u;
}

/// The request sequence of one chunked upload, as a phone sends it when
/// the server holds none of its chunks.
struct UploadMessages {
  store::Manifest manifest;
  Blob offer;
  std::vector<Blob> chunks;
  Blob commit;
};

UploadMessages upload_messages(const Upload& u) {
  UploadMessages m;
  m.manifest = store::build_manifest(u.payload, kChunkSize);
  m.offer = net::encode(net::ChunkManifestRequest{m.manifest});
  for (std::size_t i = 0; i < m.manifest.chunks.size(); ++i) {
    m.chunks.push_back(net::encode_chunk_data(
        m.manifest.chunks[i], store::chunk_bytes(u.payload, m.manifest, i)));
  }
  m.commit = net::encode(net::ChunkCommitRequest{
      m.manifest,
      net::encode_image_upload(u.features,
                               static_cast<double>(u.payload.size()), u.geo,
                               0.0)});
  return m;
}

/// Opens a reply, returning its envelope or nullopt for an error reply.
std::optional<net::Envelope> ok_reply(const Blob& reply,
                                      net::MessageType want) {
  try {
    net::Envelope env = net::open_envelope(reply);
    if (env.type == want) return env;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

}  // namespace

void prepare_ingest_mix(const Args& args) {
  const std::size_t batches = scheduled_batches(args.seconds);
  const std::size_t fresh_count =
      batches * static_cast<std::size_t>(kBatchImages - kPlantedPerBatch);
  // Distinct scenes, one per image, so no upload repeats another.
  // Geotags are uniform over the box, so the shards fill evenly and their
  // checkpoints (the write path's stalls) cost the same on every seed.
  util::Rng rng(args.seed ^ 0x1a2b3c4dULL);
  const wl::GeoBox box;
  const auto geotag = [&] {
    return idx::GeoTag{rng.uniform(box.lon_min, box.lon_max),
                       rng.uniform(box.lat_min, box.lat_max), true};
  };
  wl::Imageset base = wl::make_disaster_like(kBaseImages, 0, kWidth, kHeight,
                                             args.seed);
  for (auto& spec : base.images) spec.geo = geotag();
  const wl::Imageset fresh = wl::make_disaster_like(
      static_cast<int>(fresh_count), 0, kWidth, kHeight, args.seed * 7 + 3);
  std::vector<wl::ImageSpec> images;
  std::vector<std::uint32_t> planted;
  std::size_t next_fresh = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto slot = static_cast<std::uint32_t>(
        rng.uniform_int(0, kBatchImages - 1));
    planted.push_back(slot);
    for (int i = 0; i < kBatchImages; ++i) {
      if (static_cast<std::uint32_t>(i) == slot) {
        const auto& stored = base.images[static_cast<std::size_t>(
            rng.uniform_int(0, kBaseImages - 1))];
        images.push_back(wl::make_near_duplicate(stored, rng.next_u64()));
      } else {
        images.push_back(fresh.images[next_fresh++]);
        images.back().geo = geotag();
      }
    }
  }
  const auto base_features = extract_all(base.images);
  const auto features = extract_all(images);

  std::vector<Blob> uploads(images.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kPrepareThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < uploads.size();
           i += kPrepareThreads) {
        uploads[i] = encode_upload(
            features[i],
            img::encode_jpeg_like(images[i].render(), kPayloadQuality),
            images[i].geo);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<Blob> queries;
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<const feat::BinaryFeatures*> ptrs;
    std::vector<double> bytes;
    for (int i = 0; i < kBatchImages; ++i) {
      const auto& f = features[b * kBatchImages + static_cast<std::size_t>(i)];
      ptrs.push_back(&f);
      bytes.push_back(static_cast<double>(idx::serialize_binary(f).size()));
    }
    queries.push_back(net::encode_batch_query(ptrs, bytes, idx::kDefaultTopK));
  }

  std::filesystem::create_directories(args.dir + "/data");
  {
    serve::ClusterOptions o = cluster_options(args.dir);
    o.threads = 1;
    serve::Cluster cluster(o);
    for (std::size_t i = 0; i < base.images.size(); ++i) {
      cluster.store_binary(base_features[i],
                           {static_cast<double>(kWidth * kHeight),
                            base.images[i].geo, 0.0});
    }
    cluster.checkpoint();
  }
  write_blobs(args.dir + "/uploads.bin", uploads);
  write_blobs(args.dir + "/queries.bin", queries);
  write_blobs(args.dir + "/planted.bin", {pack_u32(planted)});
}

Result run_ingest_mix(const Args& args) {
  Result result;
  // Set-up is the program's: the uploads are read and framed after the
  // cluster is ready, so their size does not count as set-up time.
  const auto recovery_start = Clock::now();
  auto cluster = std::make_unique<serve::Cluster>(cluster_options(args.dir));
  const double recovery_s = seconds_since(recovery_start);
  const double setup_s = seconds_since(process_start());
  const std::size_t batches = scheduled_batches(args.seconds);
  std::vector<Upload> uploads;
  for (const Blob& b : read_blobs(args.dir + "/uploads.bin")) {
    uploads.push_back(decode_upload(b));
  }
  const std::vector<Blob> queries = read_blobs(args.dir + "/queries.bin");
  const std::vector<Blob> planted_blob = read_blobs(args.dir + "/planted.bin");
  if (uploads.size() != batches * kBatchImages || queries.size() != batches ||
      planted_blob.size() != 1 ||
      unpack_u32(planted_blob[0]).size() != batches) {
    throw std::runtime_error("ingest_mix: prepared inputs incomplete");
  }
  const std::vector<std::uint32_t> planted = unpack_u32(planted_blob[0]);
  std::vector<UploadMessages> messages;
  for (const Upload& u : uploads) messages.push_back(upload_messages(u));

  const cloud::ServerStats base_stats = cluster->stats();
  result.check(base_stats.images_stored == kBaseImages,
               "recovered " + std::to_string(base_stats.images_stored) +
                   " of the " + std::to_string(kBaseImages) +
                   " prepared images");

  struct Sample {
    double query_ms;
    double late_ms;
    std::vector<double> upload_ms;
  };
  struct Ack {
    std::size_t upload;
    idx::ImageId id;
  };
  std::vector<Sample> samples(batches);
  std::vector<std::vector<Ack>> acks(kSenders);
  // Batch indices the server judged redundant, per sender.
  std::vector<std::vector<std::size_t>> dropped(kSenders);
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> failed_batches{0};
  std::atomic<int> in_flight{0};
  std::atomic<int> in_flight_max{0};
  const auto start = Clock::now();
  const double interval_s = 1.0 / kBatchRate;

  const auto send = [&](const Blob& request, net::MessageType want,
                        std::uint64_t batch, int lane, std::uint64_t parent,
                        bool& ok) {
    Tracer::Scope span(tracer(), "serve.handle", parent, batch + 1,
                       static_cast<std::uint32_t>(lane));
    const Blob reply = cluster->handle(request);
    auto env = ok_reply(reply, want);
    if (!env) {
      errors.fetch_add(1);
      ok = false;
    }
    return env;
  };

  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (std::uint64_t b = next.fetch_add(1); b < batches;
           b = next.fetch_add(1)) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(b) * interval_s));
        std::this_thread::sleep_until(due);
        const auto begin = Clock::now();
        const int depth = in_flight.fetch_add(1) + 1;
        for (int m = in_flight_max.load(); depth > m &&
                                           !in_flight_max.compare_exchange_weak(
                                               m, depth);) {
        }
        Sample& sample = samples[b];
        sample.late_ms = seconds_between(due, begin) * 1000.0;
        bool ok = true;
        Tracer::Scope span(tracer(), "ingest.batch", 0, b + 1,
                           static_cast<std::uint32_t>(s));
        std::optional<net::Envelope> verdicts;
        {
          Tracer::Scope q(tracer(), "ingest.query", span.id(), b + 1,
                          static_cast<std::uint32_t>(s));
          verdicts = send(queries[b], net::MessageType::kBatchQueryResponse,
                          b, s, q.id(), ok);
        }
        sample.query_ms = seconds_since(due) * 1000.0;
        if (verdicts) {
          const auto v = net::decode_batch_query_response(verdicts->payload)
                             .verdicts;
          if (v.size() != static_cast<std::size_t>(kBatchImages)) ok = false;
          for (std::size_t i = 0; i < v.size() && ok; ++i) {
            const std::size_t u = b * kBatchImages + i;
            if (v[i].max_similarity > kRedundancyThreshold) {
              dropped[static_cast<std::size_t>(s)].push_back(u);
              continue;
            }
            const UploadMessages& m = messages[u];
            Tracer::Scope up(tracer(), "ingest.upload", span.id(), b + 1,
                             static_cast<std::uint32_t>(s));
            const auto sent = Clock::now();
            bool acked = false;
            if (auto env = send(m.offer, net::MessageType::kChunkManifestAck,
                                b, s, up.id(), ok)) {
              for (const std::uint32_t c :
                   net::decode_chunk_manifest_ack(env->payload).missing) {
                send(m.chunks[c], net::MessageType::kChunkAck, b, s, up.id(),
                     ok);
              }
              if (auto ack = send(m.commit, net::MessageType::kUploadAck, b,
                                  s, up.id(), ok)) {
                acks[static_cast<std::size_t>(s)].push_back(
                    {u, net::decode_upload_ack(ack->payload).id});
                acked = true;
              }
            }
            if (acked) sample.upload_ms.push_back(seconds_since(sent) * 1000.0);
          }
        } else {
          ok = false;
        }
        if (!ok) failed_batches.fetch_add(1);
        in_flight.fetch_sub(1);
      }
    });
  }
  for (auto& t : senders) t.join();
  const double window_s = seconds_since(start);

  std::vector<double> upload_ms, query_ms, late_ms;
  for (const Sample& s : samples) {
    upload_ms.insert(upload_ms.end(), s.upload_ms.begin(), s.upload_ms.end());
    query_ms.push_back(s.query_ms);
    late_ms.push_back(s.late_ms);
  }
  result.attempted = batches;
  result.failed = failed_batches.load();

  // --- checks ---
  std::vector<Ack> acked;
  for (const auto& a : acks) acked.insert(acked.end(), a.begin(), a.end());
  if (args.inject == "drop_ack" && !acked.empty()) {
    // An acknowledged upload the index does not hold.
    acked.push_back({acked.front().upload,
                     static_cast<idx::ImageId>(base_stats.images_stored +
                                               acked.size())});
  }
  std::vector<std::size_t> redundant;
  for (const auto& d : dropped) {
    redundant.insert(redundant.end(), d.begin(), d.end());
  }
  std::sort(redundant.begin(), redundant.end());
  std::size_t planted_missed = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    planted_missed += std::binary_search(redundant.begin(), redundant.end(),
                                         b * kBatchImages + planted[b])
                          ? 0
                          : 1;
  }
  result.check(planted_missed == 0,
               std::to_string(planted_missed) +
                   " planted near-duplicates were not judged redundant");
  result.check(errors.load() == 0,
               std::to_string(errors.load()) + " requests got error replies");
  result.check(cluster->shed_count() == 0, "requests were shed");
  const std::size_t live_count = cluster->stats().images_stored;
  result.check(live_count == base_stats.images_stored + acked.size(),
               "index holds " + std::to_string(live_count) + " images, " +
                   std::to_string(base_stats.images_stored) + " base + " +
                   std::to_string(acked.size()) + " acknowledged expected");
  {
    const idx::FeatureIndex merged = cluster->merged_binary_index();
    std::vector<idx::ImageId> ids;
    for (const Ack& a : acked) {
      ids.push_back(a.id);
      const bool present =
          a.id < merged.image_count() &&
          merged.features_of(a.id).descriptors ==
              uploads[a.upload].features.descriptors;
      result.check(present, "acknowledged upload " + std::to_string(a.id) +
                                " is not in the index");
    }
    std::sort(ids.begin(), ids.end());
    result.check(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                 "one image id acknowledged twice");
  }
  std::vector<Blob> probe_replies;
  for (std::size_t p = 0; p < kProbes; ++p) {
    probe_replies.push_back(cluster->handle(queries[p]));
  }
  const auto store_stats = cluster->segment_store()->stats();
  cluster.reset();

  if (args.inject == "truncate_wal") {
    // Tear the last record off every instance's WAL of the first shard
    // whose log holds records past the last checkpoint.
    for (int shard = 0; shard < kShards; ++shard) {
      bool cut = false;
      for (const auto& entry : std::filesystem::recursive_directory_iterator(
               args.dir + "/data/shard-" + std::to_string(shard))) {
        if (entry.path().filename() == "wal.log" && entry.file_size() > 64) {
          std::filesystem::resize_file(entry.path(), entry.file_size() - 5);
          cut = true;
        }
      }
      if (cut) break;
    }
  }
  {
    serve::Cluster recovered(cluster_options(args.dir));
    result.check(recovered.stats().images_stored == live_count,
                 "recovered cluster holds " +
                     std::to_string(recovered.stats().images_stored) +
                     " images, the live one held " +
                     std::to_string(live_count));
    for (std::size_t p = 0; p < kProbes; ++p) {
      result.check(recovered.handle(queries[p]) == probe_replies[p],
                   "recovered cluster answers probe " + std::to_string(p) +
                       " differently");
    }
  }

  // Modelled uplink: the bytes every prepared batch puts on the air when
  // the server drops exactly the planted duplicates and holds none of the
  // other images' chunks.
  double bytes = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    bytes += static_cast<double>(queries[b].size());
    for (std::size_t i = 0; i < kBatchImages; ++i) {
      if (i == planted[b]) continue;
      const UploadMessages& m = messages[b * kBatchImages + i];
      bytes += static_cast<double>(m.offer.size() + m.commit.size());
      for (const Blob& c : m.chunks) bytes += static_cast<double>(c.size());
    }
  }
  const double images = static_cast<double>(batches * kBatchImages);
  add_end_to_end(result, static_cast<double>(batches) / window_s, upload_ms,
                 setup_s, bytes / images, modelled_tx_joules(bytes / images));

  if (tracer().enabled()) {
    const ObsSnapshot snap;
    const double lookups = static_cast<double>(store_stats.cache_hits +
                                               store_stats.cache_misses);
    set_per_layer(
        result,
        {
            {"serve.handle_ms", tracer().mean_ms("serve.handle")},
            {"serve.store_ms", snap.mean("serve.store.seconds") * 1000.0},
            {"serve.query_binary_ms",
             snap.mean("serve.query.binary.seconds") * 1000.0},
            {"serve.queue_depth_max",
             static_cast<double>(in_flight_max.load())},
            {"serve.checkpoints", snap.counter("serve.checkpoint")},
            {"store.chunk_writes", snap.counter("store.chunk.writes")},
            {"store.dedup_hits", snap.counter("store.chunk.dedup_hits")},
            {"store.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(store_stats.cache_hits) / lookups
                         : 0.0},
            {"store.compaction_moved_bytes",
             snap.counter("store.compaction.moved_bytes")},
            {"serve.recovery_replayed",
             snap.counter("serve.recovery.replayed")},
            {"serve.recovery_s", recovery_s},
            {"ingest.query_p50_ms", quantile(query_ms, 0.50)},
            {"ingest.query_p99_ms", quantile(query_ms, 0.99)},
            {"ingest.uploads_per_batch",
             static_cast<double>(upload_ms.size()) /
                 static_cast<double>(batches)},
            {"loadgen.lateness_p99_ms", quantile(late_ms, 0.99)},
        });
  }
  return result;
}

}  // namespace perfbench
