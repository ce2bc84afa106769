// Shared (reader) locking on a hot shard: when one geotag cell holds all
// the data, every query lands on one shard, and concurrent queries must
// share its lock while a writer still gets exclusive access.  Kept small:
// this suite also runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cloud/rpc.hpp"
#include "cloud/server.hpp"
#include "features/orb.hpp"
#include "imaging/synth.hpp"
#include "net/protocol.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"

namespace bees::serve {
namespace {

feat::BinaryFeatures make_binary(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_orb(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

TEST(ShardSharedReads, HotShardReadersGetSerialRepliesDuringStores) {
  // A disaster cell: every seed and every store shares one geotag cell, so
  // one shard holds all the data and every query lands on it.  Readers
  // share that shard's lock while one writer stores into it exclusively.
  // Each reply must be byte-identical to a serial cloud::Server's reply
  // for the same query after some prefix of the stores — a query sees a
  // store entirely or not at all.  Queries include the stored images, so
  // the stores visibly change replies.  Runs both gate modes.
  constexpr int kSeeds = 6;
  constexpr int kStores = 3;
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 5;
  const idx::GeoTag hot{2.29, 48.85, true};

  std::vector<feat::BinaryFeatures> seeds;
  for (int i = 0; i < kSeeds; ++i) {
    seeds.push_back(make_binary(100 + static_cast<std::uint64_t>(i)));
  }
  std::vector<feat::BinaryFeatures> stores;
  for (int i = 0; i < kStores; ++i) {
    stores.push_back(make_binary(1'000 + static_cast<std::uint64_t>(i)));
  }
  std::vector<std::vector<std::uint8_t>> requests;
  for (const auto* set : {&seeds, &stores}) {
    for (const auto& features : *set) {
      requests.push_back(
          net::encode_binary_query(features, idx::kDefaultTopK, 9'000.0));
    }
  }

  // expected[k][q]: the serial reply to requests[q] after k stores.
  cloud::Server server;
  for (const auto& features : seeds) {
    server.seed_binary(features, hot, 11'000.0);
  }
  std::vector<std::vector<std::vector<std::uint8_t>>> expected(kStores + 1);
  for (int k = 0; k <= kStores; ++k) {
    for (const auto& request : requests) {
      expected[static_cast<std::size_t>(k)].push_back(
          cloud::dispatch(server, request));
    }
    if (k < kStores) {
      server.store_binary(stores[static_cast<std::size_t>(k)],
                          {700'000.0, hot, 12'000.0});
    }
  }
  // A stored image's own query finds it only after its store.
  ASSERT_NE(expected[0][kSeeds], expected[kStores][kSeeds]);

  for (const std::size_t batch_window : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("batch_window=" + std::to_string(batch_window));
    ClusterOptions options;
    options.shards = 4;
    options.threads = 4;
    options.batch_window = batch_window;
    Cluster cluster(options);
    for (const auto& features : seeds) {
      cluster.seed_binary(features, hot, 11'000.0);
    }

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      for (const auto& features : stores) {
        cluster.store_binary(features, {700'000.0, hot, 12'000.0});
      }
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        for (int i = 0; i < kQueriesPerReader; ++i) {
          const std::size_t q =
              static_cast<std::size_t>(r + i * kReaders) % requests.size();
          const auto reply = cluster.handle(requests[q]);
          bool matched = false;
          for (const auto& state : expected) matched |= reply == state[q];
          if (!matched) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0);

    // Once the writer is done every reply is the post-store serial reply.
    for (std::size_t q = 0; q < requests.size(); ++q) {
      EXPECT_EQ(cluster.handle(requests[q]), expected[kStores][q]) << q;
    }
  }
}

}  // namespace
}  // namespace bees::serve
