#include "inputs.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "energy/cost_model.hpp"
#include "features/orb.hpp"
#include "index/serialize.hpp"
#include "net/channel.hpp"
#include "net/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace bees;

std::vector<feat::BinaryFeatures> extract_all(
    const std::vector<wl::ImageSpec>& specs) {
  std::vector<feat::BinaryFeatures> out(specs.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kPrepareThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < specs.size();
           i += kPrepareThreads) {
        out[i] = feat::extract_orb(specs[i].render());
      }
    });
  }
  for (auto& th : threads) th.join();
  return out;
}

void write_blobs(const std::string& path, const std::vector<Blob>& blobs) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const Blob& b : blobs) {
    const auto n = static_cast<std::uint32_t>(b.size());
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<Blob> read_blobs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Blob> blobs;
  std::uint32_t n = 0;
  while (in.read(reinterpret_cast<char*>(&n), sizeof n)) {
    Blob b(n);
    if (!in.read(reinterpret_cast<char*>(b.data()), n)) {
      throw std::runtime_error("short blob in " + path);
    }
    blobs.push_back(std::move(b));
  }
  return blobs;
}

Blob pack_u32(const std::vector<std::uint32_t>& values) {
  Blob b(values.size() * sizeof(std::uint32_t));
  if (!b.empty()) std::memcpy(b.data(), values.data(), b.size());
  return b;
}

std::vector<std::uint32_t> unpack_u32(const Blob& blob) {
  std::vector<std::uint32_t> values(blob.size() / sizeof(std::uint32_t));
  if (!values.empty()) {
    std::memcpy(values.data(), blob.data(),
                values.size() * sizeof(std::uint32_t));
  }
  return values;
}

double modelled_tx_joules(double bytes) {
  return energy::CostModel{}.tx_energy(bytes,
                                       net::ChannelParams{}.initial_bps);
}

BatchQueries make_batch_queries(const std::vector<feat::BinaryFeatures>& pool,
                                int count, std::uint64_t rng_seed) {
  util::Rng rng(rng_seed);
  // Request sizes are spread evenly over 4..40 sets for every seed (in a
  // seeded order), so the seed changes which views are asked about, not
  // how much is asked.
  std::vector<std::int64_t> sizes;
  for (int r = 0; r < count; ++r) {
    sizes.push_back(count > 1 ? 4 + (36 * r) / (count - 1) : 4);
  }
  rng.shuffle(sizes);
  BatchQueries q;
  for (const std::int64_t sets : sizes) {
    std::vector<const feat::BinaryFeatures*> ptrs;
    std::vector<double> bytes;
    std::vector<std::uint32_t> sources;
    for (std::int64_t i = 0; i < sets; ++i) {
      const auto j = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      sources.push_back(j);
      ptrs.push_back(&pool[j]);
      bytes.push_back(
          static_cast<double>(idx::serialize_binary(pool[j]).size()));
    }
    q.requests.push_back(
        net::encode_batch_query(ptrs, bytes, idx::kDefaultTopK));
    q.sources.push_back(std::move(sources));
  }
  return q;
}

}  // namespace perfbench
