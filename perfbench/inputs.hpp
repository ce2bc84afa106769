// Input plumbing shared by the serving workloads: rendering + ORB over
// many image recipes on a few threads (prepare steps only), and the blob
// files a prepare step hands to the measuring process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "features/keypoint.hpp"
#include "index/geo.hpp"
#include "workload/imageset.hpp"

namespace perfbench {

using Blob = std::vector<std::uint8_t>;

/// Threads the prepare steps render and extract on.
inline constexpr int kPrepareThreads = 4;

/// ORB features of every recipe's rendered image, computed on
/// kPrepareThreads threads; result[i] belongs to specs[i].
std::vector<bees::feat::BinaryFeatures> extract_all(
    const std::vector<bees::wl::ImageSpec>& specs);

/// Writes / reads a file of length-prefixed blobs.  read_blobs throws
/// std::runtime_error on a missing or short file.
void write_blobs(const std::string& path, const std::vector<Blob>& blobs);
std::vector<Blob> read_blobs(const std::string& path);

/// A list of 32-bit integers as a blob (and back).
Blob pack_u32(const std::vector<std::uint32_t>& values);
std::vector<std::uint32_t> unpack_u32(const Blob& blob);

/// Modelled phone radio energy of sending `bytes` uplink at the default
/// channel's median bitrate, under the default cost model.
double modelled_tx_joules(double bytes);

/// A closed set of kBatchQuery requests whose sizes spread evenly over
/// 4-40 feature sets, drawn from `pool` (uniformly, with replacement, from
/// `rng_seed`); `sources[r]` lists the pool index behind each set of
/// request r.
struct BatchQueries {
  std::vector<Blob> requests;
  std::vector<std::vector<std::uint32_t>> sources;
};
BatchQueries make_batch_queries(
    const std::vector<bees::feat::BinaryFeatures>& pool, int count,
    std::uint64_t rng_seed);

}  // namespace perfbench
