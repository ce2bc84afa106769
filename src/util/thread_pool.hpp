// Minimal fixed-size thread pool with a parallel_for helper.  The heaviest
// client-side computation in BEES is the IBRD pairwise-similarity graph
// (O(n^2) descriptor matchings per batch); build_similarity_graph_parallel
// spreads it across cores.  Deterministic: the work partition is static,
// so results are identical to the serial path.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bees::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; it may run on any worker.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.  If any task threw,
  /// rethrows the first captured exception.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Runs fn(begin, end) for each contiguous chunk of [0, n) across the
  /// pool, blocking until done; rethrows the first exception a chunk threw.
  /// One chunk goes to each worker; `grain` sets a minimum chunk length for
  /// cheap iterations (0 = no minimum).  The partition depends only on n,
  /// thread_count() and grain — never on runtime timing — so results match
  /// the serial path exactly.  Chunk granularity lets callers hoist
  /// per-worker state (e.g. a feat::MatchWorkspace) out of the per-index
  /// loop.  The call waits for its own chunks only, not for the whole pool
  /// to go idle, so concurrent callers sharing one pool neither wait on
  /// nor receive each other's work or errors.
  template <typename Fn>
  void parallel_for_chunks(std::size_t n, Fn&& fn, std::size_t grain = 0) {
    if (n == 0) return;
    const std::size_t chunks = std::min(n, thread_count());
    std::size_t per_chunk = (n + chunks - 1) / chunks;
    if (grain > 1) per_chunk = std::max(per_chunk, grain);
    ChunkLatch latch((n + per_chunk - 1) / per_chunk);
    for (std::size_t begin = 0; begin < n; begin += per_chunk) {
      const std::size_t end = std::min(begin + per_chunk, n);
      submit([begin, end, &fn, &latch] {
        try {
          fn(begin, end);
          latch.count_down(nullptr);
        } catch (...) {
          latch.count_down(std::current_exception());
        }
      });
    }
    latch.wait();
  }

  /// Runs fn(i) for i in [0, n) across the pool, blocking until done.
  /// Same deterministic partition as parallel_for_chunks.  The callable is
  /// invoked directly (no std::function indirection), letting the compiler
  /// inline per-index bodies.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 0) {
    parallel_for_chunks(
        n,
        [&fn](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) fn(i);
        },
        grain);
  }

 private:
  /// Completion latch of one parallel_for_chunks call.
  class ChunkLatch {
   public:
    explicit ChunkLatch(std::size_t chunks) : remaining_(chunks) {}
    /// Marks one chunk finished; `error` (if any) is kept when first.
    void count_down(std::exception_ptr error);
    /// Blocks until every chunk has finished, then rethrows the first
    /// captured exception.
    void wait();

   private:
    std::mutex mutex_;
    std::condition_variable done_;
    std::size_t remaining_;
    std::exception_ptr first_error_;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_error_;
};

/// A ThreadPool created on first use.  get() is safe to call from
/// concurrent threads (std::call_once), so a const object may start its
/// pool lazily from its read path without a data race.
class LazyThreadPool {
 public:
  explicit LazyThreadPool(std::size_t threads) : threads_(threads) {}

  ThreadPool& get();

 private:
  std::size_t threads_;
  std::once_flag once_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bees::util
