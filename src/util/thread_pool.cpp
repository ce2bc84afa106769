#include "util/thread_pool.hpp"

#include <algorithm>

namespace bees::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::scoped_lock lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    const std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::ChunkLatch::count_down(std::exception_ptr error) {
  // Notify under the lock: once wait() can observe remaining_ == 0 the
  // latch may be destroyed, so nothing here may touch it after unlocking.
  std::scoped_lock lock(mutex_);
  if (error && !first_error_) first_error_ = std::move(error);
  if (--remaining_ == 0) done_.notify_all();
}

void ThreadPool::ChunkLatch::wait() {
  std::unique_lock lock(mutex_);
  done_.wait(lock, [this] { return remaining_ == 0; });
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop();
    }
    try {
      task();
    } catch (...) {
      std::scoped_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::scoped_lock lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& LazyThreadPool::get() {
  std::call_once(once_,
                 [this] { pool_ = std::make_unique<ThreadPool>(threads_); });
  return *pool_;
}

}  // namespace bees::util
