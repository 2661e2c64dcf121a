#include "src/util/parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/util/stopwatch.hpp"

namespace cmarkov {

std::size_t resolve_num_threads(std::size_t requested) {
  if (requested > kMaxThreads) {
    throw std::invalid_argument("thread count " + std::to_string(requested) +
                                " exceeds the limit of " +
                                std::to_string(kMaxThreads));
  }
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

WorkerPool::WorkerPool(std::size_t num_threads)
    : num_threads_(resolve_num_threads(num_threads)) {
  threads_.reserve(num_threads_ - 1);
  for (std::size_t t = 0; t + 1 < num_threads_; ++t) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void WorkerPool::run(std::size_t num_items,
                     const std::function<void(std::size_t)>& fn) {
  if (num_items == 0) return;
  const Stopwatch wall;
  if (threads_.empty() || num_items == 1) {
    for (std::size_t i = 0; i < num_items; ++i) fn(i);
    std::lock_guard<std::mutex> lock(mu_);
    run_wall_seconds_ = run_busy_seconds_ = wall.seconds();
    run_threads_ = 1;
    return;
  }
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &fn;
    num_items_ = num_items;
    next_index_ = 0;
    completed_ = 0;
    first_error_ = nullptr;
    first_error_index_ = num_items;
    run_busy_seconds_ = 0.0;
    run_threads_ = num_threads_;
    gen = ++generation_;
  }
  start_cv_.notify_all();
  drain(gen);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return completed_ == num_items_; });
    task_ = nullptr;
    error = first_error_;
    run_wall_seconds_ = wall.seconds();
  }
  if (error) std::rethrow_exception(error);
}

PoolRunStats WorkerPool::last_run_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolRunStats stats;
  stats.threads = run_threads_;
  stats.wall_seconds = run_wall_seconds_;
  stats.busy_seconds = run_busy_seconds_;
  return stats;
}

void WorkerPool::drain(std::uint64_t gen) {
  // Busy time is accumulated per item under the completion lock (with a
  // generation check), so a worker that finishes its last item after the
  // run's caller has already started the next run cannot credit a whole
  // drain's elapsed time to the wrong run.
  Stopwatch busy;
  while (true) {
    std::size_t item;
    const std::function<void(std::size_t)>* task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A stale wake-up (generation moved on, or the run already finished
      // and cleared task_) claims nothing.
      if (generation_ != gen || task_ == nullptr ||
          next_index_ >= num_items_) {
        break;
      }
      item = next_index_++;
      task = task_;
    }
    std::exception_ptr error;
    try {
      (*task)(item);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (generation_ == gen) run_busy_seconds_ += busy.seconds();
      busy.reset();
      if (error && (first_error_ == nullptr || item < first_error_index_)) {
        first_error_ = error;
        first_error_index_ = item;
      }
      if (++completed_ == num_items_) done_cv_.notify_all();
    }
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    std::uint64_t gen;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock,
                     [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = gen = generation_;
    }
    drain(gen);
  }
}

void parallel_for(std::size_t num_threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t threads = resolve_num_threads(num_threads);
  if (threads <= 1 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  WorkerPool pool(std::min(threads, count));
  pool.run(count, fn);
}

std::size_t chunk_count(std::size_t count, std::size_t chunk_size) {
  if (chunk_size == 0) throw std::invalid_argument("chunk_count: size 0");
  return (count + chunk_size - 1) / chunk_size;
}

ChunkRange chunk_range(std::size_t count, std::size_t chunk_size,
                       std::size_t chunk_index) {
  ChunkRange range;
  range.begin = std::min(count, chunk_index * chunk_size);
  range.end = std::min(count, range.begin + chunk_size);
  return range;
}

}  // namespace cmarkov
