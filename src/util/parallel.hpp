// Fixed-size worker pool and deterministic data-parallel helpers.
//
// This generalizes the sharded worker-loop pattern of serve/session_manager
// into a reusable primitive for compute fan-out (Baum-Welch E-step, k-means
// assignment, PCA covariance accumulation). Two properties matter here:
//
//   1. Work items are claimed dynamically, but every item is executed
//      exactly once, so any computation whose items write disjoint outputs
//      is bit-identical run-to-run and across thread counts.
//   2. For reductions, callers split the input into *fixed-size* chunks
//      (chunk_count/chunk_range below, independent of the thread count),
//      compute one partial result per chunk, and merge the partials in
//      chunk-index order on the calling thread. Floating-point sums then
//      have one canonical association regardless of how many workers ran.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cmarkov {

/// Largest thread count a caller may request: worker pools, serve shard
/// workers and event loops all reject more, before any thread starts, so
/// a count from a flag cannot ask the system for unbounded threads.
inline constexpr std::size_t kMaxThreads = 256;

/// Maps an options-level `num_threads` value to a concrete worker count:
/// 0 means "one per hardware core" (at least 1), anything else is itself.
/// Throws std::invalid_argument above kMaxThreads.
std::size_t resolve_num_threads(std::size_t requested);

/// Utilization accounting for the most recent WorkerPool::run(): wall time
/// of the run and the summed per-worker time spent claiming/executing
/// items. Diagnostic (feeds the cmarkov_*_pool_utilization_ratio gauges) —
/// a worker that re-checks for work just after the run completes may land
/// its last few microseconds in the next run's accumulator.
struct PoolRunStats {
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;
  std::size_t threads = 1;
  /// busy / (wall * threads), clamped to [0, 1]; 1.0 for an inline run.
  double utilization() const {
    const double capacity = wall_seconds * static_cast<double>(threads);
    if (capacity <= 0.0) return 1.0;
    const double ratio = busy_seconds / capacity;
    return ratio > 1.0 ? 1.0 : ratio;
  }
};

/// A fixed set of worker threads executing indexed work items.
///
/// run(n, fn) invokes fn(i) exactly once for every i in [0, n); the calling
/// thread participates, so WorkerPool(1) spawns no threads and runs inline.
/// Items are claimed dynamically (a slow item does not idle other workers).
/// If items throw, the exception with the lowest item index is rethrown
/// after all claimed items finish. run() must not be called concurrently or
/// reentered from within an item.
class WorkerPool {
 public:
  /// `num_threads` as in resolve_num_threads; the pool spawns one fewer
  /// thread than that since the caller of run() acts as a worker.
  explicit WorkerPool(std::size_t num_threads = 0);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers (spawned threads + the calling thread).
  std::size_t num_threads() const { return num_threads_; }

  void run(std::size_t num_items, const std::function<void(std::size_t)>& fn);

  /// Stats for the most recent completed run() (see PoolRunStats). Call
  /// from the thread that called run().
  PoolRunStats last_run_stats() const;

 private:
  void worker_loop();
  /// Claims and executes items of generation `gen` until none remain.
  void drain(std::uint64_t gen);

  std::size_t num_threads_;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t num_items_ = 0;
  std::size_t next_index_ = 0;
  std::size_t completed_ = 0;
  std::exception_ptr first_error_;
  std::size_t first_error_index_ = 0;
  double run_wall_seconds_ = 0.0;   // guarded by mu_
  double run_busy_seconds_ = 0.0;   // guarded by mu_
  std::size_t run_threads_ = 1;     // guarded by mu_
};

/// One-shot convenience: fn(i) for every i in [0, count) on a transient
/// pool. Runs inline when num_threads resolves to 1 or count < 2.
void parallel_for(std::size_t num_threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Number of fixed-size chunks covering `count` items. Chunk geometry
/// depends only on (count, chunk_size) — never on the thread count — which
/// is what makes per-chunk partial reductions merge deterministically.
std::size_t chunk_count(std::size_t count, std::size_t chunk_size);

struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Half-open item range of chunk `chunk_index`.
ChunkRange chunk_range(std::size_t count, std::size_t chunk_size,
                       std::size_t chunk_index);

}  // namespace cmarkov
