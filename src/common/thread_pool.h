#ifndef M2M_COMMON_THREAD_POOL_H_
#define M2M_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace m2m {

/// Fork-join worker pool for deterministic data parallelism.
///
/// Work is always expressed as a fixed number of *shards*: shard s runs
/// exactly once, lane w executes shards w, w + lanes, w + 2*lanes, ... in
/// increasing order, and the call returns only when every shard finished.
/// Callers assign outputs by shard or element index — never by completion
/// order — so results are byte-identical for every thread count (see
/// THEORY.md §12).
class ThreadPool {
 public:
  /// `lanes` >= 1 total execution lanes. The calling thread is lane 0, so
  /// `lanes - 1` workers are spawned; `lanes == 1` spawns nothing and every
  /// Run call degenerates to an inline loop.
  explicit ThreadPool(int lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int lanes() const { return lanes_; }

  /// Runs fn(shard) for every shard in [0, shards). Not reentrant: fn must
  /// not call back into the same pool.
  void RunShards(int shards, const std::function<void(int)>& fn);

 private:
  void WorkerLoop(int lane);

  const int lanes_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  int shards_ = 0;
  const std::function<void(int)>* job_ = nullptr;
  int workers_done_ = 0;
  bool stopping_ = false;
};

/// Global parallelism knobs. Defaults to 1 thread — every entry point is
/// serial and byte-stable unless a caller (bench flag, test fixture) opts
/// in. `threads` is the number of fork-join lanes; `shards` is the number
/// of work partitions per fork-join region, 0 meaning "same as threads".
/// The shard count changes scheduling only, never results — the
/// order-independence property tests drive adversarial (prime, 1, > n)
/// shard geometries against it. Not safe to call concurrently with running
/// rounds; flip it between rounds, as the bench drivers and tests do.
void SetGlobalParallelism(int threads, int shards = 0);
int GlobalThreadCount();
int GlobalShardCount();

/// Pool matching the configured thread count, created lazily after each
/// SetGlobalParallelism change; nullptr when threads == 1 (serial mode).
ThreadPool* GlobalThreadPool();

/// Runs fn(begin, end) over contiguous index ranges covering [0, n):
/// shard s gets [s*n/S, (s+1)*n/S) for S = GlobalShardCount(). Serial mode
/// is one inline fn(0, n) call — zero overhead on the default path.
void ParallelFor(int64_t n, const std::function<void(int64_t, int64_t)>& fn);

/// RAII parallelism override for tests and benches: restores the previous
/// (threads, shards) configuration on destruction.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(int threads, int shards = 0);
  ~ScopedParallelism();

  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;

 private:
  int prev_threads_;
  int prev_shards_;
};

}  // namespace m2m

#endif  // M2M_COMMON_THREAD_POOL_H_
