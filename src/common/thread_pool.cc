#include "common/thread_pool.h"

#include <algorithm>
#include <memory>

#include "common/check.h"

namespace m2m {

ThreadPool::ThreadPool(int lanes) : lanes_(std::max(1, lanes)) {
  workers_.reserve(static_cast<size_t>(lanes_ - 1));
  for (int lane = 1; lane < lanes_; ++lane) {
    workers_.emplace_back([this, lane] { WorkerLoop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(int lane) {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    int shards = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      job = job_;
      shards = shards_;
    }
    for (int s = lane; s < shards; s += lanes_) (*job)(s);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++workers_done_;
      if (workers_done_ == lanes_ - 1) done_cv_.notify_one();
    }
  }
}

void ThreadPool::RunShards(int shards, const std::function<void(int)>& fn) {
  if (shards <= 0) return;
  if (lanes_ == 1 || shards == 1) {
    for (int s = 0; s < shards; ++s) fn(s);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    shards_ = shards;
    workers_done_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  // The calling thread is lane 0.
  for (int s = 0; s < shards; s += lanes_) fn(s);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return workers_done_ == lanes_ - 1; });
  job_ = nullptr;
}

namespace {

std::mutex g_parallelism_mutex;
int g_threads = 1;
int g_shards = 0;  // 0 = follow g_threads.
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

void SetGlobalParallelism(int threads, int shards) {
  std::lock_guard<std::mutex> lock(g_parallelism_mutex);
  threads = std::max(1, threads);
  if (threads != g_threads) {
    g_pool.reset();  // Rebuilt lazily at the new lane count.
    g_threads = threads;
  }
  g_shards = std::max(0, shards);
}

int GlobalThreadCount() {
  std::lock_guard<std::mutex> lock(g_parallelism_mutex);
  return g_threads;
}

int GlobalShardCount() {
  std::lock_guard<std::mutex> lock(g_parallelism_mutex);
  return g_shards > 0 ? g_shards : g_threads;
}

ThreadPool* GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(g_parallelism_mutex);
  if (g_threads == 1) return nullptr;
  if (g_pool == nullptr) g_pool = std::make_unique<ThreadPool>(g_threads);
  return g_pool.get();
}

void ParallelFor(int64_t n,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  ThreadPool* pool = GlobalThreadPool();
  const int64_t shard_count =
      std::min<int64_t>(n, pool == nullptr ? 1 : GlobalShardCount());
  if (pool == nullptr || shard_count == 1) {
    fn(0, n);
    return;
  }
  pool->RunShards(static_cast<int>(shard_count), [&](int s) {
    const int64_t begin = n * s / shard_count;
    const int64_t end = n * (s + 1) / shard_count;
    if (begin < end) fn(begin, end);
  });
}

ScopedParallelism::ScopedParallelism(int threads, int shards)
    : prev_threads_(GlobalThreadCount()), prev_shards_(GlobalShardCount()) {
  SetGlobalParallelism(threads, shards);
}

ScopedParallelism::~ScopedParallelism() {
  SetGlobalParallelism(prev_threads_, prev_shards_);
}

}  // namespace m2m
