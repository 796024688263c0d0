#ifndef M2M_COMMON_THREAD_POOL_H_
#define M2M_COMMON_THREAD_POOL_H_

namespace m2m {

// The library is serial (docs/THEORY.md §12). These two names hold no state
// and do nothing; they exist only because the frozen benchmark in perfbench/
// still calls them (main.cc and the `.t4` rows of probe.cc). Nothing in
// src, bench, tests or examples may use them. They go with the `.t4` rows
// at the next benchmark change (ROADMAP item 6).

inline void SetGlobalParallelism(int /*threads*/, int /*shards*/ = 0) {}

class ScopedParallelism {
 public:
  // User-provided, so a scoped instance does not count as unused.
  explicit ScopedParallelism(int /*threads*/, int /*shards*/ = 0) {}
};

}  // namespace m2m

#endif  // M2M_COMMON_THREAD_POOL_H_
