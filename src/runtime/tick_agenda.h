#ifndef M2M_RUNTIME_TICK_AGENDA_H_
#define M2M_RUNTIME_TICK_AGENDA_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/check.h"

namespace m2m {

/// The lossy round's agenda: a calendar queue with one-tick buckets
/// (Brown, CACM 1988). Events pop in (tick, schedule order) — the order of
/// a min-heap keyed by (tick, seq) — with O(1) work per event and no heap
/// allocation once the event pool is warm.
///
/// A ring of W FIFO buckets holds the events of ticks [now, now + W); an
/// event further out waits in an overflow, grouped by tick in schedule
/// order, and its group moves into its bucket the moment the window
/// reaches that tick. When the ring is empty the clock jumps straight to
/// the first overflow tick. An overflow event for tick T was therefore
/// scheduled before any direct event for T (scheduling T directly needs T
/// inside the window, and the window reaching T moved the overflow group
/// in first), so every bucket stays in schedule order. Memory is
/// O(W + pending events), never O(final tick) (docs/THEORY.md §16).
template <typename E>
class TickAgenda {
 public:
  struct Fired {
    int64_t tick = 0;
    E event;
  };

  /// `reach` is the longest distance (tick - now) the caller expects to
  /// schedule at, plus one. W is the smallest power of two covering it,
  /// capped at kMaxWindow: a longer distance is correct, just slower (it
  /// goes through the overflow).
  explicit TickAgenda(int64_t reach) {
    size_t window = 1;
    while (static_cast<int64_t>(window) < reach && window < kMaxWindow) {
      window *= 2;
    }
    buckets_.assign(window, Chain{});
    mask_ = window - 1;
  }

  /// Schedules `event` at `tick`, which must not precede the tick of the
  /// last pop. Events at one tick fire in schedule order.
  void Schedule(int64_t tick, const E& event) {
    M2M_CHECK_GE(tick, now_) << "tick agenda: schedule before the current tick";
    const uint32_t node = Allocate(event);
    if (tick - now_ <= static_cast<int64_t>(mask_)) {
      Append(buckets_[tick & mask_], node);
      ++ring_size_;
    } else {
      Group& group = overflow_[tick];
      Append(group.chain, node);
      ++group.size;
    }
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t window() const { return buckets_.size(); }

  /// Pops the next event in (tick, schedule) order; the agenda must not be
  /// empty. Advances the clock to the popped tick.
  Fired Pop() {
    M2M_CHECK(size_ > 0) << "tick agenda: pop from an empty agenda";
    if (buckets_[now_ & mask_].head == kNone) Advance();
    Chain& chain = buckets_[now_ & mask_];
    const uint32_t node = chain.head;
    chain.head = pool_[node].next;
    if (chain.head == kNone) chain.tail = kNone;
    --ring_size_;
    --size_;
    pool_[node].next = free_;
    free_ = node;
    return Fired{now_, pool_[node].event};
  }

 private:
  static constexpr size_t kMaxWindow = 256;
  static constexpr uint32_t kNone = ~uint32_t{0};

  struct Node {
    E event;
    uint32_t next = kNone;
  };
  /// A FIFO linked through pool_.
  struct Chain {
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };
  struct Group {
    Chain chain;
    size_t size = 0;
  };

  uint32_t Allocate(const E& event) {
    uint32_t node = free_;
    if (node != kNone) {
      free_ = pool_[node].next;
      pool_[node] = Node{event, kNone};
    } else {
      M2M_CHECK_LT(pool_.size(), size_t{kNone}) << "tick agenda overflow";
      node = static_cast<uint32_t>(pool_.size());
      pool_.push_back(Node{event, kNone});
    }
    return node;
  }

  void Append(Chain& chain, uint32_t node) {
    if (chain.tail == kNone) {
      chain.head = node;
    } else {
      pool_[chain.tail].next = node;
    }
    chain.tail = node;
  }

  /// Moves the clock to the next tick holding an event (the current
  /// bucket is spent), then pulls every overflow group the window now
  /// reaches into its bucket. Ring ticks always precede overflow ticks.
  void Advance() {
    if (ring_size_ > 0) {
      do {
        ++now_;
      } while (buckets_[now_ & mask_].head == kNone);
    } else {
      now_ = overflow_.begin()->first;
    }
    while (!overflow_.empty() &&
           overflow_.begin()->first - now_ <= static_cast<int64_t>(mask_)) {
      auto group = overflow_.begin();
      // The bucket last held a tick before now, so it is empty.
      buckets_[group->first & mask_] = group->second.chain;
      ring_size_ += group->second.size;
      overflow_.erase(group);
    }
  }

  std::vector<Chain> buckets_;
  size_t mask_ = 0;
  int64_t now_ = 0;
  size_t size_ = 0;
  size_t ring_size_ = 0;
  std::map<int64_t, Group> overflow_;
  std::vector<Node> pool_;
  uint32_t free_ = kNone;  ///< Head of the popped nodes' free list.
};

}  // namespace m2m

#endif  // M2M_RUNTIME_TICK_AGENDA_H_
