#ifndef M2M_EVENT_EVENT_QUEUE_H_
#define M2M_EVENT_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace m2m::event {

/// Deterministic discrete-event priority queue: a min-heap keyed by
/// `(time, schedule seq)`.
///
/// The lossy round's agenda (RuntimeNetwork::RunRoundLossy) lives here, and
/// every ordering decision it makes reduces to the strict order below — no
/// pointer values, no hash iteration order, no platform-dependent heap
/// layout leaks into execution order. Two events at the same time fire in
/// the order they were scheduled, so replaying the same schedule pops the
/// same events in the same order, byte for byte.
template <typename E>
class EventQueue {
 public:
  struct Fired {
    int64_t time = 0;
    E payload;
  };

  /// Schedules `payload` at `time`. Times may be scheduled in any order
  /// (including the currently popping time); ties fire in schedule order.
  void Schedule(int64_t time, E payload) {
    heap_.push_back(Entry{time, ++last_seq_, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Time of the next event, or nullopt when empty.
  std::optional<int64_t> NextTime() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().time;
  }

  /// Pops the next event in (time, seq) order.
  std::optional<Fired> Pop() {
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return Fired{entry.time, std::move(entry.payload)};
  }

 private:
  struct Entry {
    int64_t time = 0;
    uint64_t seq = 0;
    E payload;
  };

  /// Max-heap comparator inverted into a min-heap on (time, seq).
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  uint64_t last_seq_ = 0;
};

}  // namespace m2m::event

#endif  // M2M_EVENT_EVENT_QUEUE_H_
