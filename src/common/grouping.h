#ifndef M2M_COMMON_GROUPING_H_
#define M2M_COMMON_GROUPING_H_

#include <algorithm>
#include <utility>
#include <vector>

namespace m2m {

/// Groups (key, item) records by key into one offset array: a counting pass
/// instead of a sort of the whole array, then a sort and deduplication of
/// each key's (short) run. `start(k)` must name a writable int for every
/// key k in [0, key_count]; on return key k's items, ascending and
/// distinct, are items[start(k), start(k + 1)).
template <typename Item, typename Start>
void GroupSortUnique(const std::vector<std::pair<int, Item>>& records,
                     int key_count, const Start& start,
                     std::vector<Item>& items) {
  for (int k = 0; k <= key_count; ++k) start(k) = 0;
  for (const auto& [key, item] : records) ++start(key);
  for (int k = 0; k < key_count; ++k) start(k + 1) += start(k);
  // start(k) is now the end of k's run; filling back to front leaves it at
  // the run's start.
  items.resize(records.size());
  for (const auto& [key, item] : records) items[--start(key)] = item;
  int kept = 0;
  for (int k = 0; k < key_count; ++k) {
    const auto first = items.begin() + start(k);
    const auto last = items.begin() + start(k + 1);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    start(k) = kept;
    kept = static_cast<int>(std::move(first, unique_end, items.begin() + kept) -
                            items.begin());
  }
  start(key_count) = kept;
  items.resize(kept);
}

}  // namespace m2m

#endif  // M2M_COMMON_GROUPING_H_
