#ifndef M2M_TESTS_COMPILE_DIGEST_H_
#define M2M_TESTS_COMPILE_DIGEST_H_

// FNV-1a-64 digests of everything CompiledPlan::Compile produces, for the
// golden tests that pin the compile output: the message schedule (units,
// wait-for lists and message packing), the wire images of every node and the
// Theorem 3 state totals.

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "plan/node_tables.h"
#include "plan/serialization.h"

namespace m2m {

class Fnv1a64 {
 public:
  /// Folds `value` in as eight little-endian bytes.
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline std::string HexDigest(uint64_t digest) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << digest;
  return out.str();
}

struct CompileDigests {
  Fnv1a64 schedule;
  Fnv1a64 images;
  Fnv1a64 totals;

  /// Folds one compiled plan into the three digests.
  void Add(const CompiledPlan& compiled, const FunctionSet& functions) {
    const MessageSchedule& s = compiled.schedule();
    schedule.Add(s.units().size());
    for (const MessageUnit& unit : s.units()) {
      schedule.Add(static_cast<uint64_t>(unit.edge_index));
      schedule.Add(unit.is_partial ? 1 : 0);
      schedule.Add(static_cast<uint64_t>(unit.subject));
      schedule.Add(static_cast<uint64_t>(unit.unit_bytes));
    }
    for (const std::vector<int>& upstream : s.wait_for()) {
      schedule.Add(upstream.size());
      for (int u : upstream) schedule.Add(static_cast<uint64_t>(u));
    }
    schedule.Add(s.messages().size());
    for (const MessageSchedule::Message& message : s.messages()) {
      schedule.Add(static_cast<uint64_t>(message.edge_index));
      schedule.Add(message.unit_ids.size());
      for (int u : message.unit_ids) schedule.Add(static_cast<uint64_t>(u));
    }

    for (const std::vector<uint8_t>& image :
         EncodeAllNodeStates(compiled, functions)) {
      images.Add(image.size());
      for (uint8_t byte : image) images.Add(byte);
    }

    const StateTotals t = compiled.ComputeStateTotals();
    for (int64_t v : {t.raw_entries, t.preagg_entries, t.partial_entries,
                      t.outgoing_entries, t.evaluator_entries,
                      t.sum_multicast_tree_sizes,
                      t.sum_aggregation_tree_sizes}) {
      totals.Add(static_cast<uint64_t>(v));
    }
  }

  /// "schedule/images/totals" as three hex digests.
  std::string ToString() const {
    return HexDigest(schedule.value()) + "/" + HexDigest(images.value()) +
           "/" + HexDigest(totals.value());
  }
};

}  // namespace m2m

#endif  // M2M_TESTS_COMPILE_DIGEST_H_
