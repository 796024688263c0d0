#ifndef M2M_EVENT_TRANSPORT_H_
#define M2M_EVENT_TRANSPORT_H_

#include "runtime/network.h"

namespace m2m::event {

/// Round-compatibility transport: holds the per-round LossyLinkModel that
/// EventNetwork::RunCompatRound hands to RuntimeNetwork::RunRoundLossy.
class RoundCompatTransport {
 public:
  /// `links` must outlive the transport (it is a per-round binding).
  explicit RoundCompatTransport(const LossyLinkModel& links)
      : links_(&links) {}

  const LossyLinkModel& links() const { return *links_; }

 private:
  const LossyLinkModel* links_;
};

}  // namespace m2m::event

#endif  // M2M_EVENT_TRANSPORT_H_
