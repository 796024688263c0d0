#ifndef M2M_SIM_ATTEMPT_NAMESPACES_H_
#define M2M_SIM_ATTEMPT_NAMESPACES_H_

#include <cstdint>
#include <functional>

#include "common/ids.h"

namespace m2m {

/// The attempt-index namespaces of one round (docs/THEORY.md §8). Every
/// delivery question is keyed (round, from, to, attempt), so each kind of
/// transmission draws its attempt indices from a range of its own: its
/// outcomes are independent draws from the same pure link function, and a
/// driver can single a kind out by range.
///   data                1 .. RetryPolicy::max_attempts
///   probe, reply        kProbeAttemptBase / kReplyAttemptBase + 1 .. + 8
///   report, report ack  kReportAttemptBase + offset + 1 .. + 8
///   image, epoch bump   kImageAttemptBase + offset + 1 .. + 8
///   install ack         kInstallAckAttemptBase + offset + 1 .. + 8
/// where 8 is kProbeAttempts or kControlHopAttempts and offset is
/// ControlAttemptOffset(seq). Two control messages of one kind whose seq
/// agree mod kControlSeqPeriod share their fate on a link within a round.
inline constexpr int kProbeAttemptBase = 1000;
inline constexpr int kReplyAttemptBase = 1500;
inline constexpr int kReportAttemptBase = 2000;
inline constexpr int kImageAttemptBase = 3000;
inline constexpr int kInstallAckAttemptBase = 4000;

/// Transmission attempts per probe and per probe reply each round. With
/// per-attempt drop probability p, a live neighbor stays silent for a
/// whole round only with probability ~2 p^kProbeAttempts.
inline constexpr int kProbeAttempts = 8;
/// Transmission attempts per control-message hop per round.
inline constexpr int kControlHopAttempts = 8;
/// Attempt indices a control message owns per hop, and distinct offsets.
inline constexpr int kControlAttemptStride = 16;
inline constexpr int kControlSeqPeriod = 60;

/// The per-message offset of a control message's attempt indices.
inline constexpr int ControlAttemptOffset(int seq) {
  return (seq % kControlSeqPeriod) * kControlAttemptStride;
}

/// Attempt indices of one control kind: its offsets times the stride.
inline constexpr int kControlSpan = kControlSeqPeriod * kControlAttemptStride;

// The ranges of the table are disjoint.
static_assert(kProbeAttempts >= 1 && kControlHopAttempts >= 1);
static_assert(kProbeAttemptBase + kProbeAttempts < kReplyAttemptBase);
static_assert(kReplyAttemptBase + kProbeAttempts < kReportAttemptBase);
static_assert(kControlHopAttempts <= kControlAttemptStride);
static_assert(kReportAttemptBase + kControlSpan <= kImageAttemptBase);
static_assert(kImageAttemptBase + kControlSpan <= kInstallAckAttemptBase);

/// Transmits one hop (from -> to) up to `attempts` times, with attempt
/// indices base + 1 .. base + attempts, until one delivers, adding each
/// transmission to `transmissions`. True iff one delivered.
inline bool TryHop(const std::function<bool(NodeId, NodeId, int)>& delivers,
                   NodeId from, NodeId to, int base, int attempts,
                   int64_t& transmissions) {
  for (int k = 1; k <= attempts; ++k) {
    transmissions += 1;
    if (delivers(from, to, base + k)) return true;
  }
  return false;
}

}  // namespace m2m

#endif  // M2M_SIM_ATTEMPT_NAMESPACES_H_
