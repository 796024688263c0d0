#include "sim/physical_layer.h"

namespace m2m {

LossyLinkModel PhysicalLayer::Bind(int round) const {
  LossyLinkModel links;
  // && asks each source only when every earlier one delivers.
  links.attempt_delivers = [layer = *this, round](NodeId from, NodeId to,
                                                  int attempt) {
    return !(layer.down != nullptr &&
             ((*layer.down)[from] || (*layer.down)[to])) &&
           (layer.mobility == nullptr ||
            layer.mobility->LinkUpAt(round, from, to)) &&
           (layer.faults == nullptr ||
            layer.faults->AttemptDelivers(round, from, to, attempt)) &&
           (layer.channel == nullptr ||
            layer.channel->AttemptDelivers(round, from, to, attempt)) &&
           (layer.base == nullptr || layer.base->attempt_delivers == nullptr ||
            layer.base->attempt_delivers(from, to, attempt));
  };
  if (down != nullptr || faults != nullptr ||
      (base != nullptr && base->node_alive != nullptr)) {
    links.node_alive = [layer = *this, round](NodeId node) {
      return !(layer.down != nullptr && (*layer.down)[node]) &&
             (layer.faults == nullptr ||
              layer.faults->NodeAliveAt(round, node)) &&
             (layer.base == nullptr || layer.base->node_alive == nullptr ||
              layer.base->node_alive(node));
    };
  }
  if (channel != nullptr && channel->has_effects()) {
    links.hop_effects = [model = channel, round](NodeId from, NodeId to,
                                                 int attempt) {
      return model->EffectsFor(round, from, to, attempt);
    };
    links.max_delay_ticks = channel->options().max_delay_ticks;
  } else if (base != nullptr) {
    links.hop_effects = base->hop_effects;
    links.max_delay_ticks = base->max_delay_ticks;
  }
  return links;
}

}  // namespace m2m
