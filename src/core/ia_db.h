// The IA DB (Figure 5): stores every Integrated Advertisement received, so
// the IA factory can provide pass-through — when a best path is selected,
// the factory re-reads the *incoming* IA for that path and copies over
// control information for protocols that were not used in selection.
//
// Like Quagga's bgp_node, one RouteNode per prefix holds everything the
// speaker keeps for it: the received candidates (the IA DB proper), the
// installed route (the Loc-RIB entry) and the frame last sent to each peer
// (adj-out). DESIGN.md §14 gives the layout and its byte cost.
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/types.h"
#include "ia/frame_cache.h"
#include "ia/integrated_advertisement.h"
#include "net/ipv4.h"

namespace dbgp::core {

// One received IA plus arrival metadata.
struct IaRoute {
  ia::IntegratedAdvertisement ia;
  bgp::PeerId from_peer = bgp::kInvalidPeer;
  bgp::AsNumber neighbor_as = 0;
  std::uint64_t sequence = 0;  // arrival order; deterministic tie-break
  // Causal backlink: the telemetry span of the frame (or origination) that
  // installed this route; 0 when tracing is off. Provenance queries walk
  // these links from any RIB state back to the origination.
  std::uint64_t via_span = 0;
  // Set by the active decision module's import filter. Ineligible routes are
  // never selected but remain stored: their control information must still
  // pass through if another route drags them along, and they become
  // candidates again if the active protocol changes.
  bool eligible = true;
};

// A prefix's route state. Allocator-aware, so a node inside an arena-backed
// table puts its candidate map and adj-out vector on the same arena.
struct RouteNode {
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
  using AdjOutEntry = std::pair<bgp::PeerId, ia::SharedFrame>;

  explicit RouteNode(const allocator_type& alloc = {}) : candidates(alloc), adj_out(alloc) {}

  // Nothing left to keep: the decision that empties a node erases it.
  bool empty() const noexcept { return candidates.empty() && !selected && adj_out.empty(); }

  // Received IAs by peer. Map nodes never move, so a plan's pointer to its
  // winner survives every commit but its own.
  std::pmr::map<bgp::PeerId, IaRoute> candidates;
  // The installed route, an owned copy: a later upsert may overwrite the
  // winner's candidate slot before the next decision compares against it.
  std::optional<IaRoute> selected;
  // Last advertisement sent to each peer, sorted by peer id, for delta
  // suppression. Frames are shared with the frame cache.
  std::pmr::vector<AdjOutEntry> adj_out;
};

// The speaker's route table, in prefix order.
using RouteTable = std::pmr::map<net::Prefix, RouteNode>;

}  // namespace dbgp::core
