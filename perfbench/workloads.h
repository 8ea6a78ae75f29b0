// Seeded input synthesis for the replay workloads. The speaker under test
// sees only the frames these produce; everything is a pure function of the
// seed and the scale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ia/frame_cache.h"

namespace dbgp::perfbench {

// One frame as a given peer (index into the replay's peer list) sends it.
struct PeerFrame {
  std::uint8_t peer = 0;
  ia::SharedFrame frame;
};

// A replay: frames in arrival order, plus the Loc-RIB size a correct
// speaker must end with.
struct Replay {
  std::size_t peers = 0;
  std::vector<PeerFrame> frames;
  std::size_t expected_selected = 0;
};

// `per_peer` announcements from each of `peers` peers, every prefix distinct
// across all peers, interleaved round-robin. `ia_bytes` == 0 gives BGP-only
// IAs; otherwise each IA carries four pass-through protocols padded to about
// `ia_bytes`, 90% of the descriptor bytes shared between them.
Replay disjoint_replay(std::uint64_t seed, std::size_t peers, std::size_t per_peer,
                       std::size_t ia_bytes);

// One `table`-prefix table announced by every peer, each with its own paths
// and its own order, then `churn` frames per peer (90% re-announce with a new
// path, 10% withdraw of a prefix the peer holds), both phases interleaved
// round-robin across peers.
Replay fulltable_replay(std::uint64_t seed, std::size_t peers, std::size_t table,
                        std::size_t churn);

}  // namespace dbgp::perfbench
