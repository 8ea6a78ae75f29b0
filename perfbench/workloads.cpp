#include "workloads.h"

#include <algorithm>
#include <unordered_set>

#include "core/speaker.h"
#include "net/ipv4.h"
#include "workload.h"

namespace dbgp::perfbench {

namespace {

// A fresh BGP-only IA (synthetic path and attributes) for `prefix`.
ia::SharedFrame announce(util::Rng& rng, const bench::WorkloadConfig& config,
                         const net::Prefix& prefix) {
  ia::IntegratedAdvertisement ia = bench::synth_ia(rng, config, 0, 0);
  ia.destination = prefix;
  return ia::make_shared_frame(core::DbgpSpeaker::encode_announce(ia, {}));
}

// Appends per-peer streams to `out` round-robin (stream lengths may differ).
void interleave(std::vector<std::vector<ia::SharedFrame>>& streams,
                std::vector<PeerFrame>& out) {
  std::size_t longest = 0;
  for (const auto& s : streams) longest = std::max(longest, s.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (std::size_t p = 0; p < streams.size(); ++p) {
      if (i < streams[p].size()) {
        out.push_back({static_cast<std::uint8_t>(p), std::move(streams[p][i])});
      }
    }
  }
}

}  // namespace

Replay disjoint_replay(std::uint64_t seed, std::size_t peers, std::size_t per_peer,
                       std::size_t ia_bytes) {
  bench::WorkloadConfig config;
  config.seed = seed;
  util::Rng rng(seed);
  std::unordered_set<net::Prefix, net::PrefixHash> seen;
  std::vector<std::vector<ia::SharedFrame>> streams(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    while (streams[p].size() < per_peer) {
      const ia::IntegratedAdvertisement ia =
          bench::synth_ia(rng, config, ia_bytes, ia_bytes == 0 ? 0 : 4, 0.9);
      if (!seen.insert(ia.destination).second) continue;
      streams[p].push_back(ia::make_shared_frame(core::DbgpSpeaker::encode_announce(ia, {})));
    }
  }
  Replay replay;
  replay.peers = peers;
  replay.expected_selected = seen.size();
  interleave(streams, replay.frames);
  return replay;
}

Replay fulltable_replay(std::uint64_t seed, std::size_t peers, std::size_t table,
                        std::size_t churn) {
  bench::WorkloadConfig config;
  config.seed = seed;
  util::Rng rng(seed);

  std::vector<net::Prefix> prefixes;
  std::unordered_set<net::Prefix, net::PrefixHash> seen;
  while (prefixes.size() < table) {
    const net::Prefix prefix = bench::synth_ia(rng, config, 0, 0).destination;
    if (seen.insert(prefix).second) prefixes.push_back(prefix);
  }

  Replay replay;
  replay.peers = peers;
  // held[p][i]: peer p currently announces prefixes[i].
  std::vector<std::vector<bool>> held(peers, std::vector<bool>(table, true));
  std::vector<std::vector<ia::SharedFrame>> streams(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    std::vector<std::size_t> order(table);
    for (std::size_t i = 0; i < table; ++i) order[i] = i;
    rng.shuffle(order);
    for (const std::size_t i : order) streams[p].push_back(announce(rng, config, prefixes[i]));
  }
  interleave(streams, replay.frames);

  for (std::size_t p = 0; p < peers; ++p) {
    streams[p].clear();
    for (std::size_t k = 0; k < churn; ++k) {
      const std::size_t i = rng.next_below(static_cast<std::uint32_t>(table));
      if (held[p][i] && rng.next_below(10) == 0) {
        held[p][i] = false;
        streams[p].push_back(
            ia::make_shared_frame(core::DbgpSpeaker::encode_withdraw(prefixes[i])));
      } else {
        held[p][i] = true;
        streams[p].push_back(announce(rng, config, prefixes[i]));
      }
    }
  }
  interleave(streams, replay.frames);

  for (std::size_t i = 0; i < table; ++i) {
    for (std::size_t p = 0; p < peers; ++p) {
      if (held[p][i]) {
        ++replay.expected_selected;
        break;
      }
    }
  }
  return replay;
}

}  // namespace dbgp::perfbench
