// FrameCache: encode-once fan-out for advertisement frames.
//
// A D-BGP speaker advertising one best route to N peers usually produces N
// byte-identical frames — the per-peer export pipeline only rewrites the IA
// when a protocol binds control information to the peer (e.g. BGPSec) or an
// export filter diverges at an island boundary. The cache keys candidate
// frames by a content hash of the IA (+ codec options), verifies hits by
// full equality, and hands every peer the same refcounted frame, so the
// encoder runs once per distinct advertisement instead of once per peer.
//
// Misses from export-policy divergence are handled structurally: a rewritten
// IA hashes (and compares) differently, so it gets its own entry; stale
// entries age out of the bounded FIFO.
//
// A fan-out asks for the same frame N times in a row, so the entry returned
// last is checked for equality before anything is hashed: every repeat after
// a decision's first peer costs one equality check, not a content hash.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ia/codec.h"
#include "ia/integrated_advertisement.h"

namespace dbgp::ia {

// A wire frame shared across peers (and across the simulated network's
// in-flight messages): immutable bytes behind a refcount.
using SharedFrame = std::shared_ptr<const std::vector<std::uint8_t>>;

inline SharedFrame make_shared_frame(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

class FrameCache {
 public:
  explicit FrameCache(std::size_t capacity = 128) : capacity_(capacity) {}

  // Returns the cached frame for an equal (IA, options) pair, or invokes
  // `encode` and caches its result. The encoder's output is whatever frame
  // the caller sends on the wire (it may wrap the IA bytes in speaker
  // framing); the cache only requires that equal inputs produce equal
  // frames.
  SharedFrame get_or_encode(const IntegratedAdvertisement& ia, const CodecOptions& options,
                            const std::function<std::vector<std::uint8_t>()>& encode);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  void clear();

 private:
  struct Entry {
    CodecOptions options;
    IntegratedAdvertisement ia;  // cheap copy while the tail is lazy
    SharedFrame frame;
  };

  // The entry returned last, or null. It points into this cache's own map,
  // so a copied or moved cache starts (and a moved-from one is left)
  // without one; clear() and eviction of the entry reset it too.
  struct LastEntry {
    const Entry* entry = nullptr;

    LastEntry() = default;
    LastEntry(const LastEntry&) noexcept {}
    LastEntry(LastEntry&& other) noexcept { other.entry = nullptr; }
    LastEntry& operator=(const LastEntry&) noexcept {
      entry = nullptr;
      return *this;
    }
    LastEntry& operator=(LastEntry&& other) noexcept {
      entry = nullptr;
      other.entry = nullptr;
      return *this;
    }
  };

  static std::uint64_t content_hash(const IntegratedAdvertisement& ia,
                                    const CodecOptions& options);
  static bool frame_equivalent(const Entry& entry, const IntegratedAdvertisement& ia,
                               const CodecOptions& options);

  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::deque<std::uint64_t> order_;  // insertion order for FIFO eviction
  LastEntry last_;
};

}  // namespace dbgp::ia
