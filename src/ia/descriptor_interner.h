// Hash-consed IA descriptor-tail interning (DESIGN.md §14).
//
// Decoded Integrated Advertisements keep their descriptor section as a lazy
// OpaqueTail (DESIGN.md §7): an uncompressed decode copies just the tail
// bytes into a buffer of their own, and a compressed one adopts the whole
// decompressed body. A full table learned from several peers holds
// thousands of such tails whose bytes are identical — D-BGP descriptors are
// mostly shared island/protocol state (the paper's Section 3.2 sharing
// argument, and the `shared_fraction` knob of the synthetic workloads).
//
// The DescriptorInterner canonicalizes: equal tail byte strings share one
// tail-only arena, so N identical tails cost one allocation, and an IA from
// a compressed frame lets go of its body-sized buffer. Handles are the
// existing shared_ptr arena references — no new handle type — and live()
// counts canonical tails still referenced by at least one IA.
//
// Dead tails are collected in amortized O(1) per miss: intern() sweeps the
// table only once it holds more than max(kGcFloor, 2 x the tails that
// survived the previous sweep), so a sweep examines at most two tails per
// miss since the last one, and retained() never exceeds
// max(kGcFloor, 2 x peak live()) between calls.
//
// One interner belongs to one DbgpSpeaker. Like AttrInterner it is not
// thread-safe: all IA staging is sequential (stage_ia); the shard planners
// only copy shared_ptrs, whose refcounts are atomic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ia/integrated_advertisement.h"

namespace dbgp::ia {

struct DescriptorInternerStats {
  std::uint64_t hits = 0;    // tail matched an existing canonical arena
  std::uint64_t misses = 0;  // tail copied into a new canonical arena
  std::uint64_t swept = 0;   // canonical tails examined by collections
};

class DescriptorInterner {
 public:
  // Tails longer than this keep the buffer decode_ia gave them: hashing +
  // copying a bulk payload costs more than the dedup saves, and the
  // SharedFrame refcount already de-duplicates storage for in-flight
  // fan-out. Small descriptor sections — the island/protocol state that
  // actually repeats across a table — are what interning wins on.
  static constexpr std::size_t kMaxInternedTailBytes = 1024;
  // intern() never sweeps a table of this many tails or fewer.
  static constexpr std::size_t kGcFloor = 64;

  // Rebinds `advert`'s opaque tail to the canonical arena for its byte
  // content (creating one on first sight). No-op for IAs without a clean
  // tail (locally built or already-materialized-and-edited descriptors) and
  // for tails beyond kMaxInternedTailBytes.
  void intern(IntegratedAdvertisement& advert);

  const DescriptorInternerStats& stats() const noexcept { return stats_; }
  // Canonical tails currently referenced by at least one IA. O(table): for
  // inspection, never called on the staging path.
  std::size_t live() const noexcept;
  // Canonical tails held, referenced or not.
  std::size_t retained() const noexcept { return entries_; }
  // Bytes retained across all canonical tails (referenced or cached).
  std::size_t bytes() const noexcept { return bytes_; }
  double hit_rate() const noexcept {
    const std::uint64_t total = stats_.hits + stats_.misses;
    return total == 0 ? 0.0 : static_cast<double>(stats_.hits) / static_cast<double>(total);
  }

  // Drops canonical tails no longer referenced by any IA (use_count == 1:
  // only the interner's own reference is left) and re-arms intern()'s
  // trigger at max(kGcFloor, 2 x survivors). Call it after dropping many
  // IAs at once, rather than wait for the next trigger.
  void gc();

 private:
  using Arena = std::shared_ptr<const std::vector<std::uint8_t>>;

  // content hash -> canonical tail-only arenas (collisions chain).
  std::unordered_map<std::size_t, std::vector<Arena>> tails_;
  std::size_t entries_ = 0;
  std::size_t bytes_ = 0;
  std::size_t gc_threshold_ = kGcFloor;  // intern() sweeps once entries_ exceeds it
  DescriptorInternerStats stats_;
};

}  // namespace dbgp::ia
