#include "ia/frame_cache.h"

#include <algorithm>
#include <span>

#include "bgp/attr_interner.h"
#include "telemetry/metrics.h"

namespace dbgp::ia {

namespace {

struct CacheMetrics {
  telemetry::Counter* hits;
  telemetry::Counter* misses;

  static CacheMetrics& get() {
    static CacheMetrics m = [] {
      auto& reg = telemetry::MetricsRegistry::global();
      return CacheMetrics{&reg.counter("dbgp.codec.frame_cache.hits"),
                          &reg.counter("dbgp.codec.frame_cache.misses")};
    }();
    return m;
  }
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

struct Fnv {
  std::uint64_t h = kFnvOffset;

  void byte(std::uint8_t b) noexcept {
    h ^= b;
    h *= kFnvPrime;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  // Large descriptor payloads are sampled (length + strided bytes): the hash
  // only routes to an equality-verified bucket, so under-mixing costs a
  // false miss, never a false hit.
  void sampled(std::span<const std::uint8_t> data) noexcept {
    u64(data.size());
    const std::size_t step = std::max<std::size_t>(1, data.size() / 64);
    for (std::size_t i = 0; i < data.size(); i += step) byte(data[i]);
    if (!data.empty()) byte(data.back());
  }
};

}  // namespace

std::uint64_t FrameCache::content_hash(const IntegratedAdvertisement& ia,
                                       const CodecOptions& options) {
  Fnv f;
  f.byte(options.compress ? 1 : 0);
  f.byte(options.share_blobs ? 1 : 0);

  f.u64(ia.destination.address().value());
  f.byte(ia.destination.length());

  f.u64(ia.path_vector.elements().size());
  for (const auto& e : ia.path_vector.elements()) {
    f.byte(static_cast<std::uint8_t>(e.kind));
    switch (e.kind) {
      case PathElement::Kind::kAs:
        f.u64(e.asn);
        break;
      case PathElement::Kind::kIsland:
        f.u64(e.island_id.raw());
        break;
      case PathElement::Kind::kAsSet:
        f.u64(e.set.size());
        for (auto a : e.set) f.u64(a);
        break;
    }
  }

  f.u64(ia.island_ids.size());
  for (const auto& m : ia.island_ids) {
    f.u64(m.island.raw());
    f.u64(m.protocol);
    f.u64(m.members.size());
    for (auto a : m.members) f.u64(a);
  }

  // The attribute interner's content hash covers every baseline field
  // without encoding the block into a buffer.
  f.u64(bgp::hash_attrs(ia.baseline));

  if (ia.has_opaque_tail()) {
    // Identify the tail by provenance, not content: O(1), and two IAs
    // sharing an arena are byte-identical by construction. Different arenas
    // with equal bytes merely hash apart (a false miss).
    const auto& tail = ia.opaque_tail();
    f.u64(reinterpret_cast<std::uintptr_t>(static_cast<const void*>(tail.arena.get())));
    f.u64(tail.offset);
    f.u64(tail.arena->size());
  } else {
    f.byte(0xff);  // domain-separate materialized descriptors from tails
    f.u64(ia.path_descriptors().size());
    for (const auto& d : ia.path_descriptors()) {
      f.u64(d.protocol);
      f.u64(d.key);
      f.sampled(d.value);
    }
    f.u64(ia.island_descriptors().size());
    for (const auto& d : ia.island_descriptors()) {
      f.u64(d.island.raw());
      f.u64(d.protocol);
      f.u64(d.key);
      f.sampled(d.value);
    }
  }
  return f.h;
}

bool FrameCache::frame_equivalent(const Entry& entry, const IntegratedAdvertisement& ia,
                                  const CodecOptions& options) {
  // The destination first: the repeat check meets a different prefix at the
  // start of every fan-out, and that mismatch should cost no tail compare.
  if (!(entry.ia.destination == ia.destination) ||
      entry.options.compress != options.compress ||
      entry.options.share_blobs != options.share_blobs) {
    return false;
  }
  // encode_ia splices a clean opaque tail verbatim but re-encodes
  // materialized descriptors canonically; content-equal IAs on different
  // sides of that split could still produce different bytes, so a hit
  // requires the same encoding path.
  if (entry.ia.has_opaque_tail() != ia.has_opaque_tail()) return false;
  if (entry.ia.has_opaque_tail()) {
    const auto a = entry.ia.opaque_tail().bytes();
    const auto b = ia.opaque_tail().bytes();
    if (a.size() != b.size() ||
        (a.data() != b.data() && !std::equal(a.begin(), a.end(), b.begin()))) {
      return false;
    }
  }
  return entry.ia == ia;
}

SharedFrame FrameCache::get_or_encode(const IntegratedAdvertisement& ia,
                                      const CodecOptions& options,
                                      const std::function<std::vector<std::uint8_t>()>& encode) {
  // Repeat hit: the same frame as the previous lookup, found without hashing.
  // Equivalence is checked exactly as on the hashed path, so the frame is
  // the one an encode would produce.
  if (last_.entry != nullptr && frame_equivalent(*last_.entry, ia, options)) {
    CacheMetrics::get().hits->inc();
    return last_.entry->frame;
  }
  const std::uint64_t hash = content_hash(ia, options);
  auto it = entries_.find(hash);
  if (it != entries_.end() && frame_equivalent(it->second, ia, options)) {
    CacheMetrics::get().hits->inc();
    last_.entry = &it->second;
    return it->second.frame;
  }
  CacheMetrics::get().misses->inc();
  SharedFrame frame = make_shared_frame(encode());
  if (capacity_ == 0) return frame;
  if (it != entries_.end()) {
    // Hash collision with different content: newest advertisement wins.
    it->second = Entry{options, ia, frame};
    last_.entry = &it->second;
    return frame;
  }
  while (entries_.size() >= capacity_ && !order_.empty()) {
    auto victim = entries_.find(order_.front());
    if (&victim->second == last_.entry) last_.entry = nullptr;
    entries_.erase(victim);
    order_.pop_front();
  }
  last_.entry = &entries_.emplace(hash, Entry{options, ia, frame}).first->second;
  order_.push_back(hash);
  return frame;
}

void FrameCache::clear() {
  entries_.clear();
  order_.clear();
  last_.entry = nullptr;
}

}  // namespace dbgp::ia
