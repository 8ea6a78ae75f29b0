#include "ia/descriptor_interner.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace dbgp::ia {

namespace {

struct DescInternerMetrics {
  telemetry::Counter* hits;
  telemetry::Counter* misses;

  static DescInternerMetrics& get() {
    static DescInternerMetrics m = [] {
      auto& reg = telemetry::MetricsRegistry::global();
      return DescInternerMetrics{&reg.counter("dbgp.ia.interner.hits"),
                                 &reg.counter("dbgp.ia.interner.misses")};
    }();
    return m;
  }
};

std::size_t hash_bytes(std::span<const std::uint8_t> bytes) noexcept {
  // FNV-1a.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

void DescriptorInterner::intern(IntegratedAdvertisement& advert) {
  if (!advert.has_opaque_tail()) return;
  const std::span<const std::uint8_t> bytes = advert.opaque_tail().bytes();
  if (bytes.empty() || bytes.size() > kMaxInternedTailBytes) return;
  const std::size_t h = hash_bytes(bytes);
  auto& bucket = tails_[h];
  for (const Arena& canonical : bucket) {
    if (canonical->size() == bytes.size() &&
        std::equal(canonical->begin(), canonical->end(), bytes.begin())) {
      ++stats_.hits;
      DescInternerMetrics::get().hits->inc();
      // Rebinding releases the IA's grip on its whole-frame buffer; the
      // canonical arena holds only the tail bytes, at offset 0.
      if (advert.opaque_tail().arena != canonical) {
        advert.attach_opaque_tail({canonical, 0});
      }
      return;
    }
  }
  ++stats_.misses;
  DescInternerMetrics::get().misses->inc();
  auto canonical = std::make_shared<const std::vector<std::uint8_t>>(bytes.begin(), bytes.end());
  bytes_ += canonical->size();
  ++entries_;
  bucket.push_back(canonical);
  advert.attach_opaque_tail({std::move(canonical), 0});
  // Amortized collection: sweep only once the table has doubled past the
  // tails that survived the previous sweep. The misses since then pay for
  // it (at most two tails examined per miss), and the working set is never
  // forgotten.
  if (entries_ > gc_threshold_) gc();
}

std::size_t DescriptorInterner::live() const noexcept {
  std::size_t alive = 0;
  for (const auto& [hash, bucket] : tails_) {
    for (const Arena& canonical : bucket) {
      if (canonical.use_count() > 1) ++alive;
    }
  }
  return alive;
}

void DescriptorInterner::gc() {
  stats_.swept += entries_;
  for (auto it = tails_.begin(); it != tails_.end();) {
    auto& bucket = it->second;
    std::erase_if(bucket, [this](const Arena& canonical) {
      if (canonical.use_count() > 1) return false;
      bytes_ -= canonical->size();
      --entries_;
      return true;
    });
    it = bucket.empty() ? tails_.erase(it) : std::next(it);
  }
  gc_threshold_ = std::max(kGcFloor, 2 * entries_);
}

}  // namespace dbgp::ia
