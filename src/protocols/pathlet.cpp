#include "protocols/pathlet.h"

#include "ia/descriptors.h"
#include "util/bytes.h"

namespace dbgp::protocols {

using util::ByteReader;
using util::ByteWriter;

namespace {

void encode_one(ByteWriter& w, const Pathlet& p) {
  w.put_varint(p.fid);
  w.put_varint(p.vias.size());
  for (std::uint32_t v : p.vias) w.put_varint(v);
  if (p.delivers) {
    w.put_u8(1);
    net::put_prefix(w, *p.delivers);
  } else {
    w.put_u8(0);
  }
}

Pathlet decode_one(ByteReader& r) {
  Pathlet p;
  p.fid = static_cast<std::uint32_t>(r.get_varint());
  const std::uint64_t raw_n = r.get_varint();
  r.expect_items(raw_n);
  const std::size_t n = static_cast<std::size_t>(raw_n);
  p.vias.reserve(n);
  for (std::size_t i = 0; i < n; ++i) p.vias.push_back(static_cast<std::uint32_t>(r.get_varint()));
  if (r.get_u8() != 0) p.delivers = net::get_prefix(r);
  return p;
}

}  // namespace

std::vector<std::uint8_t> encode_pathlets(const std::vector<Pathlet>& pathlets) {
  ByteWriter w;
  w.put_varint(pathlets.size());
  for (const auto& p : pathlets) encode_one(w, p);
  return w.take();
}

std::vector<Pathlet> decode_pathlets(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint64_t raw_n = r.get_varint();
  r.expect_items(raw_n, 4);  // fid + via count + terminator flag, minimum
  const std::size_t n = static_cast<std::size_t>(raw_n);
  std::vector<Pathlet> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(decode_one(r));
  return out;
}

std::vector<std::uint8_t> encode_pathlet_ad(const Pathlet& pathlet) {
  ByteWriter w;
  encode_one(w, pathlet);
  return w.take();
}

Pathlet decode_pathlet_ad(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  return decode_one(r);
}

// -- PathletStore --------------------------------------------------------------

void PathletStore::add_local(Pathlet pathlet) {
  const std::uint32_t fid = pathlet.fid;
  pathlets_[fid] = {std::move(pathlet), true};
}

void PathletStore::add_learned(Pathlet pathlet) {
  const std::uint32_t fid = pathlet.fid;
  auto it = pathlets_.find(fid);
  if (it != pathlets_.end() && it->second.local) return;  // never demote locals
  pathlets_[fid] = {std::move(pathlet), false};
}

const Pathlet* PathletStore::find(std::uint32_t fid) const {
  auto it = pathlets_.find(fid);
  return it == pathlets_.end() ? nullptr : &it->second.pathlet;
}

std::optional<Pathlet> PathletStore::compose(std::uint32_t fid_a, std::uint32_t fid_b,
                                             std::uint32_t new_fid) {
  const Pathlet* a = find(fid_a);
  const Pathlet* b = find(fid_b);
  if (a == nullptr || b == nullptr) return std::nullopt;
  if (a->delivers.has_value()) return std::nullopt;  // a already terminates
  if (a->vias.empty() || b->vias.empty()) return std::nullopt;
  if (a->vias.back() != b->vias.front()) return std::nullopt;  // do not join
  Pathlet joined;
  joined.fid = new_fid;
  joined.vias = a->vias;
  joined.vias.insert(joined.vias.end(), b->vias.begin() + 1, b->vias.end());
  joined.delivers = b->delivers;
  add_local(joined);
  return joined;
}

std::vector<Pathlet> PathletStore::all() const {
  std::vector<Pathlet> out;
  out.reserve(pathlets_.size());
  for (const auto& [fid, e] : pathlets_) out.push_back(e.pathlet);
  return out;
}

std::vector<Pathlet> PathletStore::locals() const {
  std::vector<Pathlet> out;
  for (const auto& [fid, e] : pathlets_) {
    if (e.local) out.push_back(e.pathlet);
  }
  return out;
}

std::vector<Pathlet> PathletStore::delivering_to(const net::Prefix& prefix) const {
  std::vector<Pathlet> out;
  for (const auto& [fid, e] : pathlets_) {
    if (e.pathlet.delivers && e.pathlet.delivers->covers(prefix)) out.push_back(e.pathlet);
  }
  return out;
}

// -- Module ---------------------------------------------------------------------

std::size_t count_pathlets(const ia::IntegratedAdvertisement& ia) {
  std::size_t count = 0;
  for (const auto* d : ia.island_descriptors_for(ia::kProtoPathlets)) {
    if (d->key != ia::keys::kPathletList) continue;
    try {
      count += decode_pathlets(d->value).size();
    } catch (const util::DecodeError&) {
      // Malformed descriptor contributes nothing.
    }
  }
  return count;
}

bool PathletModule::import_filter(core::IaRoute& route) {
  if (store_ != nullptr) {
    for (const auto* d : route.ia.island_descriptors_for(ia::kProtoPathlets)) {
      if (d->key != ia::keys::kPathletList) continue;
      try {
        for (auto& p : decode_pathlets(d->value)) store_->add_learned(std::move(p));
      } catch (const util::DecodeError&) {
        return false;
      }
    }
  }
  return true;
}

bool PathletModule::better(const core::IaRoute& a, const core::IaRoute& b) const {
  // Shortest path vector first, MORE pathlets as the tie-break. Preferring
  // raw pathlet count outright is not monotone (longer routes accumulate
  // more islands' descriptors), which creates dispute-wheel oscillation in
  // a distributed control plane; the count-greedy archetype of Figure 9 is
  // evaluated on the loop-free DAG model in src/sim instead.
  const std::size_t len_a = a.ia.path_vector.hop_count();
  const std::size_t len_b = b.ia.path_vector.hop_count();
  if (len_a != len_b) return len_a < len_b;
  const std::size_t pa = count_pathlets(a.ia);
  const std::size_t pb = count_pathlets(b.ia);
  if (pa != pb) return pa > pb;
  // Stable tie-break (see WiserModule::better): peer identity before
  // arrival order, or equal candidates oscillate.
  if (a.from_peer != b.from_peer) return a.from_peer < b.from_peer;
  return a.sequence < b.sequence;
}

void PathletModule::annotate_export(const core::IaRoute& /*best*/,
                                    ia::IntegratedAdvertisement& out,
                                    const core::ExportContext& /*ctx*/) {
  if (store_ == nullptr) return;
  const auto pathlets = store_->locals();
  if (pathlets.empty()) return;
  out.add_island_descriptor(config_.island, ia::kProtoPathlets, ia::keys::kPathletList,
                            encode_pathlets(pathlets));
}

void PathletModule::annotate_origin(ia::IntegratedAdvertisement& out,
                                    const core::ExportContext& ctx) {
  annotate_export(core::IaRoute{}, out, ctx);
}

// -- Translation / redistribution ------------------------------------------------

std::vector<core::WithinIslandAd> PathletIngressTranslation::from_ia(
    const ia::IntegratedAdvertisement& ia) {
  std::vector<core::WithinIslandAd> ads;
  for (const auto* d : ia.island_descriptors_for(ia::kProtoPathlets)) {
    if (d->key != ia::keys::kPathletList) continue;
    std::vector<Pathlet> pathlets;
    try {
      pathlets = decode_pathlets(d->value);
    } catch (const util::DecodeError&) {
      continue;
    }
    for (const auto& p : pathlets) {
      core::WithinIslandAd ad;
      ad.protocol = ia::kProtoPathlets;
      ad.payload = encode_pathlet_ad(p);
      // Preserve the D-BGP path vector so the island's egress can re-attach
      // it when the route leaves the island again.
      ad.ingress_path_vector = ia.path_vector;
      ads.push_back(std::move(ad));
    }
  }
  return ads;
}

void PathletEgressTranslation::to_ia(const std::vector<core::WithinIslandAd>& ads,
                                     ia::IntegratedAdvertisement& out) {
  std::vector<Pathlet> pathlets;
  pathlets.reserve(ads.size());
  for (const auto& ad : ads) {
    if (ad.protocol != ia::kProtoPathlets) continue;
    try {
      pathlets.push_back(decode_pathlet_ad(ad.payload));
    } catch (const util::DecodeError&) {
      continue;
    }
    // Restore the preserved ingress path vector if the IA lacks one (a
    // purely within-island origination keeps its own).
    if (out.path_vector.empty() && !ad.ingress_path_vector.empty()) {
      out.path_vector = ad.ingress_path_vector;
    }
  }
  if (!pathlets.empty()) {
    out.add_island_descriptor(island_, ia::kProtoPathlets, ia::keys::kPathletList,
                              encode_pathlets(pathlets));
  }
}

std::optional<bgp::PathAttributes> PathletRedistribution::redistribute(
    const net::Prefix& prefix, const ia::IntegratedAdvertisement& ia) {
  // Only redistribute if some pathlet actually delivers to the prefix.
  bool delivers = false;
  for (const auto* d : ia.island_descriptors_for(ia::kProtoPathlets)) {
    if (d->key != ia::keys::kPathletList) continue;
    try {
      for (const auto& p : decode_pathlets(d->value)) {
        if (p.delivers && p.delivers->covers(prefix)) {
          delivers = true;
          break;
        }
      }
    } catch (const util::DecodeError&) {
      continue;
    }
  }
  if (!delivers) return std::nullopt;
  bgp::PathAttributes attrs;
  attrs.origin = bgp::Origin::kIncomplete;  // route came from another protocol
  attrs.as_path = ia.path_vector.to_bgp_as_path();
  attrs.as_path.prepend(asn_);
  attrs.next_hop = next_hop_;
  return attrs;
}

}  // namespace dbgp::protocols
