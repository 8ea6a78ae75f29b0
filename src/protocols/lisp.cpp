#include "protocols/lisp.h"

#include "ia/descriptors.h"
#include "util/bytes.h"

namespace dbgp::protocols {

using util::ByteReader;
using util::ByteWriter;

std::vector<std::uint8_t> encode_lisp_mapping(const LispMapping& mapping) {
  ByteWriter w;
  net::put_prefix(w, mapping.eid_prefix);
  w.put_varint(mapping.map_version);
  w.put_varint(mapping.rlocs.size());
  for (const auto& rloc : mapping.rlocs) w.put_u32(rloc.value());
  return w.take();
}

LispMapping decode_lisp_mapping(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  LispMapping mapping;
  mapping.eid_prefix = net::get_prefix(r);
  mapping.map_version = static_cast<std::uint32_t>(r.get_varint());
  const std::uint64_t raw_n = r.get_varint();
  r.expect_items(raw_n, 4);
  mapping.rlocs.reserve(static_cast<std::size_t>(raw_n));
  for (std::uint64_t i = 0; i < raw_n; ++i) {
    mapping.rlocs.push_back(net::Ipv4Address(r.get_u32()));
  }
  return mapping;
}

bool LispModule::better(const core::IaRoute& a, const core::IaRoute& b) const {
  const std::size_t len_a = a.ia.path_vector.hop_count();
  const std::size_t len_b = b.ia.path_vector.hop_count();
  if (len_a != len_b) return len_a < len_b;
  // Stable tie-break: peer identity, not arrival order. Sequence numbers
  // change on every re-advertisement, and an ordering that depends on them
  // lets two equal candidates ping-pong forever (no convergence).
  if (a.from_peer != b.from_peer) return a.from_peer < b.from_peer;
  return a.sequence < b.sequence;
}

void LispModule::annotate_export(const core::IaRoute& /*best*/,
                                 ia::IntegratedAdvertisement& out,
                                 const core::ExportContext& /*ctx*/) {
  if (out.destination == config_.mapping.eid_prefix ||
      config_.mapping.eid_prefix.covers(out.destination)) {
    out.add_island_descriptor(config_.island, ia::kProtoLisp, ia::keys::kLispMapping,
                              encode_lisp_mapping(config_.mapping));
  }
}

void LispModule::annotate_origin(ia::IntegratedAdvertisement& out,
                                 const core::ExportContext& ctx) {
  annotate_export(core::IaRoute{}, out, ctx);
}

void LispModule::update_mapping(std::vector<net::Ipv4Address> rlocs) {
  config_.mapping.rlocs = std::move(rlocs);
  ++config_.mapping.map_version;
}

std::optional<LispMapping> LispModule::mapping_for(const ia::IntegratedAdvertisement& ia,
                                                   ia::IslandId island) {
  std::optional<LispMapping> freshest;
  for (const auto& d : ia.island_descriptors()) {
    if (!(d.island == island) || d.protocol != ia::kProtoLisp ||
        d.key != ia::keys::kLispMapping) {
      continue;
    }
    try {
      auto mapping = decode_lisp_mapping(d.value);
      if (!freshest || mapping.map_version > freshest->map_version) {
        freshest = std::move(mapping);
      }
    } catch (const util::DecodeError&) {
    }
  }
  return freshest;
}

}  // namespace dbgp::protocols
