#include "server/snapshot.h"

#include <bit>
#include <fstream>

#include "util/bytes.h"

namespace dbgp::server {

namespace {

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_f64(util::ByteWriter& w, double v) { w.put_u64(std::bit_cast<std::uint64_t>(v)); }
double get_f64(util::ByteReader& r) { return std::bit_cast<double>(r.get_u64()); }

void put_record(util::ByteWriter& w, const core::DbgpSpeaker::RouteRecord& r) {
  net::put_prefix(w, r.prefix);
  w.put_varint(r.from_peer);
  w.put_varint(r.neighbor_as);
  w.put_u64(r.sequence);
  w.put_u8(r.eligible ? 1 : 0);
  w.put_varint(r.bytes.size());
  w.put_bytes(r.bytes);
}

core::DbgpSpeaker::RouteRecord get_record(util::ByteReader& r) {
  core::DbgpSpeaker::RouteRecord record;
  record.prefix = net::get_prefix(r);
  record.from_peer = static_cast<bgp::PeerId>(r.get_varint());
  record.neighbor_as = static_cast<bgp::AsNumber>(r.get_varint());
  record.sequence = r.get_u64();
  record.eligible = r.get_u8() != 0;
  const std::uint64_t size = r.get_varint();
  r.expect_items(size);
  const auto bytes = r.get_bytes(size);
  record.bytes.assign(bytes.begin(), bytes.end());
  return record;
}

void put_records(util::ByteWriter& w,
                 const std::vector<core::DbgpSpeaker::RouteRecord>& records) {
  w.put_varint(records.size());
  for (const auto& r : records) put_record(w, r);
}

std::vector<core::DbgpSpeaker::RouteRecord> get_records(util::ByteReader& r) {
  const std::uint64_t count = r.get_varint();
  r.expect_items(count, 6);
  std::vector<core::DbgpSpeaker::RouteRecord> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(get_record(r));
  return out;
}

void put_node(util::ByteWriter& w, const Snapshot::Node& node) {
  w.put_varint(node.decl.asn);
  w.put_string(node.decl.island);
  w.put_string(node.decl.protocol);
  w.put_u8(node.decl.abstract_island ? 1 : 0);
  w.put_varint(node.decl.members.size());
  for (const auto m : node.decl.members) w.put_varint(m);
  w.put_varint(node.decl.cost);
  w.put_varint(node.decl.bandwidth);
  w.put_varint(node.strips.size());
  for (const auto& s : node.strips) w.put_string(s);
  w.put_string(node.upgraded_protocol);
  w.put_u8(node.up ? 1 : 0);
  w.put_u8(node.retired ? 1 : 0);
  w.put_varint(node.state.originated.size());
  for (const auto& p : node.state.originated) net::put_prefix(w, p);
  w.put_u64(node.state.sequence);
  put_records(w, node.state.adj_in);
  put_records(w, node.state.selected);
  put_records(w, node.state.adj_out);
}

Snapshot::Node get_node(util::ByteReader& r) {
  Snapshot::Node node;
  node.decl.asn = static_cast<bgp::AsNumber>(r.get_varint());
  node.decl.island = r.get_string();
  node.decl.protocol = r.get_string();
  node.decl.abstract_island = r.get_u8() != 0;
  const std::uint64_t members = r.get_varint();
  r.expect_items(members);
  node.decl.members.reserve(members);
  for (std::uint64_t i = 0; i < members; ++i) {
    node.decl.members.push_back(static_cast<bgp::AsNumber>(r.get_varint()));
  }
  node.decl.cost = r.get_varint();
  node.decl.bandwidth = r.get_varint();
  const std::uint64_t strips = r.get_varint();
  r.expect_items(strips);
  node.strips.reserve(strips);
  for (std::uint64_t i = 0; i < strips; ++i) node.strips.push_back(r.get_string());
  node.upgraded_protocol = r.get_string();
  node.up = r.get_u8() != 0;
  node.retired = r.get_u8() != 0;
  const std::uint64_t originated = r.get_varint();
  r.expect_items(originated, 5);
  node.state.originated.reserve(originated);
  for (std::uint64_t i = 0; i < originated; ++i) {
    node.state.originated.push_back(net::get_prefix(r));
  }
  node.state.sequence = r.get_u64();
  node.state.adj_in = get_records(r);
  node.state.selected = get_records(r);
  node.state.adj_out = get_records(r);
  return node;
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snapshot) {
  util::ByteWriter w;
  w.put_u32(kSnapshotMagic);
  w.put_u16(kSnapshotVersion);
  put_f64(w, snapshot.sim_time);
  w.put_varint(snapshot.nodes.size());
  for (const auto& node : snapshot.nodes) put_node(w, node);
  w.put_varint(snapshot.links.size());
  for (const auto& link : snapshot.links) {
    w.put_varint(link.a);
    w.put_varint(link.b);
    w.put_u8(link.same_island ? 1 : 0);
    put_f64(w, link.latency);
    w.put_u8(link.up ? 1 : 0);
  }
  w.put_varint(snapshot.pathlets.size());
  for (const auto& p : snapshot.pathlets) {
    w.put_varint(p.asn);
    w.put_varint(p.fid);
    w.put_varint(p.vias.size());
    for (const auto v : p.vias) w.put_varint(v);
    w.put_u8(p.delivers ? 1 : 0);
    if (p.delivers) net::put_prefix(w, *p.delivers);
  }
  w.put_varint(snapshot.scion_paths.size());
  for (const auto& s : snapshot.scion_paths) {
    w.put_varint(s.asn);
    w.put_varint(s.hops.size());
    for (const auto h : s.hops) w.put_varint(h);
  }
  const std::uint64_t checksum = fnv1a64(w.bytes());
  w.put_u64(checksum);
  return w.take();
}

Snapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8 + 6) {
    throw SnapshotError("snapshot truncated: " + std::to_string(bytes.size()) +
                        " bytes is smaller than the fixed header");
  }
  // Verify the trailing checksum before trusting any field: a flipped bit
  // anywhere (including inside varint continuation bits) fails here rather
  // than decoding into plausible-looking garbage.
  const auto body = bytes.first(bytes.size() - 8);
  util::ByteReader tail(bytes.subspan(bytes.size() - 8));
  const std::uint64_t stored = tail.get_u64();
  const std::uint64_t computed = fnv1a64(body);
  if (stored != computed) {
    throw SnapshotError("snapshot checksum mismatch (corrupted or truncated file)");
  }
  try {
    util::ByteReader r(body);
    if (r.get_u32() != kSnapshotMagic) throw SnapshotError("not a D-BGP snapshot (bad magic)");
    const std::uint16_t version = r.get_u16();
    if (version != kSnapshotVersion) {
      throw SnapshotError("unsupported snapshot version " + std::to_string(version));
    }
    Snapshot snapshot;
    snapshot.sim_time = get_f64(r);
    const std::uint64_t nodes = r.get_varint();
    r.expect_items(nodes, 8);
    snapshot.nodes.reserve(nodes);
    for (std::uint64_t i = 0; i < nodes; ++i) snapshot.nodes.push_back(get_node(r));
    const std::uint64_t links = r.get_varint();
    r.expect_items(links, 12);
    snapshot.links.reserve(links);
    for (std::uint64_t i = 0; i < links; ++i) {
      Snapshot::Link link;
      link.a = static_cast<bgp::AsNumber>(r.get_varint());
      link.b = static_cast<bgp::AsNumber>(r.get_varint());
      link.same_island = r.get_u8() != 0;
      link.latency = get_f64(r);
      link.up = r.get_u8() != 0;
      snapshot.links.push_back(link);
    }
    const std::uint64_t pathlets = r.get_varint();
    r.expect_items(pathlets, 4);
    snapshot.pathlets.reserve(pathlets);
    for (std::uint64_t i = 0; i < pathlets; ++i) {
      scenario::PathletDecl decl;
      decl.asn = static_cast<bgp::AsNumber>(r.get_varint());
      decl.fid = static_cast<std::uint32_t>(r.get_varint());
      const std::uint64_t vias = r.get_varint();
      r.expect_items(vias);
      decl.vias.reserve(vias);
      for (std::uint64_t v = 0; v < vias; ++v) {
        decl.vias.push_back(static_cast<std::uint32_t>(r.get_varint()));
      }
      if (r.get_u8() != 0) decl.delivers = net::get_prefix(r);
      snapshot.pathlets.push_back(std::move(decl));
    }
    const std::uint64_t scions = r.get_varint();
    r.expect_items(scions, 2);
    snapshot.scion_paths.reserve(scions);
    for (std::uint64_t i = 0; i < scions; ++i) {
      scenario::ScionPathDecl decl;
      decl.asn = static_cast<bgp::AsNumber>(r.get_varint());
      const std::uint64_t hops = r.get_varint();
      r.expect_items(hops);
      decl.hops.reserve(hops);
      for (std::uint64_t h = 0; h < hops; ++h) {
        decl.hops.push_back(static_cast<std::uint32_t>(r.get_varint()));
      }
      snapshot.scion_paths.push_back(std::move(decl));
    }
    if (!r.at_end()) throw SnapshotError("snapshot has trailing bytes after the link table");
    return snapshot;
  } catch (const util::DecodeError& e) {
    throw SnapshotError(std::string("snapshot decode failed: ") + e.what());
  }
}

void save_snapshot(const Snapshot& snapshot, const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(snapshot);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw SnapshotError("cannot open snapshot file for writing: " + path);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!file) throw SnapshotError("short write to snapshot file: " + path);
}

Snapshot load_snapshot(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw SnapshotError("cannot open snapshot file: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
  return decode_snapshot(bytes);
}

}  // namespace dbgp::server
