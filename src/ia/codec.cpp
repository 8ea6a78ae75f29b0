#include "ia/codec.h"

#include <map>

#include "ia/compress.h"
#include "telemetry/metrics.h"
#include "telemetry/timer.h"
#include "util/bytes.h"

namespace dbgp::ia {

using util::ByteReader;
using util::ByteWriter;
using util::DecodeError;

namespace {

constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagCompressed = 0x01;

void encode_path_vector(ByteWriter& w, const IaPathVector& pv) {
  w.put_varint(pv.elements().size());
  for (const auto& e : pv.elements()) {
    w.put_u8(static_cast<std::uint8_t>(e.kind));
    switch (e.kind) {
      case PathElement::Kind::kAs:
        w.put_varint(e.asn);
        break;
      case PathElement::Kind::kIsland:
        w.put_varint(e.island_id.raw());
        break;
      case PathElement::Kind::kAsSet:
        w.put_varint(e.set.size());
        for (auto a : e.set) w.put_varint(a);
        break;
    }
  }
}

IaPathVector decode_path_vector(ByteReader& r) {
  const std::uint64_t raw_count = r.get_varint();
  r.expect_items(raw_count, 2);  // kind byte + at least one payload byte
  const std::size_t count = static_cast<std::size_t>(raw_count);
  std::vector<PathElement> elements;
  elements.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto kind = static_cast<PathElement::Kind>(r.get_u8());
    switch (kind) {
      case PathElement::Kind::kAs:
        elements.push_back(PathElement::as(static_cast<bgp::AsNumber>(r.get_varint())));
        break;
      case PathElement::Kind::kIsland:
        elements.push_back(PathElement::island(IslandId::from_raw(r.get_varint())));
        break;
      case PathElement::Kind::kAsSet: {
        const std::uint64_t raw_n = r.get_varint();
        r.expect_items(raw_n);
        const std::size_t n = static_cast<std::size_t>(raw_n);
        std::vector<bgp::AsNumber> set;
        set.reserve(n);
        for (std::size_t j = 0; j < n; ++j) {
          set.push_back(static_cast<bgp::AsNumber>(r.get_varint()));
        }
        elements.push_back(PathElement::as_set(std::move(set)));
        break;
      }
      default:
        throw DecodeError("bad path-vector element kind");
    }
  }
  return IaPathVector(std::move(elements));
}

struct BlobTable {
  std::vector<const std::vector<std::uint8_t>*> blobs;
  std::map<std::vector<std::uint8_t>, std::size_t> index;
  std::size_t shared_savings = 0;
  bool share = true;

  std::size_t intern(const std::vector<std::uint8_t>& value) {
    if (share) {
      auto it = index.find(value);
      if (it != index.end()) {
        shared_savings += value.size();
        return it->second;
      }
      const std::size_t id = blobs.size();
      blobs.push_back(&value);
      index.emplace(value, id);
      return id;
    }
    blobs.push_back(&value);
    return blobs.size() - 1;
  }
};

// Writes the blob-table + descriptor section from materialized descriptor
// vectors — the eager path, and the reference the splice fast path must
// reproduce byte-for-byte for canonically encoded input (verified by the
// fast-path property tests).
struct TailStats {
  std::size_t descriptor_bytes = 0;
  std::size_t shared_savings = 0;
};

TailStats encode_descriptor_tail(ByteWriter& w, const IntegratedAdvertisement& ia,
                                 bool share_blobs) {
  const auto& path_descriptors = ia.path_descriptors();
  const auto& island_descriptors = ia.island_descriptors();

  BlobTable table;
  table.share = share_blobs;
  std::vector<std::size_t> path_blob(path_descriptors.size());
  for (std::size_t i = 0; i < path_descriptors.size(); ++i) {
    path_blob[i] = table.intern(path_descriptors[i].value);
  }
  std::vector<std::size_t> island_blob(island_descriptors.size());
  for (std::size_t i = 0; i < island_descriptors.size(); ++i) {
    island_blob[i] = table.intern(island_descriptors[i].value);
  }

  TailStats stats;
  stats.shared_savings = table.shared_savings;
  w.put_varint(table.blobs.size());
  for (const auto* blob : table.blobs) {
    stats.descriptor_bytes += blob->size();
    w.put_varint(blob->size());
    w.put_bytes(*blob);
  }

  w.put_varint(path_descriptors.size());
  for (std::size_t i = 0; i < path_descriptors.size(); ++i) {
    w.put_varint(path_descriptors[i].protocol);
    w.put_varint(path_descriptors[i].key);
    w.put_varint(path_blob[i]);
  }

  w.put_varint(island_descriptors.size());
  for (std::size_t i = 0; i < island_descriptors.size(); ++i) {
    w.put_varint(island_descriptors[i].island.raw());
    w.put_varint(island_descriptors[i].protocol);
    w.put_varint(island_descriptors[i].key);
    w.put_varint(island_blob[i]);
  }
  return stats;
}

// Walks the tail without materializing payloads: bounds-checks every varint,
// skips over blob bytes, and range-checks blob indices. Lazy decode runs
// this eagerly so malformed input still fails inside decode_ia, while
// well-formed descriptor payloads are never copied until first access.
void validate_descriptor_tail(ByteReader& r) {
  const std::uint64_t raw_blob_count = r.get_varint();
  r.expect_items(raw_blob_count);  // length varint per blob
  const std::size_t blob_count = static_cast<std::size_t>(raw_blob_count);
  for (std::size_t i = 0; i < blob_count; ++i) {
    const std::size_t size = static_cast<std::size_t>(r.get_varint());
    r.get_bytes(size);  // skip, bounds-checked
  }

  const std::uint64_t raw_pd_count = r.get_varint();
  r.expect_items(raw_pd_count, 3);  // protocol + key + blob index
  const std::size_t pd_count = static_cast<std::size_t>(raw_pd_count);
  for (std::size_t i = 0; i < pd_count; ++i) {
    r.get_varint();  // protocol
    r.get_varint();  // key
    if (r.get_varint() >= blob_count) throw DecodeError("blob index out of range");
  }

  const std::uint64_t raw_id_count = r.get_varint();
  r.expect_items(raw_id_count, 4);  // island + protocol + key + blob index
  const std::size_t id_count = static_cast<std::size_t>(raw_id_count);
  for (std::size_t i = 0; i < id_count; ++i) {
    r.get_varint();  // island
    r.get_varint();  // protocol
    r.get_varint();  // key
    if (r.get_varint() >= blob_count) throw DecodeError("blob index out of range");
  }

  if (!r.at_end()) throw DecodeError("trailing bytes after IA body");
}

struct EncodeResult {
  std::vector<std::uint8_t> body;
  std::size_t baseline_bytes = 0;
  std::size_t descriptor_bytes = 0;
  std::size_t shared_savings = 0;
};

EncodeResult encode_body(const IntegratedAdvertisement& ia, bool share_blobs,
                         bool allow_splice) {
  ByteWriter w;
  net::put_prefix(w, ia.destination);

  encode_path_vector(w, ia.path_vector);

  w.put_varint(ia.island_ids.size());
  for (const auto& m : ia.island_ids) {
    w.put_varint(m.island.raw());
    w.put_varint(m.protocol);
    w.put_varint(m.members.size());
    for (auto a : m.members) w.put_varint(a);
  }

  // Baseline attributes: an RFC 4271 attribute block with a 16-bit length.
  const std::size_t baseline_len_at = w.reserve_u16();
  const std::size_t before_baseline = w.size();
  ia.baseline.encode(w);
  const std::size_t baseline_bytes = w.size() - before_baseline;
  w.patch_u16(baseline_len_at, static_cast<std::uint16_t>(baseline_bytes));

  // Pass-through fast path: splice the original wire bytes of the descriptor
  // section. Disabled when sharing is off (the ablation configurations must
  // re-encode to strip the dedup) or when a size breakdown is requested.
  if (allow_splice && share_blobs && ia.has_opaque_tail()) {
    w.put_bytes(ia.opaque_tail().bytes());
    return {w.take(), baseline_bytes, 0, 0};
  }

  const TailStats stats = encode_descriptor_tail(w, ia, share_blobs);
  return {w.take(), baseline_bytes, stats.descriptor_bytes, stats.shared_savings};
}

// Codec latency/size histograms, shared by every encode/decode in the
// process. These bracket exactly the serialization cost the Section 5
// stress test attributes Beagle's throughput loss to; the registry kill
// switch reduces each to a branch.
struct CodecMetrics {
  telemetry::Histogram* encode_seconds;
  telemetry::Histogram* decode_seconds;
  telemetry::Histogram* encode_bytes;
  telemetry::Histogram* decode_bytes;
  telemetry::Counter* encode_spliced;
  telemetry::Counter* decode_lazy;

  static CodecMetrics& get() {
    static CodecMetrics m = [] {
      auto& reg = telemetry::MetricsRegistry::global();
      auto size_bounds = telemetry::Histogram::exponential_bounds(64.0, 1 << 24, 2.0);
      return CodecMetrics{&reg.histogram("dbgp.codec.encode_seconds"),
                          &reg.histogram("dbgp.codec.decode_seconds"),
                          &reg.histogram("dbgp.codec.encode_bytes", size_bounds),
                          &reg.histogram("dbgp.codec.decode_bytes", size_bounds),
                          &reg.counter("dbgp.codec.encode_spliced"),
                          &reg.counter("dbgp.codec.decode_lazy")};
    }();
    return m;
  }
};

std::vector<std::uint8_t> encode_ia_impl(const IntegratedAdvertisement& ia,
                                         const CodecOptions& options, bool allow_splice,
                                         EncodeResult* breakdown) {
  telemetry::ScopedTimer timer(CodecMetrics::get().encode_seconds);
  const bool spliced = allow_splice && options.share_blobs && ia.has_opaque_tail();
  EncodeResult result = encode_body(ia, options.share_blobs, allow_splice);
  if (spliced) CodecMetrics::get().encode_spliced->inc();
  ByteWriter out;
  out.put_u8(kVersion);
  std::vector<std::uint8_t> bytes;
  if (options.compress) {
    auto compressed = lz_compress(result.body);
    if (compressed.size() < result.body.size()) {
      out.put_u8(kFlagCompressed);
      out.put_varint(result.body.size());
      out.put_bytes(compressed);
      bytes = out.take();
      CodecMetrics::get().encode_bytes->record(static_cast<double>(bytes.size()));
      if (breakdown != nullptr) *breakdown = std::move(result);
      return bytes;
    }
  }
  out.put_u8(0);
  out.put_bytes(result.body);
  bytes = out.take();
  CodecMetrics::get().encode_bytes->record(static_cast<double>(bytes.size()));
  if (breakdown != nullptr) *breakdown = std::move(result);
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> encode_ia(const IntegratedAdvertisement& ia,
                                    const CodecOptions& options) {
  return encode_ia_impl(ia, options, /*allow_splice=*/true, nullptr);
}

void decode_descriptor_tail(std::span<const std::uint8_t> tail,
                            std::vector<PathDescriptor>& path_out,
                            std::vector<IslandDescriptor>& island_out) {
  ByteReader r(tail);

  const std::uint64_t raw_blob_count = r.get_varint();
  r.expect_items(raw_blob_count);  // length varint per blob
  const std::size_t blob_count = static_cast<std::size_t>(raw_blob_count);
  std::vector<std::vector<std::uint8_t>> blobs;
  blobs.reserve(blob_count);
  for (std::size_t i = 0; i < blob_count; ++i) {
    const std::size_t size = static_cast<std::size_t>(r.get_varint());
    auto bytes = r.get_bytes(size);
    blobs.emplace_back(bytes.begin(), bytes.end());
  }
  auto blob_at = [&blobs](std::uint64_t idx) -> const std::vector<std::uint8_t>& {
    if (idx >= blobs.size()) throw DecodeError("blob index out of range");
    return blobs[static_cast<std::size_t>(idx)];
  };

  const std::uint64_t raw_pd_count = r.get_varint();
  r.expect_items(raw_pd_count, 3);  // protocol + key + blob index
  const std::size_t pd_count = static_cast<std::size_t>(raw_pd_count);
  path_out.reserve(pd_count);
  for (std::size_t i = 0; i < pd_count; ++i) {
    PathDescriptor d;
    d.protocol = static_cast<ProtocolId>(r.get_varint());
    d.key = static_cast<std::uint16_t>(r.get_varint());
    d.value = blob_at(r.get_varint());
    path_out.push_back(std::move(d));
  }

  const std::uint64_t raw_id_count = r.get_varint();
  r.expect_items(raw_id_count, 4);  // island + protocol + key + blob index
  const std::size_t id_count = static_cast<std::size_t>(raw_id_count);
  island_out.reserve(id_count);
  for (std::size_t i = 0; i < id_count; ++i) {
    IslandDescriptor d;
    d.island = IslandId::from_raw(r.get_varint());
    d.protocol = static_cast<ProtocolId>(r.get_varint());
    d.key = static_cast<std::uint16_t>(r.get_varint());
    d.value = blob_at(r.get_varint());
    island_out.push_back(std::move(d));
  }

  if (!r.at_end()) throw DecodeError("trailing bytes after IA body");
}

IntegratedAdvertisement decode_ia(std::span<const std::uint8_t> data) {
  telemetry::ScopedTimer timer(CodecMetrics::get().decode_seconds);
  CodecMetrics::get().decode_bytes->record(static_cast<double>(data.size()));
  ByteReader outer(data);
  const std::uint8_t version = outer.get_u8();
  if (version != kVersion) throw DecodeError("unsupported IA version");
  const std::uint8_t flags = outer.get_u8();

  std::vector<std::uint8_t> decompressed;
  const bool compressed = (flags & kFlagCompressed) != 0;
  ByteReader r(std::span<const std::uint8_t>{});
  if (compressed) {
    const std::size_t size = static_cast<std::size_t>(outer.get_varint());
    decompressed = lz_decompress(outer.get_bytes(outer.remaining()), size);
    r = ByteReader(decompressed);
  } else {
    r = ByteReader(outer.get_bytes(outer.remaining()));
  }

  IntegratedAdvertisement ia;
  ia.destination = net::get_prefix(r);

  ia.path_vector = decode_path_vector(r);

  const std::uint64_t raw_memberships = r.get_varint();
  r.expect_items(raw_memberships, 3);  // island + protocol + count
  const std::size_t memberships = static_cast<std::size_t>(raw_memberships);
  for (std::size_t i = 0; i < memberships; ++i) {
    IslandMembership m;
    m.island = IslandId::from_raw(r.get_varint());
    m.protocol = static_cast<ProtocolId>(r.get_varint());
    const std::uint64_t raw_count = r.get_varint();
    r.expect_items(raw_count);
    const std::size_t count = static_cast<std::size_t>(raw_count);
    m.members.reserve(count);
    for (std::size_t j = 0; j < count; ++j) {
      m.members.push_back(static_cast<bgp::AsNumber>(r.get_varint()));
    }
    ia.island_ids.push_back(std::move(m));
  }

  const std::size_t baseline_len = r.get_u16();
  ia.baseline = bgp::PathAttributes::decode(r, baseline_len);

  // Everything from here on is the blob-table + descriptor section.
  // Validate its structure now (malformed frames must fail inside
  // decode_ia), but keep the bytes opaque: payloads are materialized only if
  // something actually reads descriptors — a pass-through AS never does.
  const std::size_t tail_offset = r.position();
  const std::size_t tail_size = r.remaining();
  {
    ByteReader check = r;  // cheap copy: span + cursor
    validate_descriptor_tail(check);
  }

  // A trivial tail (zero blobs, zero descriptors — every BGP-only IA) is
  // represented directly; no arena allocation, nothing to materialize.
  if (tail_size <= 3) {
    ia.attach_opaque_tail({});
    return ia;
  }

  OpaqueTail tail;
  if (compressed) {
    // The decompressed body is already an owned buffer; adopt it (zero-copy).
    tail.arena = std::make_shared<const std::vector<std::uint8_t>>(std::move(decompressed));
    tail.offset = tail_offset;
  } else {
    // Copy just the descriptor section out of the caller's transient buffer.
    const auto bytes = r.get_bytes(tail_size);
    tail.arena =
        std::make_shared<const std::vector<std::uint8_t>>(bytes.begin(), bytes.end());
    tail.offset = 0;
  }
  ia.attach_opaque_tail(std::move(tail));
  CodecMetrics::get().decode_lazy->inc();
  return ia;
}

IaSizeBreakdown measure_ia(const IntegratedAdvertisement& ia, const CodecOptions& options) {
  // Force the eager encoder: the breakdown must account blob sharing even
  // when the IA could be spliced.
  IaSizeBreakdown b;
  EncodeResult result;
  b.total = encode_ia_impl(ia, options, /*allow_splice=*/false, &result).size();
  b.baseline_bytes = result.baseline_bytes;
  b.descriptor_bytes = result.descriptor_bytes;
  b.shared_savings = result.shared_savings;
  return b;
}

}  // namespace dbgp::ia
