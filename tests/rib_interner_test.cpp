// Interner and arena property tests (DESIGN.md §14): refcount accounting on
// AttrInterner under random churn, handle-identity reinstall suppression in
// the Loc-RIB, descriptor-tail canonicalization with its amortized GC (exact
// sweep-work and retention bounds), and arena-reuse invariants on the
// pmr-backed RIBs. Part of `dbgp_concurrency_tests` (ctest -L concurrency)
// so dbgp_tsan_check / dbgp_asan_check replay the sharded-churn case under
// the sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <memory_resource>
#include <utility>
#include <variant>
#include <vector>

#include "bgp/speaker.h"
#include "core/speaker.h"
#include "ia/codec.h"
#include "ia/descriptor_interner.h"
#include "protocols/bgp_module.h"
#include "protocols/wiser.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dbgp {
namespace {

net::Prefix nth_prefix(std::uint32_t i) {
  return net::Prefix(net::Ipv4Address((10u << 24) | (i << 8)), 24);
}

// -- AttrInterner refcounts ---------------------------------------------------

bgp::AttrHandle intern_path(bgp::AttrInterner& interner, std::vector<bgp::AsNumber> path,
                            std::uint32_t pref = 0) {
  bgp::AttrBuilder builder;
  builder.attrs().as_path = bgp::AsPath(std::move(path));
  builder.attrs().next_hop = net::Ipv4Address(192, 0, 2, 1);
  if (pref != 0) builder.attrs().local_pref = pref;
  return std::move(builder).intern(interner);
}

TEST(AttrInterner, DedupRefcountAndRelease) {
  bgp::AttrInterner interner;
  {
    bgp::AttrHandle a = intern_path(interner, {1, 2, 3});
    bgp::AttrHandle b = intern_path(interner, {1, 2, 3});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.get(), b.get());  // one canonical entry
    EXPECT_EQ(interner.live(), 1u);
    EXPECT_EQ(interner.stats().hits, 1u);
    EXPECT_EQ(interner.stats().misses, 1u);

    bgp::AttrHandle c = a;  // copy shares the entry
    EXPECT_EQ(c, a);
    EXPECT_EQ(interner.live(), 1u);

    bgp::AttrHandle d = std::move(c);  // move transfers, source goes null
    EXPECT_FALSE(static_cast<bool>(c));
    EXPECT_EQ(d, a);
    EXPECT_EQ(interner.live(), 1u);

    bgp::AttrHandle e = intern_path(interner, {1, 2, 3, 4});
    EXPECT_NE(e, a);
    EXPECT_EQ(interner.live(), 2u);
    EXPECT_GT(interner.bytes(), 0u);
  }
  // All handles dead: every entry erased, byte accounting back to zero.
  EXPECT_EQ(interner.live(), 0u);
  EXPECT_EQ(interner.bytes(), 0u);
}

TEST(AttrInterner, BuilderSeededFromHandleReinternsCanonically) {
  bgp::AttrInterner interner;
  bgp::AttrHandle base = intern_path(interner, {7, 8});
  // Unedited round-trip through a builder lands on the same entry.
  bgp::AttrBuilder same(base);
  EXPECT_EQ(std::move(same).intern(interner), base);
  EXPECT_EQ(interner.live(), 1u);
  // An edit produces a distinct entry and leaves the original untouched.
  bgp::AttrBuilder edited(base);
  edited.attrs().as_path.prepend(6);
  bgp::AttrHandle derived = std::move(edited).intern(interner);
  EXPECT_NE(derived, base);
  EXPECT_EQ(base->as_path.hop_count(), 2u);
  EXPECT_EQ(derived->as_path.hop_count(), 3u);
  EXPECT_EQ(interner.live(), 2u);
}

// Property: under random intern/drop churn the live-entry count always equals
// the number of distinct attribute contents currently held, and full drain
// returns the interner to empty (refcounts never leak or double-free).
TEST(AttrInterner, PropertyChurnRefcountsBalance) {
  constexpr std::uint32_t kContents = 8;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    bgp::AttrInterner interner;
    util::Rng rng(seed);
    std::vector<std::pair<std::uint32_t, bgp::AttrHandle>> held;
    std::array<std::uint32_t, kContents> counts{};
    std::uint64_t interned = 0;
    for (int step = 0; step < 2000; ++step) {
      if (held.empty() || rng.next_u32() % 3 != 0) {
        const std::uint32_t j = rng.next_u32() % kContents;
        held.emplace_back(j, intern_path(interner, {j + 1, j + 2}, 100 + j));
        ++interned;
        ++counts[j];
      } else {
        const std::size_t victim = rng.next_u32() % held.size();
        --counts[held[victim].first];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      if (step % 100 == 0) {
        std::size_t distinct = 0;
        for (const auto count : counts) distinct += count > 0 ? 1 : 0;
        ASSERT_EQ(interner.live(), distinct) << "seed " << seed << " step " << step;
      }
    }
    const auto& stats = interner.stats();
    EXPECT_EQ(stats.hits + stats.misses, interned);
    EXPECT_LE(interner.live(), static_cast<std::size_t>(kContents));
    held.clear();
    EXPECT_EQ(interner.live(), 0u);
    EXPECT_EQ(interner.bytes(), 0u);
  }
}

// -- Loc-RIB handle-identity install ------------------------------------------

TEST(LocRib, AttrIdenticalReinstallIsSuppressed) {
  bgp::AttrInterner interner;
  util::RibArena arena;
  bgp::LocRib rib(arena.resource());

  bgp::Route route;
  route.prefix = nth_prefix(1);
  route.attrs = intern_path(interner, {1, 2});
  route.from_peer = 0;
  EXPECT_TRUE(rib.install(route));

  // A *different handle object* for the same content still compares equal
  // (pointer identity on the canonical entry) — no change, no churn.
  bgp::Route same = route;
  same.attrs = intern_path(interner, {1, 2});
  same.sequence = 99;  // arrival bookkeeping alone must not count as a change
  EXPECT_FALSE(rib.install(same));

  bgp::Route other = route;
  other.attrs = intern_path(interner, {1, 2, 3});
  EXPECT_TRUE(rib.install(other));
  EXPECT_TRUE(rib.install(route));  // flip back is a change again

  bgp::Route moved = route;
  moved.from_peer = 5;  // same attrs via a different peer IS a change
  EXPECT_TRUE(rib.install(moved));
}

// The non-allocating read surfaces: candidates() is a peer-ordered span into
// arena storage, and adj-out reads go through the visitor — no per-call
// vector materialization anywhere.
TEST(RibViews, SpanCandidatesAndAdvertisedVisitor) {
  bgp::AttrInterner interner;
  util::RibArena arena;
  bgp::AdjRibIn adj_in(arena.resource());
  const auto prefix = nth_prefix(3);
  for (const bgp::PeerId peer : {2u, 0u, 1u}) {
    bgp::Route route;
    route.prefix = prefix;
    route.attrs = intern_path(interner, {peer + 1});
    route.from_peer = peer;
    EXPECT_FALSE(adj_in.upsert(std::move(route)));
  }
  const std::span<const bgp::Route> candidates = adj_in.candidates(prefix);
  ASSERT_EQ(candidates.size(), 3u);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i].from_peer, i);  // sorted by peer regardless of arrival
  }
  EXPECT_TRUE(adj_in.candidates(nth_prefix(99)).empty());

  bgp::AdjRibOut adj_out(arena.resource());
  const bgp::AttrHandle attrs = intern_path(interner, {1, 2});
  EXPECT_TRUE(adj_out.advertise(7, prefix, attrs));
  EXPECT_FALSE(adj_out.advertise(7, prefix, attrs));  // handle-identical: no change
  EXPECT_TRUE(adj_out.advertise(7, nth_prefix(4), intern_path(interner, {1})));
  EXPECT_EQ(adj_out.advertised_count(7), 2u);
  std::size_t visited = 0;
  adj_out.for_each_advertised(7, [&](const net::Prefix& p, const bgp::AttrHandle& h) {
    EXPECT_TRUE(static_cast<bool>(h));
    visited += p == prefix ? 1 : 0;
  });
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(adj_out.find(7, prefix), attrs);
  EXPECT_FALSE(static_cast<bool>(adj_out.find(9, prefix)));
}

// -- Speaker-level churn ------------------------------------------------------

// Minimal two-speaker harness (same shape as the bgp_speaker_test Mesh) that
// records every frame it shuttles so tests can replay captured updates.
class MiniMesh {
 public:
  bgp::BgpSpeaker& add(bgp::AsNumber asn) {
    bgp::BgpSpeaker::Config config;
    config.asn = asn;
    config.router_id = net::Ipv4Address(asn);
    config.next_hop = net::Ipv4Address(asn);
    speakers_.emplace(asn, bgp::BgpSpeaker(config));
    return speakers_.at(asn);
  }

  void connect(bgp::AsNumber a, bgp::AsNumber b) {
    const bgp::PeerId id_ab = speakers_.at(a).add_peer(b);
    const bgp::PeerId id_ba = speakers_.at(b).add_peer(a);
    wiring_[{a, id_ab}] = {b, id_ba};
    wiring_[{b, id_ba}] = {a, id_ab};
    enqueue(a, speakers_.at(a).start_peer(id_ab, 0.0));
    enqueue(b, speakers_.at(b).start_peer(id_ba, 0.0));
    pump();
  }

  void originate(bgp::AsNumber asn, const net::Prefix& prefix) {
    enqueue(asn, speakers_.at(asn).originate(prefix, 0.0));
    pump();
  }

  void withdraw(bgp::AsNumber asn, const net::Prefix& prefix) {
    enqueue(asn, speakers_.at(asn).withdraw_origin(prefix, 0.0));
    pump();
  }

  bgp::BgpSpeaker& speaker(bgp::AsNumber asn) { return speakers_.at(asn); }

  // Frames delivered *to* `to`, in arrival order, as (peer-id-at-to, bytes).
  const std::vector<std::pair<bgp::PeerId, std::vector<std::uint8_t>>>& inbox(
      bgp::AsNumber to) const {
    return inboxes_.at(to);
  }

  void pump() {
    std::size_t guard = 0;
    while (!queue_.empty()) {
      ASSERT_LT(guard++, 100000u) << "message storm";
      auto [from, msg] = std::move(queue_.front());
      queue_.pop_front();
      const auto dest = wiring_.at({from, msg.peer});
      inboxes_[dest.first].emplace_back(dest.second, msg.bytes);
      enqueue(dest.first,
              speakers_.at(dest.first).handle_bytes(dest.second, msg.bytes, 0.0));
    }
  }

 private:
  void enqueue(bgp::AsNumber from, std::vector<bgp::Outgoing> out) {
    for (auto& msg : out) queue_.emplace_back(from, std::move(msg));
  }

  std::map<bgp::AsNumber, bgp::BgpSpeaker> speakers_;
  std::map<std::pair<bgp::AsNumber, bgp::PeerId>, std::pair<bgp::AsNumber, bgp::PeerId>>
      wiring_;
  std::map<bgp::AsNumber, std::vector<std::pair<bgp::PeerId, std::vector<std::uint8_t>>>>
      inboxes_;
  std::deque<std::pair<bgp::AsNumber, bgp::Outgoing>> queue_;
};

// Regression for the interned-install contract end to end: replaying a
// byte-identical UPDATE must produce *no* outgoing messages — the re-interned
// attrs hit the same canonical entry, install() reports no change, and no
// delta is queued for the downstream peer.
TEST(BgpSpeakerChurn, DuplicateUpdateEmitsNothingDownstream) {
  MiniMesh mesh;
  for (bgp::AsNumber asn : {1, 2, 3}) mesh.add(asn);
  mesh.connect(1, 2);
  mesh.connect(2, 3);
  const auto prefix = nth_prefix(0);
  mesh.originate(1, prefix);
  ASSERT_TRUE(mesh.speaker(3).loc_rib().find(prefix));

  // Find the UPDATE AS2 received from AS1 and replay it byte-for-byte.
  std::size_t replayed = 0;
  for (const auto& [peer, bytes] : mesh.inbox(2)) {
    const bgp::Message msg = bgp::decode_message(bytes);
    const auto* update = std::get_if<bgp::UpdateMessage>(&msg);
    if (update == nullptr || update->nlri.empty()) continue;
    const auto out = mesh.speaker(2).handle_bytes(peer, bytes, 1.0);
    EXPECT_TRUE(out.empty()) << "duplicate update produced " << out.size() << " frames";
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
  EXPECT_TRUE(mesh.speaker(3).loc_rib().find(prefix));
}

// Arena-reuse property: rounds of announce/withdraw churn return the
// speaker's interner live-set and arena bytes-in-use to the post-session
// baseline every round — handles pin entries exactly as long as a RIB
// references them, and pmr storage is fully returned to the pool.
TEST(BgpSpeakerChurn, InternerAndArenaReturnToBaseline) {
  MiniMesh mesh;
  mesh.add(1);
  mesh.add(2);
  mesh.connect(1, 2);
  const bgp::BgpSpeaker& rx = mesh.speaker(2);
  const std::size_t live_baseline = rx.attr_interner().live();
  const std::size_t bytes_baseline = rx.rib_arena().bytes_in_use();

  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < 64; ++i) mesh.originate(1, nth_prefix(i));
    // All 64 routes share one origin attribute set: interning collapses the
    // whole announce wave to a handful of canonical entries.
    EXPECT_GT(rx.attr_interner().live(), live_baseline);
    EXPECT_LE(rx.attr_interner().live(), live_baseline + 4) << "round " << round;
    EXPECT_GT(rx.rib_arena().bytes_in_use(), bytes_baseline);

    for (std::uint32_t i = 0; i < 64; ++i) mesh.withdraw(1, nth_prefix(i));
    EXPECT_EQ(rx.attr_interner().live(), live_baseline) << "round " << round;
    EXPECT_EQ(rx.rib_arena().bytes_in_use(), bytes_baseline) << "round " << round;
  }
  // The pool retains capacity across rounds (reuse, not growth): peak
  // reservation after round 3 equals what round 1 established.
  EXPECT_GT(rx.rib_arena().bytes_reserved(), 0u);
}

// -- RibArena accounting ------------------------------------------------------

TEST(RibArena, MeterAndReleaseBalance) {
  util::RibArena arena;
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  {
    std::pmr::vector<std::uint64_t> v(arena.resource());
    v.resize(10000);
    EXPECT_GE(arena.bytes_in_use(), 10000 * sizeof(std::uint64_t));
    EXPECT_GE(arena.bytes_peak(), arena.bytes_in_use());
  }
  // Container gone: in-use drops to zero but the pool keeps its upstream
  // reservation for reuse.
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_GT(arena.bytes_reserved(), 0u);
  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
}

// -- DescriptorInterner -------------------------------------------------------

ia::IntegratedAdvertisement make_ia(std::uint32_t prefix_index, std::uint8_t salt) {
  ia::IntegratedAdvertisement advert;
  advert.destination = nth_prefix(prefix_index);
  advert.path_vector.prepend_as(30);
  advert.path_vector.prepend_island(ia::IslandId::assigned(7));
  advert.baseline.as_path = advert.path_vector.to_bgp_as_path();
  advert.baseline.next_hop = net::Ipv4Address(198, 51, 100, 1);
  advert.set_path_descriptor(ia::kProtoWiser, 1, {salt, 2, 3, 4});
  advert.set_path_descriptor(ia::kProtoBgpSec, 2, std::vector<std::uint8_t>(64, salt));
  return advert;
}

ia::IntegratedAdvertisement decode_fresh(const ia::IntegratedAdvertisement& advert) {
  return ia::decode_ia(ia::encode_ia(advert));
}

TEST(DescriptorInterner, EqualTailsShareOneCanonicalArena) {
  ia::DescriptorInterner interner;
  // Two separate decodes of the same descriptors: distinct frame arenas,
  // identical tail bytes — different destinations do not matter, the tail
  // only covers the blob table + descriptor section.
  ia::IntegratedAdvertisement a = decode_fresh(make_ia(1, 9));
  ia::IntegratedAdvertisement b = decode_fresh(make_ia(2, 9));
  ASSERT_TRUE(a.has_opaque_tail());
  ASSERT_NE(a.opaque_tail().arena, b.opaque_tail().arena);

  interner.intern(a);
  interner.intern(b);
  EXPECT_EQ(interner.stats().misses, 1u);
  EXPECT_EQ(interner.stats().hits, 1u);
  EXPECT_EQ(interner.live(), 1u);
  EXPECT_EQ(a.opaque_tail().arena, b.opaque_tail().arena);
  // Canonical arenas are tail-only: the whole-frame buffer is droppable.
  EXPECT_EQ(a.opaque_tail().offset, 0u);
  EXPECT_EQ(interner.bytes(), a.opaque_tail().bytes().size());

  // The rebound tail still decodes to the same descriptors.
  const auto* da = a.find_path_descriptor(ia::kProtoWiser, 1);
  const auto* db = b.find_path_descriptor(ia::kProtoWiser, 1);
  ASSERT_NE(da, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(da->value, db->value);
}

TEST(DescriptorInterner, SkipsLocalAndEditedAdvertisements) {
  ia::DescriptorInterner interner;
  ia::IntegratedAdvertisement local = make_ia(1, 1);  // never encoded: no tail
  interner.intern(local);
  ia::IntegratedAdvertisement edited = decode_fresh(make_ia(2, 2));
  edited.set_path_descriptor(ia::kProtoWiser, 1, {0xFF});  // dirties the tail
  interner.intern(edited);
  EXPECT_EQ(interner.stats().hits, 0u);
  EXPECT_EQ(interner.stats().misses, 0u);
  EXPECT_EQ(interner.live(), 0u);
}

TEST(DescriptorInterner, GcReclaimsDeadTailsAndChurnStaysBounded) {
  ia::DescriptorInterner interner;
  std::size_t max_bytes = 0;
  // 300 distinct tails, every advertisement dropped immediately: the
  // opportunistic GC inside intern() must keep retained bytes bounded
  // instead of accumulating 300 dead canonical arenas.
  for (std::uint32_t i = 0; i < 300; ++i) {
    ia::IntegratedAdvertisement advert = decode_fresh(make_ia(i, static_cast<std::uint8_t>(i)));
    interner.intern(advert);
    max_bytes = std::max(max_bytes, interner.bytes());
  }
  EXPECT_EQ(interner.stats().misses, 300u);  // all tails distinct
  const std::size_t tail_size = interner.bytes() / std::max<std::size_t>(interner.live() + 1, 1);
  EXPECT_LT(max_bytes, 300 * std::max<std::size_t>(tail_size, 64));
  interner.gc();
  EXPECT_EQ(interner.live(), 0u);
  EXPECT_EQ(interner.bytes(), 0u);

  // A still-referenced tail survives GC.
  ia::IntegratedAdvertisement kept = decode_fresh(make_ia(0, 7));
  interner.intern(kept);
  interner.gc();
  EXPECT_EQ(interner.live(), 1u);
  EXPECT_GT(interner.bytes(), 0u);
}

// The amortized sweep, measured exactly. `swept` counts every canonical tail
// a collection examines, so an O(table) census per miss shows up as
// quadratic growth; the trigger promises at most two tails examined per miss
// plus one floor's worth, and a table no larger than max(floor, 2 x peak
// live) between calls.
constexpr std::uint32_t kDistinctTails = 10'000;

ia::IntegratedAdvertisement distinct_tail(std::uint32_t i) {
  ia::IntegratedAdvertisement advert = make_ia(i, 0);
  std::vector<std::uint8_t> index(4);
  for (std::size_t b = 0; b < index.size(); ++b) {
    index[b] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  advert.set_path_descriptor(ia::kProtoWiser, 1, std::move(index));
  return decode_fresh(advert);
}

::testing::AssertionResult amortized(const ia::DescriptorInterner& interner,
                                     std::size_t peak_live) {
  constexpr std::size_t kFloor = ia::DescriptorInterner::kGcFloor;
  const ia::DescriptorInternerStats& stats = interner.stats();
  if (stats.swept > 2 * stats.misses + kFloor) {
    return ::testing::AssertionFailure()
           << "swept " << stats.swept << " tails for " << stats.misses << " misses";
  }
  if (interner.retained() > std::max(kFloor, 2 * peak_live)) {
    return ::testing::AssertionFailure()
           << "retained " << interner.retained() << " tails at peak live " << peak_live;
  }
  return ::testing::AssertionSuccess();
}

TEST(DescriptorInterner, SweepsStayAmortizedWhenEveryTailDies) {
  ia::DescriptorInterner interner;
  for (std::uint32_t i = 0; i < kDistinctTails; ++i) {
    ia::IntegratedAdvertisement advert = distinct_tail(i);
    interner.intern(advert);
    // Only the advertisement being interned is alive.
    ASSERT_TRUE(amortized(interner, 1)) << "after tail " << i;
  }
  EXPECT_EQ(interner.stats().misses, kDistinctTails);
  EXPECT_GT(interner.stats().swept, 0u);  // dead tails were collected
  EXPECT_EQ(interner.live(), 0u);
}

TEST(DescriptorInterner, SweepsStayAmortizedWhenEveryTailLives) {
  ia::DescriptorInterner interner;
  std::vector<ia::IntegratedAdvertisement> kept;
  kept.reserve(kDistinctTails);
  for (std::uint32_t i = 0; i < kDistinctTails; ++i) {
    kept.push_back(distinct_tail(i));
    interner.intern(kept.back());
    ASSERT_TRUE(amortized(interner, kept.size())) << "after tail " << i;
  }
  EXPECT_EQ(interner.stats().misses, kDistinctTails);
  EXPECT_EQ(interner.live(), kDistinctTails);
  EXPECT_EQ(interner.retained(), kDistinctTails);
}

// -- Sharded churn under the thread pool (TSan/ASan surface) ------------------

core::DbgpConfig dbgp_as(bgp::AsNumber asn) {
  core::DbgpConfig config;
  config.asn = asn;
  config.next_hop = net::Ipv4Address(asn);
  config.max_batch = 256;
  return config;
}

// A sender whose originations carry real descriptor tails (Wiser path-cost
// plus island descriptors), so the receiver's descriptor interner has
// content to canonicalize. Both senders use identical module config, making
// their tails byte-identical — the cross-peer dedup case.
struct WiserSender {
  core::LookupService lookup;
  protocols::WiserCostExchange exchange{&lookup};
  core::DbgpSpeaker speaker;

  explicit WiserSender(bgp::AsNumber asn) : speaker(wiser_config(asn)) {
    speaker.add_module(std::make_unique<protocols::WiserModule>(
        protocols::WiserModule::Config{ia::IslandId::assigned(0xA), 5,
                                       net::Ipv4Address(203, 0, 113, 77)},
        &exchange));
    speaker.add_module(std::make_unique<protocols::BgpModule>());
    speaker.add_peer(1);
  }

  static core::DbgpConfig wiser_config(bgp::AsNumber asn) {
    core::DbgpConfig config = dbgp_as(asn);
    config.island = ia::IslandId::assigned(0xA);
    config.island_protocol = ia::kProtoWiser;
    config.active_protocol = ia::kProtoWiser;
    return config;
  }
};

// A crash drops every learned IA at once. reset_routes() releases their
// canonical tails right away rather than at the interner's next
// growth-triggered sweep, and restoring the exported state re-interns the
// same set.
TEST(DescriptorInterner, ResetRoutesReleasesTailsAndRestoreReinterns) {
  core::DbgpSpeaker rx(dbgp_as(1));
  rx.add_module(std::make_unique<protocols::BgpModule>());
  const bgp::PeerId from_a = rx.add_peer(900);
  const bgp::PeerId from_b = rx.add_peer(901);
  rx.add_peer(2);  // downstream, so the frame cache holds exported IAs too
  WiserSender sender_a(900);
  WiserSender sender_b(901);
  for (std::uint32_t i = 0; i < 50; ++i) {
    rx.handle_frame(from_a, sender_a.speaker.originate(nth_prefix(i)).at(0).bytes());
    rx.handle_frame(from_b, sender_b.speaker.originate(nth_prefix(i + 50)).at(0).bytes());
  }
  const std::size_t live = rx.descriptor_interner().live();
  ASSERT_GT(live, 0u);
  const core::DbgpSpeaker::SpeakerState state = rx.export_state();

  rx.reset_routes();
  EXPECT_EQ(rx.descriptor_interner().live(), 0u);
  EXPECT_EQ(rx.descriptor_interner().bytes(), 0u);

  rx.restore_state(state);
  EXPECT_EQ(rx.descriptor_interner().live(), live);
  EXPECT_EQ(rx.selected_prefixes().size(), 100u);
}

// Chaos-churn the parallel pipeline while the per-speaker interners run on
// the sequential commit path: announce from two upstreams, withdraw
// everything, repeat, then drain completely. Invariants: descriptor
// interning dedups across peers and prefixes, a fully drained speaker holds
// zero live canonical tails, and every round drains the route table and
// its arena bytes to zero.
TEST(RibInternerConcurrency, ShardedChurnDrainsToBaseline) {
  util::ThreadPool pool(4);
  core::DbgpSpeaker rx(dbgp_as(1));
  rx.add_module(std::make_unique<protocols::BgpModule>());
  const bgp::PeerId from_a = rx.add_peer(900);
  const bgp::PeerId from_b = rx.add_peer(901);
  rx.add_peer(2);  // downstream, so withdraw planning emits
  rx.set_parallel(&pool, 8);

  WiserSender sender_a(900);
  WiserSender sender_b(901);

  constexpr std::uint32_t kPrefixes = 200;
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < kPrefixes; ++i) {
      rx.enqueue_frame(from_a, sender_a.speaker.originate(nth_prefix(i)).at(0).bytes());
      if (i % 2 == 0) {
        rx.enqueue_frame(from_b, sender_b.speaker.originate(nth_prefix(i)).at(0).bytes());
      }
    }
    rx.flush();
    ASSERT_EQ(rx.selected_prefixes().size(), kPrefixes);
    // Every advertisement carries the same descriptor section, so interning
    // collapses 300 received tails onto a handful of canonical arenas.
    const auto& stats = rx.descriptor_interner().stats();
    EXPECT_GT(stats.hits, stats.misses) << "round " << round;
    EXPECT_LE(rx.descriptor_interner().live(), 4u) << "round " << round;

    for (std::uint32_t i = 0; i < kPrefixes; ++i) {
      sender_a.speaker.withdraw_origin(nth_prefix(i));
      rx.enqueue_frame(from_a, core::DbgpSpeaker::encode_withdraw(nth_prefix(i)));
      if (i % 2 == 0) {
        sender_b.speaker.withdraw_origin(nth_prefix(i));
        rx.enqueue_frame(from_b, core::DbgpSpeaker::encode_withdraw(nth_prefix(i)));
      }
    }
    rx.flush();
    EXPECT_TRUE(rx.selected_prefixes().empty()) << "round " << round;
    // The encode-once frame cache may pin IA copies (bounded FIFO), so a
    // drained table holds at most the distinct-tail count — here 1 — never
    // O(announcements received).
    EXPECT_LE(rx.descriptor_interner().live(), 1u) << "round " << round;
    // Every commit erased the route node it left empty, so a drained table
    // holds nothing in the arena.
    EXPECT_TRUE(rx.routes().empty()) << "round " << round;
    EXPECT_EQ(rx.rib_arena().bytes_in_use(), 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace dbgp
