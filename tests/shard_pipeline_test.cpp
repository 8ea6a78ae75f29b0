// Sharded-pipeline tests: the DESIGN.md §13 determinism contract for the
// speaker's parallel batch path. The plan/commit split promises that emitted
// frames, RIB contents, stats, traces, and audits are bit-identical at every
// thread count and shard count, traced or not, in either dissemination mode
// — these tests compare the sharded pipeline against the 1-thread run
// output-for-output, byte-for-byte. Part of the
// `dbgp_concurrency_tests` binary (ctest -L concurrency) so the
// dbgp_tsan_check target re-runs exactly this surface under ThreadSanitizer
// and dbgp_asan_check under AddressSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audit_stream.h"
#include "core/lookup_service.h"
#include "core/speaker.h"
#include "ia/codec.h"
#include "ia/frame_cache.h"
#include "protocols/bgp_module.h"
#include "simnet/chaos.h"
#include "simnet/network.h"
#include "telemetry/causal.h"
#include "telemetry/metrics.h"
#include "telemetry/perfetto_export.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dbgp {
namespace {

core::DbgpConfig bgp_as(bgp::AsNumber asn, std::size_t max_batch = 256) {
  core::DbgpConfig config;
  config.asn = asn;
  config.next_hop = net::Ipv4Address(asn);
  config.max_batch = max_batch;
  return config;
}

net::Prefix nth_prefix(std::uint32_t i) {
  return net::Prefix(net::Ipv4Address((10u << 24) | (i << 8)), 24);
}

// A frame as fed to (or emitted by) a speaker, with the bytes flattened so
// equality is literal byte equality.
struct WireFrame {
  bgp::PeerId peer = bgp::kInvalidPeer;
  std::vector<std::uint8_t> bytes;

  bool operator==(const WireFrame&) const = default;
};

// Synthesizes a realistic update stream: every prefix announced by AS900,
// a third of them also announced by AS901 (route choice at the receiver),
// a third withdrawn, and a tail of re-announcements — enough churn that
// batching coalesces, decisions flip, and withdraw planning runs.
std::vector<WireFrame> make_stream(std::uint32_t prefixes) {
  core::DbgpSpeaker sender_a(bgp_as(900));
  core::DbgpSpeaker sender_b(bgp_as(901));
  sender_a.add_module(std::make_unique<protocols::BgpModule>());
  sender_b.add_module(std::make_unique<protocols::BgpModule>());
  sender_a.add_peer(1);
  sender_b.add_peer(1);

  // peer ids are assigned by the *receiver*; the stream records which
  // upstream session each frame arrives on.
  std::vector<WireFrame> stream;
  for (std::uint32_t i = 0; i < prefixes; ++i) {
    auto out = sender_a.originate(nth_prefix(i));
    stream.push_back({0, out.at(0).bytes()});
  }
  for (std::uint32_t i = 0; i < prefixes; i += 3) {
    auto out = sender_b.originate(nth_prefix(i));
    stream.push_back({1, out.at(0).bytes()});
  }
  for (std::uint32_t i = 1; i < prefixes; i += 3) {
    stream.push_back({0, core::DbgpSpeaker::encode_withdraw(nth_prefix(i))});
  }
  // Re-announce a slice of the withdrawn prefixes (fresh IA bytes, so the
  // receiver's adj-in flips back) — coalescing must land on the final state.
  for (std::uint32_t i = 1; i < prefixes; i += 6) {
    sender_a.withdraw_origin(nth_prefix(i));
    auto out = sender_a.originate(nth_prefix(i));
    stream.push_back({0, out.at(0).bytes()});
  }
  return stream;
}

// Everything the pipeline can observably produce, captured for comparison.
struct RunResult {
  std::vector<WireFrame> emitted;  // (peer, bytes) in emission order
  std::vector<net::Prefix> selected;
  std::vector<std::string> paths;  // best path per selected prefix
  core::DbgpStats stats;
  std::uint64_t deferred_rejects = 0;
  std::uint64_t eager_rejects = 0;

  bool same_routes(const RunResult& other) const {
    return selected == other.selected && paths == other.paths;
  }
  bool same_stats(const RunResult& other) const {
    return stats.ias_received == other.stats.ias_received &&
           stats.ias_sent == other.stats.ias_sent &&
           stats.withdraws_received == other.stats.withdraws_received &&
           stats.withdraws_sent == other.stats.withdraws_sent &&
           stats.dropped_by_global_filter == other.stats.dropped_by_global_filter &&
           stats.rejected_by_module == other.stats.rejected_by_module &&
           stats.bytes_sent == other.stats.bytes_sent &&
           stats.bytes_received == other.stats.bytes_received;
  }
};

// Feeds `stream` into a fresh receiver attached to a `threads`-wide pool and
// captures everything it emits. `shared_frames` selects the refcounted
// enqueue overload (the deferred-decode path when max_batch == 0 and the
// pool is wide); undecodable frames are counted, never fatal. With a
// `lookup` service the receiver disseminates out of band into it.
RunResult run_receiver(const std::vector<WireFrame>& stream, std::size_t threads,
                       std::size_t shards = 0, std::size_t max_batch = 256,
                       bool shared_frames = false, core::LookupService* lookup = nullptr) {
  util::ThreadPool pool(threads);
  core::DbgpConfig config = bgp_as(1, max_batch);
  if (lookup != nullptr) config.dissemination = core::Dissemination::kOutOfBand;
  core::DbgpSpeaker rx(config, lookup);
  rx.add_module(std::make_unique<protocols::BgpModule>());
  const bgp::PeerId from_a = rx.add_peer(900);
  const bgp::PeerId from_b = rx.add_peer(901);
  for (bgp::AsNumber down = 2; down <= 4; ++down) rx.add_peer(down);
  rx.set_parallel(&pool, shards);

  RunResult result;
  auto absorb = [&](std::vector<core::DbgpOutgoing> out) {
    for (auto& frame : out) result.emitted.push_back({frame.peer, frame.bytes()});
  };
  for (const WireFrame& frame : stream) {
    const bgp::PeerId from = frame.peer == 0 ? from_a : from_b;
    try {
      if (shared_frames) {
        absorb(rx.enqueue_frame(from, ia::make_shared_frame(frame.bytes)));
      } else {
        absorb(rx.enqueue_frame(from, frame.bytes));
      }
    } catch (const util::DecodeError&) {
      ++result.eager_rejects;
    }
  }
  absorb(rx.flush());
  result.deferred_rejects = rx.take_deferred_rejects();

  result.selected = rx.selected_prefixes();
  for (const auto& prefix : result.selected) {
    const auto* best = rx.best(prefix);
    result.paths.push_back(best == nullptr ? "?" : best->ia.path_vector.to_string());
  }
  result.stats = rx.stats();
  return result;
}

// -- Speaker-level bit-identity ----------------------------------------------

TEST(ShardPipeline, ThreadCountBitIdentity) {
  const auto stream = make_stream(300);
  const RunResult baseline = run_receiver(stream, 1);
  ASSERT_FALSE(baseline.emitted.empty());
  ASSERT_FALSE(baseline.selected.empty());
  for (const std::size_t threads : {2ul, 8ul}) {
    const RunResult parallel = run_receiver(stream, threads);
    EXPECT_EQ(baseline.emitted, parallel.emitted) << threads << " threads";
    EXPECT_TRUE(baseline.same_routes(parallel)) << threads << " threads";
    EXPECT_TRUE(baseline.same_stats(parallel)) << threads << " threads";
  }
}

// Shard-merge determinism: the commit stage walks the batch in global
// first-touch order, so the shard→prefix assignment must be invisible in
// every output no matter how the batch is partitioned.
TEST(ShardPipeline, ShardCountBitIdentity) {
  const auto stream = make_stream(200);
  const RunResult baseline = run_receiver(stream, 1, 1);
  for (const std::size_t shards : {1ul, 2ul, 3ul, 8ul, 64ul}) {
    const RunResult sharded = run_receiver(stream, 4, shards);
    EXPECT_EQ(baseline.emitted, sharded.emitted) << shards << " shards";
    EXPECT_TRUE(baseline.same_routes(sharded)) << shards << " shards";
    EXPECT_TRUE(baseline.same_stats(sharded)) << shards << " shards";
  }
}

TEST(ShardPipeline, ShardOfIsStableAndInRange) {
  for (std::uint32_t i = 0; i < 500; ++i) {
    const auto prefix = nth_prefix(i);
    for (const std::size_t shards : {1ul, 2ul, 7ul, 16ul}) {
      const std::size_t shard = core::DbgpSpeaker::shard_of(prefix, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, core::DbgpSpeaker::shard_of(prefix, shards));
    }
  }
}

// max_batch == 0 + a wide pool stages raw refcounted frames and decodes them
// in parallel at flush; the output must match eager per-frame staging.
TEST(ShardPipeline, DeferredDecodeMatchesEagerStaging) {
  const auto stream = make_stream(200);
  const RunResult eager = run_receiver(stream, 1, 0, /*max_batch=*/0);
  ASSERT_FALSE(eager.emitted.empty());
  for (const std::size_t threads : {2ul, 8ul}) {
    const RunResult deferred =
        run_receiver(stream, threads, 0, /*max_batch=*/0, /*shared_frames=*/true);
    EXPECT_EQ(eager.emitted, deferred.emitted) << threads << " threads";
    EXPECT_TRUE(eager.same_routes(deferred)) << threads << " threads";
    EXPECT_TRUE(eager.same_stats(deferred)) << threads << " threads";
  }
}

// Undecodable frames: the eager path throws util::DecodeError from
// enqueue_frame; the deferred path must reject the same frames at drain
// (take_deferred_rejects) with identical surviving state and byte counters.
TEST(ShardPipeline, CorruptFrameRejectionIdentity) {
  auto stream = make_stream(120);
  const std::vector<std::uint8_t> garbage = {1, 0xFF, 0xFF, 0x00, 0x07};
  for (std::size_t i = 5; i < stream.size(); i += 17) {
    stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(i), {0, garbage});
  }
  const RunResult eager = run_receiver(stream, 1, 0, /*max_batch=*/0);
  ASSERT_GT(eager.eager_rejects, 0u);
  EXPECT_EQ(eager.deferred_rejects, 0u);
  const RunResult deferred =
      run_receiver(stream, 8, 0, /*max_batch=*/0, /*shared_frames=*/true);
  EXPECT_EQ(deferred.eager_rejects, 0u);
  EXPECT_EQ(deferred.deferred_rejects, eager.eager_rejects);
  EXPECT_EQ(eager.emitted, deferred.emitted);
  EXPECT_TRUE(eager.same_routes(deferred));
  EXPECT_TRUE(eager.same_stats(deferred));  // includes bytes_received parity
}

// Property test: random interleavings of the two upstream sessions must stay
// bit-identical across thread counts — the ordering guarantee cannot depend
// on a particular arrival pattern.
TEST(ShardPipeline, PropertyRandomInterleavingsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto stream = make_stream(150);
    util::Rng rng(seed);
    for (std::size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.next_u32() % i]);
    }
    const RunResult baseline = run_receiver(stream, 1);
    const RunResult parallel = run_receiver(stream, 8);
    EXPECT_EQ(baseline.emitted, parallel.emitted) << "seed " << seed;
    EXPECT_TRUE(baseline.same_routes(parallel)) << "seed " << seed;
    EXPECT_TRUE(baseline.same_stats(parallel)) << "seed " << seed;
  }
}

// Every key and value in a lookup service, flattened for comparison.
std::string lookup_contents(const core::LookupService& lookup) {
  std::string out;
  for (const std::string& key : lookup.keys_with_prefix("")) {
    const auto value = lookup.get(key);
    out += key + "=" + std::string(value->begin(), value->end()) + "\n";
  }
  return out;
}

// Out-of-band dissemination runs on the sharded path: emit's lookup puts
// happen at commit, in first-touch order, so the notices, the lookup
// service's contents and its put count match the 1-thread run — with eager
// staging and with deferred decode.
TEST(ShardPipeline, OutOfBandBitIdenticalAcrossThreadCounts) {
  const auto stream = make_stream(200);
  struct Mode {
    std::size_t max_batch;
    bool shared_frames;
  };
  for (const Mode mode : {Mode{256, false}, Mode{0, true}}) {
    core::LookupService baseline_lookup;
    const RunResult baseline = run_receiver(stream, 1, 0, mode.max_batch,
                                            mode.shared_frames, &baseline_lookup);
    std::size_t notices = 0;
    for (const WireFrame& frame : baseline.emitted) {
      const auto type = static_cast<core::FrameType>(frame.bytes.at(0));
      EXPECT_NE(type, core::FrameType::kAnnounce);  // announces go out as notices
      notices += type == core::FrameType::kNotice;
    }
    ASSERT_GT(notices, 0u) << "max_batch " << mode.max_batch;
    ASSERT_GT(baseline_lookup.put_count(), 0u);

    core::LookupService lookup;
    const RunResult parallel =
        run_receiver(stream, 4, 0, mode.max_batch, mode.shared_frames, &lookup);
    EXPECT_EQ(baseline.emitted, parallel.emitted) << "max_batch " << mode.max_batch;
    EXPECT_TRUE(baseline.same_routes(parallel)) << "max_batch " << mode.max_batch;
    EXPECT_TRUE(baseline.same_stats(parallel)) << "max_batch " << mode.max_batch;
    EXPECT_EQ(lookup_contents(baseline_lookup), lookup_contents(lookup))
        << "max_batch " << mode.max_batch;
    EXPECT_EQ(baseline_lookup.put_count(), lookup.put_count())
        << "max_batch " << mode.max_batch;
  }
}

// -- The parallel gate --------------------------------------------------------

// The gate depends only on the pool width and the shard count: a causal
// tracer and out-of-band dissemination keep the sharded path, because the
// commit mints every decision span and audit and makes every lookup put.
TEST(ShardPipeline, GateDependsOnlyOnPoolWidthAndShards) {
  util::ThreadPool pool(4);

  core::DbgpSpeaker wide(bgp_as(1));
  EXPECT_FALSE(wide.parallel_active());  // no pool
  wide.set_parallel(&pool);
  EXPECT_TRUE(wide.parallel_active());
  EXPECT_EQ(wide.shard_count(), pool.size());

  telemetry::CausalTracer tracer;
  wide.set_causal(&tracer);
  EXPECT_TRUE(wide.parallel_active());
  wide.set_parallel(&pool, 1);
  EXPECT_FALSE(wide.parallel_active());  // one shard
  wide.set_parallel(nullptr);
  EXPECT_FALSE(wide.parallel_active());

  util::ThreadPool narrow_pool(1);
  core::DbgpSpeaker narrow(bgp_as(2));
  narrow.set_parallel(&narrow_pool, 4);
  EXPECT_FALSE(narrow.parallel_active());

  auto oob_config = bgp_as(3);
  oob_config.dissemination = core::Dissemination::kOutOfBand;
  core::LookupService lookup;
  core::DbgpSpeaker oob(oob_config, &lookup);
  oob.set_parallel(&pool);
  EXPECT_TRUE(oob.parallel_active());
}

// -- Network-level bit-identity ----------------------------------------------

simnet::DbgpNetwork make_line(std::size_t n, simnet::DbgpNetwork::Options options) {
  simnet::DbgpNetwork net(nullptr, options);
  for (bgp::AsNumber asn = 1; asn <= n; ++asn) {
    net.add_as(bgp_as(asn)).add_module(std::make_unique<protocols::BgpModule>());
  }
  for (bgp::AsNumber asn = 1; asn < n; ++asn) net.add_link(asn, asn + 1);
  return net;
}

bool same_churn(const simnet::RunStats& a, const simnet::RunStats& b) {
  return a.processed == b.processed && a.link_flaps == b.link_flaps &&
         a.crashes == b.crashes && a.restarts == b.restarts &&
         a.frames_lost == b.frames_lost && a.frames_duplicated == b.frames_duplicated &&
         a.frames_reordered == b.frames_reordered &&
         a.frames_corrupted == b.frames_corrupted &&
         a.frames_rejected == b.frames_rejected;
}

// Every AS's Loc-RIB flattened to one comparable string.
std::string dump_ribs(simnet::DbgpNetwork& net, std::size_t n) {
  std::string out;
  for (bgp::AsNumber asn = 1; asn <= n; ++asn) {
    for (const auto& prefix : net.speaker(asn).selected_prefixes()) {
      const auto* best = net.speaker(asn).best(prefix);
      out += std::to_string(asn) + " " + prefix.to_string() + " via " +
             (best == nullptr ? "?" : best->ia.path_vector.to_string()) + "\n";
    }
  }
  return out;
}

simnet::ChaosOptions stress_chaos() {
  simnet::ChaosOptions chaos;
  chaos.seed = 7;
  chaos.horizon = 2.0;
  chaos.flap_fraction = 0.5;
  chaos.mean_up = 0.3;
  chaos.mean_down = 0.05;
  chaos.faults.loss = 0.05;
  chaos.faults.duplicate = 0.03;
  chaos.faults.reorder = 0.05;
  chaos.faults.corrupt = 0.05;
  chaos.crash_fraction = 0.3;
  chaos.mean_downtime = 0.3;
  return chaos;
}

struct NetworkRun {
  simnet::RunStats stats;
  std::string hops;
  std::string ribs;
};

NetworkRun run_network(std::size_t speaker_threads, bool with_chaos) {
  telemetry::CausalTracer tracer;
  simnet::DbgpNetwork::Options options;
  options.delivery = simnet::DeliveryMode::kBatched;
  options.causal = &tracer;
  options.speaker_threads = speaker_threads;
  simnet::DbgpNetwork net = make_line(5, options);
  for (std::uint32_t i = 0; i < 20; ++i) net.originate(1 + i % 5, nth_prefix(i));
  if (with_chaos) {
    simnet::ChaosPolicy policy(stress_chaos());
    policy.inject(net);
  }
  NetworkRun result;
  result.stats = net.run_to_convergence();
  result.hops = frame_hops(tracer);
  result.ribs = dump_ribs(net, 5);
  return result;
}

TEST(ShardPipelineNetwork, FaultFreeBitIdenticalAcrossSpeakerThreads) {
  const NetworkRun baseline = run_network(1, /*with_chaos=*/false);
  ASSERT_FALSE(baseline.ribs.empty());
  for (const std::size_t threads : {2ul, 8ul}) {
    const NetworkRun parallel = run_network(threads, /*with_chaos=*/false);
    EXPECT_TRUE(same_churn(baseline.stats, parallel.stats)) << threads << " threads";
    EXPECT_EQ(baseline.hops, parallel.hops) << threads << " threads";
    EXPECT_EQ(baseline.ribs, parallel.ribs) << threads << " threads";
  }
}

TEST(ShardPipelineNetwork, ChaosBitIdenticalAcrossSpeakerThreads) {
  const NetworkRun baseline = run_network(1, /*with_chaos=*/true);
  EXPECT_GT(baseline.stats.link_flaps, 0u);  // the schedule actually fired
  for (const std::size_t threads : {2ul, 8ul}) {
    const NetworkRun parallel = run_network(threads, /*with_chaos=*/true);
    EXPECT_TRUE(same_churn(baseline.stats, parallel.stats)) << threads << " threads";
    EXPECT_EQ(baseline.hops, parallel.hops) << threads << " threads";
    EXPECT_EQ(baseline.ribs, parallel.ribs) << threads << " threads";
  }
}

// Causal tracing keeps every speaker on the sharded path; the Perfetto
// trace and the full audit stream come out byte-identical whatever thread
// count was requested.
TEST(ShardPipelineNetwork, CausalTracingStaysParallelWithIdenticalTrace) {
  struct CausalRun {
    std::size_t audit_count = 0;
    std::string perfetto;
    std::string audits;
    std::string ribs;
  };
  auto run_causal = [](std::size_t speaker_threads) {
    telemetry::CausalTracer tracer;
    simnet::DbgpNetwork::Options options;
    options.delivery = simnet::DeliveryMode::kBatched;
    options.causal = &tracer;
    options.speaker_threads = speaker_threads;
    simnet::DbgpNetwork net = make_line(4, options);
    for (bgp::AsNumber asn = 1; asn <= 4; ++asn) {
      EXPECT_EQ(net.speaker(asn).parallel_active(), speaker_threads > 1)
          << "AS" << asn << " with " << speaker_threads << " threads";
    }
    for (std::uint32_t i = 0; i < 8; ++i) net.originate(1 + i % 4, nth_prefix(i));
    net.run_to_convergence();
    return CausalRun{tracer.audit_count(), telemetry::to_perfetto_json(tracer),
                     audit_stream(tracer), dump_ribs(net, 4)};
  };
  const CausalRun baseline = run_causal(1);
  const CausalRun parallel = run_causal(8);
  EXPECT_GT(baseline.audit_count, 0u);
  EXPECT_EQ(baseline.perfetto, parallel.perfetto);
  EXPECT_EQ(baseline.audits, parallel.audits);
  EXPECT_EQ(baseline.ribs, parallel.ribs);
}

// Live reconfiguration: speaker-threads changes are refused while any
// speaker holds staged frames (the batch must drain first) and applied
// cleanly between drains.
TEST(ShardPipelineNetwork, SetSpeakerThreadsRejectedMidBatch) {
  simnet::DbgpNetwork::Options options;
  options.delivery = simnet::DeliveryMode::kBatched;
  simnet::DbgpNetwork net = make_line(3, options);
  const auto prefix = nth_prefix(0);
  net.originate(1, prefix);
  // Process exactly the first delivery: AS2 now holds a staged frame.
  const simnet::RunStats partial = net.run_to_convergence(1);
  ASSERT_TRUE(partial.capped);
  ASSERT_EQ(net.speaker(2).pending_batch(), 1u);
  EXPECT_THROW(net.set_speaker_threads(4), std::runtime_error);
  EXPECT_EQ(net.speaker_threads(), 1u);  // refused change left options alone

  net.run_to_convergence();
  EXPECT_EQ(net.speaker(2).pending_batch(), 0u);
  EXPECT_NO_THROW(net.set_speaker_threads(4));
  EXPECT_EQ(net.speaker_threads(), 4u);

  // The network still routes — and back to 1 detaches the pool entirely.
  net.withdraw(1, prefix);
  net.run_to_convergence();
  EXPECT_EQ(net.speaker(3).best(prefix), nullptr);
  EXPECT_NO_THROW(net.set_speaker_threads(1));
  EXPECT_EQ(net.speaker_threads(), 1u);
}

// -- Frame cache: the remembered last entry ----------------------------------
//
// FrameCache checks the entry it returned last before hashing. These tests
// drive that pointer through every event that can invalidate it (eviction,
// clear, copy, move, collision replacement); under dbgp_asan_check a stale
// pointer is a heap-use-after-free, and every frame must still equal a fresh
// encode byte for byte.

ia::IntegratedAdvertisement cache_ia(std::uint32_t i, std::vector<std::uint8_t> payload = {}) {
  ia::IntegratedAdvertisement ia;
  ia.destination = nth_prefix(i);
  ia.path_vector.prepend_as(900 + i);
  ia.baseline.next_hop = net::Ipv4Address(900 + i);
  ia.baseline.as_path = ia.path_vector.to_bgp_as_path();
  if (!payload.empty()) ia.set_path_descriptor(232, 1, std::move(payload));
  return ia;
}

// Looks `ia` up and checks the frame against a fresh encode; counts encodes.
struct CacheProbe {
  ia::FrameCache& cache;
  int encodes = 0;

  ia::SharedFrame get(const ia::IntegratedAdvertisement& ia) {
    ia::SharedFrame frame = cache.get_or_encode(ia, {}, [&] {
      ++encodes;
      return core::DbgpSpeaker::encode_announce(ia, {});
    });
    EXPECT_EQ(*frame, core::DbgpSpeaker::encode_announce(ia, {}))
        << ia.destination.to_string();
    return frame;
  }
};

TEST(FrameCacheLastEntry, CapacityOneEvictsTheRememberedEntry) {
  ia::FrameCache cache(1);
  CacheProbe probe{cache};
  const auto a = cache_ia(1);
  const auto b = cache_ia(2);
  probe.get(a);
  probe.get(a);  // repeat hit
  EXPECT_EQ(probe.encodes, 1);
  probe.get(b);  // evicts a, the remembered entry
  probe.get(a);  // evicts b, the remembered entry
  probe.get(a);
  EXPECT_EQ(probe.encodes, 3);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FrameCacheLastEntry, CapacityTwoEvictsTheRememberedEntry) {
  ia::FrameCache cache(2);
  CacheProbe probe{cache};
  const auto a = cache_ia(1);
  const auto b = cache_ia(2);
  const auto c = cache_ia(3);
  probe.get(a);
  probe.get(b);
  probe.get(a);  // hashed hit: a is remembered and first in FIFO order
  EXPECT_EQ(probe.encodes, 2);
  probe.get(c);  // evicts a
  probe.get(a);  // a is gone: re-encoded, evicting b
  probe.get(c);
  probe.get(a);
  EXPECT_EQ(probe.encodes, 4);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FrameCacheLastEntry, ClearForgetsTheRememberedEntry) {
  ia::FrameCache cache;
  CacheProbe probe{cache};
  const auto a = cache_ia(1);
  probe.get(a);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  probe.get(a);
  probe.get(a);
  EXPECT_EQ(probe.encodes, 2);
}

TEST(FrameCacheLastEntry, CopiesNeverPointIntoTheSource) {
  const auto a = cache_ia(1);
  const auto b = cache_ia(2);
  std::vector<ia::FrameCache> copies;
  {
    auto source = std::make_unique<ia::FrameCache>();
    CacheProbe warm{*source};
    warm.get(a);
    warm.get(b);  // b is remembered
    copies.assign(3, *source);  // as DbgpSpeaker::set_parallel fills its shards
  }  // the source and its map are gone
  for (ia::FrameCache& copy : copies) {
    CacheProbe probe{copy};
    probe.get(b);
    probe.get(a);
    EXPECT_EQ(probe.encodes, 0);  // the copied map still holds both
  }

  ia::FrameCache moved = std::move(copies[0]);
  CacheProbe from_moved{moved};
  from_moved.get(a);
  copies[0].clear();  // the moved-from cache stays usable
  CacheProbe from_source{copies[0]};
  from_source.get(a);
  EXPECT_EQ(from_source.encodes, 1);
}

TEST(FrameCacheLastEntry, HashCollisionReplacesTheRememberedEntry) {
  // Descriptor payloads are hashed by sampling, so two payloads that differ
  // only at an unsampled byte collide: same hash, different frames.
  std::vector<std::uint8_t> payload(1000, 0x5a);
  auto other = payload;
  other[1] ^= 0xff;
  const auto a = cache_ia(1, payload);
  const auto b = cache_ia(1, other);
  ASSERT_FALSE(a == b);

  ia::FrameCache cache;
  CacheProbe probe{cache};
  const auto frame_a = probe.get(a);
  const auto frame_b = probe.get(b);  // collides with a and replaces it
  EXPECT_EQ(probe.encodes, 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(*frame_a, *frame_b);
  EXPECT_EQ(probe.get(b).get(), frame_b.get());  // repeat hit on the replacement
  probe.get(a);                                  // replaces b in turn
  EXPECT_EQ(probe.encodes, 3);
}

// -- Peer-bound export annotation --------------------------------------------
//
// A decision builds one export base and each peer annotates its own copy.
// This module stamps every outgoing IA with the AS it is sent to, under a key
// of that AS, so a stamp written into the shared base would show up as a
// second stamp in later peers' frames.

constexpr ia::ProtocolId kStampProtocol = 232;
constexpr ia::ProtocolId kEgressMarkProtocol = 233;

class PeerStampModule : public protocols::BgpModule {
 public:
  void annotate_export(const core::IaRoute& best, ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override {
    (void)best;
    out.set_path_descriptor(kStampProtocol, static_cast<std::uint16_t>(ctx.to_peer_as),
                            {static_cast<std::uint8_t>(ctx.to_peer_as)});
  }
};

constexpr std::uint32_t kStampedPrefixes = 8;
constexpr bgp::AsNumber kIslandPeerAs = 7;

// AS 1 hears AS 900 and exports to ASes 2-6 plus AS 7 in its own island.
// The export chain marks every IA, except toward AS 7, which skips it.
core::DbgpSpeaker make_stamping_speaker() {
  core::DbgpSpeaker rx(bgp_as(1, /*max_batch=*/0));
  rx.add_module(std::make_unique<PeerStampModule>());
  rx.add_peer(900);
  for (bgp::AsNumber as = 2; as <= 6; ++as) rx.add_peer(as);
  rx.add_peer(kIslandPeerAs, /*same_island=*/true);
  rx.export_filters().add("egress-mark",
                          [](ia::IntegratedAdvertisement& ia, const core::FilterContext&) {
                            ia.set_path_descriptor(kEgressMarkProtocol, 0, {1});
                            return true;
                          });
  return rx;
}

std::vector<std::vector<std::uint8_t>> stamped_stream() {
  core::DbgpSpeaker sender(bgp_as(900));
  sender.add_module(std::make_unique<protocols::BgpModule>());
  sender.add_peer(1);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint32_t i = 0; i < kStampedPrefixes; ++i) {
    frames.push_back(sender.originate(nth_prefix(i)).at(0).bytes());
  }
  return frames;
}

// Checks every announce in `out`: exactly one stamp, the receiving peer's,
// and bytes equal to create_from_best for that peer plus the export chain.
// Returns the number of frames checked.
std::size_t check_stamped(const core::DbgpSpeaker& rx,
                          const std::vector<core::DbgpOutgoing>& out) {
  PeerStampModule reference_module;
  const core::IaFactory factory(core::IaFactory::Params{
      rx.config().asn, rx.config().island, rx.config().next_hop, /*prepend_own_as=*/true});
  std::size_t checked = 0;
  for (const auto& frame : out) {
    const bgp::AsNumber to_as = rx.peer_as(frame.peer);
    EXPECT_NE(to_as, 900u) << "split horizon";
    const auto ia = ia::decode_ia(std::span(frame.frame->begin() + 1, frame.frame->end()));
    std::size_t stamps = 0;
    for (const auto& d : ia.path_descriptors()) {
      if (d.protocol != kStampProtocol) continue;
      ++stamps;
      EXPECT_EQ(d.key, to_as) << "AS" << to_as;
    }
    EXPECT_EQ(stamps, 1u) << "AS" << to_as << " " << ia.destination.to_string();
    const bool island = to_as == kIslandPeerAs;
    EXPECT_EQ(ia.find_path_descriptor(kEgressMarkProtocol, 0) == nullptr, island)
        << "AS" << to_as;

    const core::IaRoute* best = rx.best(ia.destination);
    if (best == nullptr) {
      ADD_FAILURE() << "no route for " << ia.destination.to_string();
      continue;
    }
    core::ExportContext ctx;
    ctx.own_as = rx.config().asn;
    ctx.own_island = rx.config().island;
    ctx.to_peer = frame.peer;
    ctx.to_peer_as = to_as;
    ctx.to_peer_in_same_island = island;
    auto reference = factory.create_from_best(*best, &reference_module, ctx);
    if (!island) reference.set_path_descriptor(kEgressMarkProtocol, 0, {1});
    EXPECT_EQ(frame.bytes(), core::DbgpSpeaker::encode_announce(reference, rx.config().codec))
        << "AS" << to_as << " " << ia.destination.to_string();
    ++checked;
  }
  return checked;
}

constexpr std::size_t kStampedFrames = kStampedPrefixes * 6;  // 6 peers past split horizon

TEST(PeerBoundExport, ImmediatePathStampsEachPeerOnce) {
  core::DbgpSpeaker rx = make_stamping_speaker();
  std::vector<core::DbgpOutgoing> out;
  for (const auto& bytes : stamped_stream()) {
    for (auto& frame : rx.handle_frame(0, bytes)) out.push_back(std::move(frame));
  }
  EXPECT_EQ(check_stamped(rx, out), kStampedFrames);
}

TEST(PeerBoundExport, BatchedPathStampsEachPeerOnceAtAnyThreadCount) {
  for (const std::size_t threads : {1ul, 4ul}) {
    util::ThreadPool pool(threads);
    core::DbgpSpeaker rx = make_stamping_speaker();
    rx.set_parallel(&pool);
    EXPECT_EQ(rx.parallel_active(), threads > 1);
    for (const auto& bytes : stamped_stream()) {
      EXPECT_TRUE(rx.enqueue_frame(0, ia::make_shared_frame(bytes)).empty());
    }
    EXPECT_EQ(check_stamped(rx, rx.flush()), kStampedFrames) << threads << " threads";
  }
}

TEST(PeerBoundExport, SessionSyncStampsEachPeerOnce) {
  core::DbgpSpeaker rx = make_stamping_speaker();
  for (const auto& bytes : stamped_stream()) rx.handle_frame(0, bytes);
  for (bgp::PeerId peer = 1; peer < rx.peer_count(); ++peer) {
    EXPECT_TRUE(rx.peer_down(peer).empty());
    const auto synced = rx.peer_up(peer);
    for (const auto& frame : synced) EXPECT_EQ(frame.peer, peer);
    EXPECT_EQ(check_stamped(rx, synced), kStampedPrefixes) << "peer " << peer;
  }
}

}  // namespace
}  // namespace dbgp
