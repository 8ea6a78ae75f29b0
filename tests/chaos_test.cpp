// Chaos-layer tests: the Link/Options API, fault injection, crash recovery,
// and the determinism guarantees DESIGN.md §9 promises. Built as the
// separate `dbgp_chaos_tests` binary carrying the `chaos` ctest label so CI
// can re-run exactly this surface under DBGP_SANITIZE=address
// (the fault paths shuffle shared frames around enough to deserve it).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit_stream.h"
#include "protocols/bgp_module.h"
#include "protocols/pathlet.h"
#include "scenario/parser.h"
#include "scenario/runner.h"
#include "simnet/chaos.h"
#include "simnet/network.h"
#include "telemetry/metrics.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace dbgp::simnet {
namespace {

core::DbgpConfig bgp_as(bgp::AsNumber asn) {
  core::DbgpConfig config;
  config.asn = asn;
  config.next_hop = net::Ipv4Address(asn);
  return config;
}

DbgpNetwork make_line(std::size_t n, DbgpNetwork::Options options = {}) {
  DbgpNetwork net(nullptr, options);
  for (bgp::AsNumber asn = 1; asn <= n; ++asn) {
    net.add_as(bgp_as(asn)).add_module(std::make_unique<protocols::BgpModule>());
  }
  for (bgp::AsNumber asn = 1; asn < n; ++asn) net.add_link(asn, asn + 1);
  return net;
}

bool same_churn(const RunStats& a, const RunStats& b) {
  return a.processed == b.processed && a.link_flaps == b.link_flaps &&
         a.crashes == b.crashes && a.restarts == b.restarts &&
         a.frames_lost == b.frames_lost && a.frames_duplicated == b.frames_duplicated &&
         a.frames_reordered == b.frames_reordered &&
         a.frames_corrupted == b.frames_corrupted &&
         a.frames_rejected == b.frames_rejected;
}

// -- Link API -----------------------------------------------------------------

TEST(LinkApi, AddLinkOncePerPair) {
  DbgpNetwork net = make_line(2);
  EXPECT_THROW(net.add_link(1, 2), std::invalid_argument);
  EXPECT_THROW(net.add_link(2, 1), std::invalid_argument);  // normalized key
  EXPECT_NE(net.find_link(2, 1), nullptr);
  EXPECT_EQ(net.find_link(1, 3), nullptr);
  EXPECT_THROW(net.link(1, 3), std::out_of_range);
}

TEST(LinkApi, DisconnectReconnectRestoresRoutes) {
  DbgpNetwork::Options options;
  telemetry::CausalTracer tracer;
  options.causal = &tracer;
  DbgpNetwork net = make_line(3, options);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  ASSERT_NE(net.speaker(3).best(prefix), nullptr);
  const auto path_before = net.speaker(3).best(prefix)->ia.path_vector.to_string();

  net.link(2, 3).set_state(LinkState::kDown);
  net.run_to_convergence();
  EXPECT_EQ(net.speaker(3).best(prefix), nullptr);
  EXPECT_EQ(net.link(2, 3).stats().flaps, 1u);

  const std::size_t spans_before_reconnect = tracer.span_count();
  net.link(2, 3).set_state(LinkState::kUp);
  net.run_to_convergence();
  ASSERT_NE(net.speaker(3).best(prefix), nullptr);
  EXPECT_EQ(net.speaker(3).best(prefix)->ia.path_vector.to_string(), path_before);

  // Trace-verified: the restored session re-announced over the 2-3 link.
  bool resynced = false;
  const auto spans = tracer.spans();
  for (std::size_t i = spans_before_reconnect; i < spans.size(); ++i) {
    resynced |= spans[i].kind == telemetry::SpanKind::kFrame && spans[i].as == 2 &&
                spans[i].peer_as == 3 && spans[i].name == "announce" &&
                spans[i].prefix == "10.0.0.0/8";
  }
  EXPECT_TRUE(resynced);
}

TEST(LinkApi, WithdrawUnderBatching) {
  DbgpNetwork::Options options;
  options.delivery = DeliveryMode::kBatched;
  DbgpNetwork net = make_line(4, options);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  for (bgp::AsNumber asn = 2; asn <= 4; ++asn) {
    ASSERT_NE(net.speaker(asn).best(prefix), nullptr) << "AS" << asn;
  }
  net.withdraw(1, prefix);
  net.run_to_convergence();
  for (bgp::AsNumber asn = 1; asn <= 4; ++asn) {
    EXPECT_EQ(net.speaker(asn).best(prefix), nullptr) << "AS" << asn;
  }
}

// Tearing a link down while the far speaker still has staged-but-undecided
// frames must not leave routes learned over that link selected.
TEST(LinkApi, MidBatchDisconnectLeavesNoStaleRoutes) {
  DbgpNetwork::Options options;
  options.delivery = DeliveryMode::kBatched;
  DbgpNetwork net = make_line(3, options);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  // Process exactly the first delivery at AS2: the frame is staged (adj-in
  // updated, decision pending) and the coalesced flush has not fired yet.
  const RunStats partial = net.run_to_convergence(1);
  ASSERT_TRUE(partial.capped);
  ASSERT_EQ(net.speaker(2).pending_batch(), 1u);

  net.link(1, 2).set_state(LinkState::kDown);
  net.run_to_convergence();
  EXPECT_EQ(net.speaker(2).pending_batch(), 0u);
  EXPECT_EQ(net.speaker(2).best(prefix), nullptr);
  EXPECT_EQ(net.speaker(3).best(prefix), nullptr);
}

// -- Corruption ---------------------------------------------------------------

// Fuzz-style: every corrupt_frame output must be rejected by the decode
// layer without touching the receiver's adj-in or selected routes.
TEST(Corruption, RejectedWithoutStateChange) {
  DbgpNetwork net = make_line(2);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  auto& receiver = net.speaker(2);
  ASSERT_NE(receiver.best(prefix), nullptr);
  const auto selected_before = receiver.selected_prefixes();
  const auto db_size_before = receiver.routes().size();

  // A real announce (from a standalone origin speaker — the in-net one has
  // already synced, so its adj-out delta-suppresses a re-emission) and a
  // real withdraw.
  core::DbgpSpeaker sender(bgp_as(9));
  sender.add_module(std::make_unique<protocols::BgpModule>());
  sender.add_peer(2);
  auto announce = sender.originate(prefix);
  ASSERT_FALSE(announce.empty());
  const std::vector<std::uint8_t> announce_bytes = announce[0].bytes();
  const std::vector<std::uint8_t> withdraw_bytes =
      core::DbgpSpeaker::encode_withdraw(prefix);

  util::Rng rng(1234);
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const auto& original = (i % 2 == 0) ? announce_bytes : withdraw_bytes;
    const auto mangled = corrupt_frame(original, rng);
    EXPECT_THROW(
        {
          try {
            receiver.handle_frame(0, mangled);
          } catch (const util::DecodeError&) {
            ++rejected;
            throw;
          }
        },
        util::DecodeError)
        << "iteration " << i;
  }
  EXPECT_EQ(rejected, 300);
  EXPECT_EQ(receiver.selected_prefixes(), selected_before);
  EXPECT_EQ(receiver.routes().size(), db_size_before);
  ASSERT_NE(receiver.best(prefix), nullptr);
}

TEST(Corruption, CountedAndRejectedInFlight) {
  DbgpNetwork net = make_line(3);
  net.link(1, 2).set_faults({/*loss=*/0.0, /*duplicate=*/0.0, /*reorder=*/0.0,
                             /*corrupt=*/1.0},
                            99);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  const RunStats stats = net.run_to_convergence();
  EXPECT_GT(stats.frames_corrupted, 0u);
  EXPECT_EQ(stats.frames_corrupted, stats.frames_rejected);
  EXPECT_EQ(stats.frames_corrupted, net.link(1, 2).stats().frames_corrupted);
  // Every frame 1->2 was mangled, so AS2 (and AS3 behind it) learned nothing.
  EXPECT_EQ(net.speaker(2).best(prefix), nullptr);
  EXPECT_EQ(net.speaker(3).best(prefix), nullptr);
}

// -- Prefix lengths above 32 -------------------------------------------------
//
// A wire prefix is a u32 address and a u8 length. A length above 32 must be
// rejected before it reaches net::Prefix, whose mask would shift by a
// negative amount; every decoder reads prefixes through net::get_prefix.

// What a rejected frame must leave alone: adj-in, Loc-RIB and adj-out as
// their codec bytes, and the RIB arena's meter.
std::string rib_state(const core::DbgpSpeaker& speaker) {
  const auto state = speaker.export_state();
  std::string out = "arena=" + std::to_string(speaker.rib_arena().bytes_in_use()) + "\n";
  for (const auto* records : {&state.adj_in, &state.selected, &state.adj_out}) {
    for (const auto& r : *records) {
      out += r.prefix.to_string() + " peer=" + std::to_string(r.from_peer) + " ";
      out.append(r.bytes.begin(), r.bytes.end());
      out += "\n";
    }
    out += "--\n";
  }
  return out;
}

// A withdraw (type 2) and a notice (type 3) for 10.0.0.0/33.
const std::vector<std::vector<std::uint8_t>> kLongPrefixFrames = {{2, 10, 0, 0, 0, 33},
                                                                  {3, 10, 0, 0, 0, 33}};

// Batched delivery on a 2-thread pool with explicit flushes (max_batch 0):
// each speaker runs the sharded pipeline, so enqueue_frame defers decoding
// to flush.
DbgpNetwork converged_sharded_pair() {
  DbgpNetwork::Options options;
  options.delivery = DeliveryMode::kBatched;
  options.speaker_threads = 2;
  DbgpNetwork net(nullptr, options);
  for (bgp::AsNumber asn = 1; asn <= 2; ++asn) {
    core::DbgpConfig config = bgp_as(asn);
    config.max_batch = 0;
    net.add_as(config).add_module(std::make_unique<protocols::BgpModule>());
  }
  net.add_link(1, 2);
  net.originate(1, *net::Prefix::parse("10.0.0.0/8"));
  net.run_to_convergence();
  return net;
}

TEST(LongPrefix, HandleFrameThrowsBeforeAnyCounterMoves) {
  DbgpNetwork net = converged_sharded_pair();
  auto& receiver = net.speaker(2);
  const std::string before = rib_state(receiver);
  ASSERT_NE(before.find("10.0.0.0/8"), std::string::npos);
  for (const auto& frame : kLongPrefixFrames) {
    EXPECT_THROW(receiver.handle_frame(0, frame), util::DecodeError) << int{frame[0]};
  }
  EXPECT_EQ(receiver.stats().withdraws_received, 0u);
  EXPECT_EQ(receiver.stats().lookup_fetches, 0u);
  EXPECT_EQ(rib_state(receiver), before);
}

TEST(LongPrefix, DeferredFlushCountsOneRejectPerFrame) {
  DbgpNetwork net = converged_sharded_pair();
  auto& receiver = net.speaker(2);
  const std::string before = rib_state(receiver);
  for (const auto& frame : kLongPrefixFrames) {
    EXPECT_TRUE(receiver.enqueue_frame(0, frame).empty());
    EXPECT_EQ(receiver.pending_batch(), 1u);  // staged raw, not yet decoded
    EXPECT_TRUE(receiver.flush().empty());
    EXPECT_EQ(receiver.take_deferred_rejects(), 1u) << int{frame[0]};
  }
  EXPECT_EQ(receiver.stats().withdraws_received, 0u);
  EXPECT_EQ(receiver.stats().lookup_fetches, 0u);
  EXPECT_EQ(rib_state(receiver), before);
}

TEST(LongPrefix, PathletDeliversPrefixRejected) {
  // One pathlet: fid 1, no vias, delivers 10.0.0.0/40.
  const std::vector<std::uint8_t> payload = {1, 1, 0, 1, 10, 0, 0, 0, 40};
  EXPECT_THROW(protocols::decode_pathlets(payload), util::DecodeError);
  std::vector<std::uint8_t> valid = payload;
  valid.back() = 24;
  const auto pathlets = protocols::decode_pathlets(valid);
  ASSERT_EQ(pathlets.size(), 1u);
  EXPECT_EQ(pathlets[0].delivers->to_string(), "10.0.0.0/24");
}

// A snapshot file is outside input too. The speaker keeps an adj-out count
// per peer, so a record naming a peer id it does not have would index out
// of range; restore_state rejects it like malformed IA bytes.
TEST(SnapshotInput, UnknownPeerIdRejected) {
  using State = core::DbgpSpeaker::SpeakerState;
  DbgpNetwork net = make_line(3);
  net.originate(1, *net::Prefix::parse("10.0.0.0/8"));
  net.run_to_convergence();
  auto& speaker = net.speaker(2);
  const std::string before = rib_state(speaker);
  const State good = speaker.export_state();
  ASSERT_FALSE(good.adj_in.empty());
  ASSERT_FALSE(good.adj_out.empty());
  for (const auto records : {&State::adj_in, &State::adj_out}) {
    for (const bgp::PeerId peer : {static_cast<bgp::PeerId>(speaker.peer_count()),
                                   bgp::kInvalidPeer}) {
      State bad = good;
      (bad.*records).back().from_peer = peer;
      EXPECT_THROW(speaker.restore_state(bad), util::DecodeError) << peer;
    }
  }
  speaker.restore_state(good);
  EXPECT_EQ(rib_state(speaker), before);
}

// -- Crash / restart ----------------------------------------------------------

TEST(NodeChurn, CrashRestartRelearnsFromPeers) {
  DbgpNetwork net = make_line(3);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  ASSERT_NE(net.speaker(3).best(prefix), nullptr);

  net.crash(2);
  const RunStats after_crash = net.run_to_convergence();
  EXPECT_FALSE(net.node_up(2));
  EXPECT_EQ(after_crash.crashes, 1u);
  EXPECT_EQ(net.speaker(3).best(prefix), nullptr);

  net.restart(2);
  const RunStats after_restart = net.run_to_convergence();
  EXPECT_TRUE(net.node_up(2));
  EXPECT_EQ(after_restart.restarts, 1u);
  // The wiped RIB re-learned everything from its peers' refresh sync.
  ASSERT_NE(net.speaker(2).best(prefix), nullptr);
  ASSERT_NE(net.speaker(3).best(prefix), nullptr);
}

TEST(NodeChurn, ResetRoutesKeepsConfiguration) {
  DbgpNetwork net = make_line(2);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  auto& speaker = net.speaker(1);
  ASSERT_NE(speaker.best(prefix), nullptr);

  speaker.reset_routes();
  EXPECT_EQ(speaker.best(prefix), nullptr);       // learned/selected state gone
  EXPECT_EQ(speaker.peer_count(), 1u);            // peer roster survives
  EXPECT_TRUE(speaker.routes().empty());
  // Originations survive as config: reevaluate re-announces them.
  const auto out = speaker.reevaluate_all();
  EXPECT_FALSE(out.empty());
  EXPECT_NE(speaker.best(prefix), nullptr);
}

// -- Determinism --------------------------------------------------------------

ChaosOptions stress_chaos() {
  ChaosOptions chaos;
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

struct SeededRun {
  RunStats stats;
  std::string hops;
  std::string table;
};

SeededRun run_seeded(const ChaosOptions& chaos, DeliveryMode mode) {
  telemetry::CausalTracer tracer;
  DbgpNetwork::Options options;
  options.delivery = mode;
  options.causal = &tracer;
  DbgpNetwork net = make_line(5, options);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  ChaosPolicy policy(chaos);
  policy.inject(net);
  SeededRun result;
  result.stats = net.run_to_convergence();
  result.hops = frame_hops(tracer);
  const auto* best = net.speaker(5).best(prefix);
  result.table = best == nullptr ? "unreachable" : best->ia.path_vector.to_string();
  return result;
}

TEST(Determinism, SameSeedReplaysBitIdentically) {
  const SeededRun a = run_seeded(stress_chaos(), DeliveryMode::kImmediate);
  const SeededRun b = run_seeded(stress_chaos(), DeliveryMode::kImmediate);
  EXPECT_TRUE(same_churn(a.stats, b.stats));
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.table, b.table);
  EXPECT_GT(a.stats.link_flaps, 0u);  // the schedule actually did something
}

TEST(Determinism, ChurnCountersMatchAcrossDeliveryModes) {
  // Faults are drawn at dispatch time, before the delivery-mode choice, so
  // the physical fault schedule is identical in both modes (event totals
  // differ: batching coalesces decisions).
  const SeededRun immediate = run_seeded(stress_chaos(), DeliveryMode::kImmediate);
  const SeededRun batched = run_seeded(stress_chaos(), DeliveryMode::kBatched);
  EXPECT_EQ(immediate.stats.link_flaps, batched.stats.link_flaps);
  EXPECT_EQ(immediate.stats.crashes, batched.stats.crashes);
  EXPECT_EQ(immediate.stats.restarts, batched.stats.restarts);
  EXPECT_EQ(immediate.table, batched.table);
}

TEST(Determinism, ZeroChaosLeavesRunsUntouched) {
  SeededRun plain;
  {
    telemetry::CausalTracer tracer;
    DbgpNetwork::Options options;
    options.causal = &tracer;
    DbgpNetwork net = make_line(5, options);
    const auto prefix = *net::Prefix::parse("10.0.0.0/8");
    net.originate(1, prefix);
    plain.stats = net.run_to_convergence();
    plain.hops = frame_hops(tracer);
  }
  const SeededRun with_zero_chaos = run_seeded(ChaosOptions{}, DeliveryMode::kImmediate);
  EXPECT_FALSE(plain.hops.empty());
  EXPECT_EQ(plain.hops, with_zero_chaos.hops);
  EXPECT_EQ(plain.stats.processed, with_zero_chaos.stats.processed);
  EXPECT_EQ(with_zero_chaos.stats.link_flaps, 0u);
  EXPECT_EQ(with_zero_chaos.stats.frames_lost, 0u);
}

TEST(Determinism, ReconvergenceHistogramRecords) {
  auto& registry = telemetry::MetricsRegistry::global();
  registry.reset();
  DbgpNetwork net = make_line(3);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  net.link(2, 3).refresh();
  net.run_to_convergence();
  const auto snapshot = registry.snapshot();
  const auto* hist = snapshot.find_histogram("simnet.chaos.reconvergence_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_GT(hist->count, 0u);
}

// -- Scenario integration -----------------------------------------------------

scenario::Scenario load_churn_scenario() {
  return scenario::load_scenario(std::string(DBGP_SCENARIO_DIR) +
                                 "/figure8_pathlets_churn.dbgp");
}

TEST(ChurnScenario, ReconvergesToFailFreePathsBothModes) {
  for (const DeliveryMode mode : {DeliveryMode::kImmediate, DeliveryMode::kBatched}) {
    scenario::Runner runner;
    runner.set_delivery(mode);
    runner.build(load_churn_scenario());
    const auto result = runner.run();
    EXPECT_TRUE(result.converged);
    EXPECT_TRUE(result.all_passed())
        << (mode == DeliveryMode::kBatched ? "batched" : "immediate") << " mode: "
        << result.failures() << " expectation(s) failed";
    EXPECT_GT(result.stats.link_flaps, 0u);
  }
}

TEST(ChurnScenario, SeedOverrideChangesScheduleDeterministically) {
  auto run_with_seed = [&](std::uint64_t seed) {
    scenario::Runner runner;
    runner.set_chaos_seed(seed);
    runner.build(load_churn_scenario());
    return runner.run();
  };
  const auto a1 = run_with_seed(5);
  const auto a2 = run_with_seed(5);
  EXPECT_TRUE(same_churn(a1.stats, a2.stats));
  EXPECT_TRUE(a1.all_passed());
  EXPECT_TRUE(a2.all_passed());
}

}  // namespace
}  // namespace dbgp::simnet
