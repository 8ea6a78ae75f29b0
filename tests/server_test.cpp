// Route-server daemon suite (ctest -L server): live reconfiguration,
// snapshot/restore bit-identity, graceful restart, the control API, and the
// convergence verdict `health` reports.
//
// The load-bearing invariant throughout: a daemon restored from a snapshot
// is indistinguishable from the daemon that lived through the events — same
// Loc-RIB bytes immediately after restore, and same Loc-RIB bytes after any
// shared sequence of further commands (the snapshot carries adj-out and the
// arrival-sequence counter precisely so future tie-breaks cannot diverge).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ia/descriptors.h"
#include "ia/ids.h"
#include "scenario/parser.h"
#include "server/control.h"
#include "server/daemon.h"
#include "server/snapshot.h"

namespace dbgp {
namespace {

using server::ControlApi;
using server::RouteServer;
using server::Snapshot;

// A chain with unique best paths everywhere, so Loc-RIB contents are
// independent of arrival order and safe to compare across daemons with
// different histories.
constexpr const char* kChain = R"(
as 1
as 2
as 3
link 1 2
link 2 3
originate 1 10.1.0.0/16
originate 3 10.3.0.0/16
)";

constexpr const char* kWiserIsland = R"(
as 10 island=west protocol=wiser cost=2
as 11 island=west protocol=wiser cost=3
as 20
as 30 island=east protocol=wiser cost=1
link 10 11 same-island
link 11 20
link 20 30
originate 10 172.16.0.0/16
originate 30 172.30.0.0/16
)";

// Loads in place: the network wires pointers back into the server's own
// members, so a RouteServer must never be moved after load().
void boot(RouteServer& server, const std::string& text) {
  server.load(scenario::parse_scenario(text));
  server.run();
}

std::vector<std::uint64_t> rib_hashes(const RouteServer& server) {
  std::vector<std::uint64_t> out;
  for (const auto asn : server.as_numbers()) out.push_back(server.loc_rib_hash(asn));
  return out;
}

// -- Snapshot codec ----------------------------------------------------------

TEST(SnapshotCodec, RoundTripIsByteStable) {
  RouteServer server;
  boot(server, kWiserIsland);
  const Snapshot snap = server.snapshot();
  const auto bytes = server::encode_snapshot(snap);
  const Snapshot decoded = server::decode_snapshot(bytes);
  EXPECT_EQ(server::encode_snapshot(decoded), bytes);
  EXPECT_EQ(decoded.nodes.size(), 4u);
  EXPECT_EQ(decoded.links.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded.sim_time, snap.sim_time);
}

TEST(SnapshotCodec, RejectsTruncation) {
  RouteServer server;
  boot(server, kChain);
  const auto bytes = server::encode_snapshot(server.snapshot());
  for (const std::size_t keep : {std::size_t{0}, std::size_t{5}, bytes.size() / 2,
                                 bytes.size() - 1}) {
    EXPECT_THROW(server::decode_snapshot(std::span(bytes.data(), keep)),
                 server::SnapshotError)
        << "accepted a " << keep << "-byte prefix";
  }
}

TEST(SnapshotCodec, RejectsBitFlips) {
  RouteServer server;
  boot(server, kChain);
  auto bytes = server::encode_snapshot(server.snapshot());
  // Flip one bit in each region: header, node table, trailing checksum.
  for (const std::size_t at : {std::size_t{2}, bytes.size() / 2, bytes.size() - 3}) {
    auto corrupted = bytes;
    corrupted[at] ^= 0x40;
    EXPECT_THROW(server::decode_snapshot(corrupted), server::SnapshotError)
        << "accepted a flip at offset " << at;
  }
}

TEST(SnapshotCodec, RejectsForeignFile) {
  const std::vector<std::uint8_t> garbage(64, 0xAB);
  EXPECT_THROW(server::decode_snapshot(garbage), server::SnapshotError);
}

// -- Snapshot / restore bit-identity ----------------------------------------

TEST(SnapshotRestore, LocRibBitIdentical) {
  RouteServer lived;
  boot(lived, kWiserIsland);
  const Snapshot snap = lived.snapshot();

  RouteServer restored;
  restored.restore(snap);
  EXPECT_EQ(restored.as_numbers(), lived.as_numbers());
  EXPECT_EQ(rib_hashes(restored), rib_hashes(lived));
  EXPECT_DOUBLE_EQ(restored.now(), lived.now());
}

TEST(SnapshotRestore, LocRibBitIdenticalAcrossChaosSeeds) {
  for (const int seed : {1, 7}) {
    const std::string text = std::string(kWiserIsland) +
                             "chaos seed=" + std::to_string(seed) +
                             " horizon=1.0 flap-fraction=0.5 loss=0.05\n";
    RouteServer lived;
    boot(lived, text);
    const Snapshot snap = lived.snapshot();
    RouteServer restored;
    restored.restore(snap);
    EXPECT_EQ(rib_hashes(restored), rib_hashes(lived)) << "seed " << seed;

    // Same seed, fresh run: the lived-through hash itself must replay
    // bit-identically, so the equality above is not vacuous.
    RouteServer replay;
    boot(replay, text);
    EXPECT_EQ(rib_hashes(replay), rib_hashes(lived)) << "seed " << seed;
  }
}

TEST(SnapshotRestore, FutureBehaviorMatchesLivedThroughDaemon) {
  RouteServer lived;
  boot(lived, kWiserIsland);
  const Snapshot snap = lived.snapshot();
  RouteServer restored;
  restored.restore(snap);

  // Drive both daemons through the same post-snapshot timeline: new
  // origination, a link flap via remove/add-peer, a policy reload.
  const auto drive = [](RouteServer& s) {
    s.originate(20, *net::Prefix::parse("192.168.0.0/16"));
    s.run();
    s.add_peer(20, 40);
    s.originate(40, *net::Prefix::parse("10.40.0.0/16"));
    s.run();
    s.reload_policy(20, {"wiser"});
    s.run();
  };
  drive(lived);
  drive(restored);
  EXPECT_EQ(rib_hashes(restored), rib_hashes(lived));
}

TEST(SnapshotRestore, FileRoundTripAndRestoreRequiresFreshServer) {
  RouteServer server;
  boot(server, kChain);
  const Snapshot snap = server.snapshot();
  const std::string path = testing::TempDir() + "/dbgp_server_test.snap";
  server::save_snapshot(snap, path);
  const Snapshot loaded = server::load_snapshot(path);
  EXPECT_EQ(server::encode_snapshot(loaded), server::encode_snapshot(snap));

  EXPECT_THROW(server.restore(loaded), std::runtime_error);  // not empty
  EXPECT_THROW(server::load_snapshot(path + ".missing"), server::SnapshotError);
}

// -- Runtime reconfiguration -------------------------------------------------

TEST(Reconfigure, AddPeerConvergesToFromScratchRib) {
  RouteServer runtime;
  boot(runtime, kChain);
  runtime.add_peer(3, 4);
  runtime.originate(4, *net::Prefix::parse("10.4.0.0/16"));
  runtime.run();

  RouteServer scratch;
  boot(scratch, std::string(kChain) +
                                    "as 4\nlink 3 4\noriginate 4 10.4.0.0/16\n");
  EXPECT_EQ(runtime.as_numbers(), scratch.as_numbers());
  EXPECT_EQ(rib_hashes(runtime), rib_hashes(scratch));
}

TEST(Reconfigure, RemovePeerPurgesAndRetires) {
  RouteServer server;
  boot(server, kChain);
  ASSERT_NE(server.network().speaker(1).best(*net::Prefix::parse("10.3.0.0/16")),
            nullptr);
  server.remove_peer(3);
  server.run();
  EXPECT_EQ(server.network().speaker(1).best(*net::Prefix::parse("10.3.0.0/16")),
            nullptr);
  EXPECT_FALSE(server.has_as(3));
  scenario::AsDecl reuse;
  reuse.asn = 3;
  EXPECT_THROW(server.add_as(reuse), std::runtime_error);

  // The from-scratch equivalent (a chain that never had AS 3).
  RouteServer scratch;
  boot(scratch, "as 1\nas 2\nlink 1 2\noriginate 1 10.1.0.0/16\n");
  EXPECT_EQ(server.as_numbers(), scratch.as_numbers());
  EXPECT_EQ(rib_hashes(server), rib_hashes(scratch));
}

TEST(Reconfigure, ReloadPolicyStripsAndUnstripsLive) {
  RouteServer server;
  boot(server, kWiserIsland);
  const auto prefix = *net::Prefix::parse("172.30.0.0/16");
  // Probe the wiser cost path-descriptor specifically: strip filters remove
  // descriptors but deliberately keep island-membership records (those are
  // baseline reachability metadata), so protocols_on_path() would still
  // report wiser.
  const auto has_wiser = [&](bgp::AsNumber asn) {
    const auto* best = server.network().speaker(asn).best(prefix);
    return best != nullptr && best->ia.find_path_descriptor(
                                  ia::kProtoWiser, ia::keys::kWiserPathCost) != nullptr;
  };
  ASSERT_TRUE(has_wiser(11));

  server.reload_policy(11, {"wiser"});
  server.run();
  EXPECT_TRUE(server.network().speaker(11).best(prefix) != nullptr);
  EXPECT_FALSE(has_wiser(11));

  server.reload_policy(11, {});
  server.run();
  EXPECT_TRUE(has_wiser(11));
}

TEST(Reconfigure, RollingUpgradeActivatesProtocol) {
  RouteServer server;
  boot(server, kChain);
  server.upgrade_protocol(2, "wiser");
  server.run();
  const auto* best = server.network().speaker(3).best(*net::Prefix::parse("10.1.0.0/16"));
  ASSERT_NE(best, nullptr);
  bool wiser_on_path = false;
  for (const auto p : best->ia.protocols_on_path()) {
    wiser_on_path |= p == ia::kProtoWiser;
  }
  EXPECT_TRUE(wiser_on_path) << "upgraded AS 2 should stamp wiser descriptors";
}

// -- Graceful restart --------------------------------------------------------

TEST(GracefulRestart, HoldsRoutesAndMatchesColdFinalState) {
  const auto learned = *net::Prefix::parse("10.1.0.0/16");
  const auto originated = *net::Prefix::parse("10.3.0.0/16");
  RouteServer warm;
  boot(warm, kChain);
  warm.graceful_restart(3);
  // Before any re-convergence the warm node already holds its checkpointed
  // routes — the whole point versus a cold restart's re-learn from zero.
  EXPECT_NE(warm.network().speaker(3).best(learned), nullptr);
  warm.run();
  // And the network never saw the prefix disappear.
  EXPECT_NE(warm.network().speaker(1).best(originated), nullptr);

  RouteServer cold;
  boot(cold, kChain);
  cold.crash(3);
  EXPECT_FALSE(cold.network().node_up(3));
  cold.run();
  // The cold path's visible outage: neighbors withdrew the dead node's
  // prefix while it was down.
  EXPECT_EQ(cold.network().speaker(1).best(originated), nullptr);
  cold.restart(3);
  cold.run();

  EXPECT_EQ(rib_hashes(warm), rib_hashes(cold));
}

TEST(GracefulRestart, WarmRestartWithoutCheckpointFails) {
  RouteServer server;
  boot(server, kChain);
  EXPECT_THROW(server.restart_warm(2), std::runtime_error);
}

// -- Control API -------------------------------------------------------------

TEST(Control, ScriptedSessionWithHundredPeersSnapshotUpgradeRestore) {
  RouteServer lived;
  ControlApi api(lived);
  ASSERT_TRUE(api.execute("add-as 1 island=core protocol=wiser cost=2").ok);
  ASSERT_TRUE(api.execute("originate 1 10.0.0.0/8").ok);
  // 120 runtime peerings in a two-level hub: ASes 100..219 hang off eight
  // aggregation ASes that peer with the hub.
  for (int agg = 2; agg <= 9; ++agg) {
    ASSERT_TRUE(api.execute("add-peer 1 " + std::to_string(agg)).ok);
  }
  for (int leaf = 0; leaf < 112; ++leaf) {
    const int asn = 100 + leaf;
    const int agg = 2 + leaf % 8;
    ASSERT_TRUE(api.execute("add-peer " + std::to_string(agg) + " " +
                            std::to_string(asn))
                    .ok)
        << "peer " << asn;
  }
  ASSERT_TRUE(api.execute("originate 100 10.100.0.0/16").ok);
  ASSERT_TRUE(api.execute("run").ok);
  EXPECT_GE(lived.as_numbers().size(), 100u);

  // Hot policy reload plus a mid-churn snapshot: chaos scheduled, some of it
  // drained, snapshot taken (which drains the rest to a consistent cut).
  ASSERT_TRUE(api.execute("reload-policy 2 strip=wiser").ok);
  ASSERT_TRUE(api.execute("set-chaos flaky seed=5 horizon=0.5").ok);
  ASSERT_TRUE(api.execute("step 0.2").ok);
  const std::string path = testing::TempDir() + "/dbgp_control_test.snap";
  ASSERT_TRUE(api.execute("snapshot " + path).ok);

  // Rolling protocol upgrade across the aggregation layer, live.
  for (int agg = 3; agg <= 9; ++agg) {
    ASSERT_TRUE(api.execute("upgrade-protocol " + std::to_string(agg) + " wiser").ok);
  }
  ASSERT_TRUE(api.execute("run").ok);
  const auto health = api.execute("health");
  ASSERT_TRUE(health.ok);
  EXPECT_NE(health.text.find("oscillating=0"), std::string::npos) << health.text;

  // A daemon restored from the mid-churn snapshot and driven through the
  // same remaining commands reaches a bit-identical Loc-RIB.
  RouteServer restored;
  ControlApi restored_api(restored);
  ASSERT_TRUE(restored_api.execute("restore " + path).ok);
  for (int agg = 3; agg <= 9; ++agg) {
    ASSERT_TRUE(
        restored_api.execute("upgrade-protocol " + std::to_string(agg) + " wiser").ok);
  }
  ASSERT_TRUE(restored_api.execute("run").ok);
  EXPECT_EQ(rib_hashes(restored), rib_hashes(lived));
}

TEST(Control, QueryVerbs) {
  RouteServer server;
  boot(server, kChain);
  ControlApi api(server);

  const auto rib = api.execute("rib 2");
  ASSERT_TRUE(rib.ok);
  EXPECT_NE(rib.text.find("10.1.0.0/16"), std::string::npos);
  EXPECT_NE(rib.text.find("10.3.0.0/16"), std::string::npos);

  const auto one = api.execute("rib 2 10.1.0.0/16");
  ASSERT_TRUE(one.ok);
  EXPECT_NE(one.text.find("via [1]"), std::string::npos);

  const auto why = api.execute("why 3 10.1.0.0/16");
  ASSERT_TRUE(why.ok) << why.text;
  EXPECT_NE(why.text.find("originate"), std::string::npos);

  const auto metrics = api.execute("metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.text.find("server.commands"), std::string::npos);

  // `metrics deltas` reports per-interval counter movement: after two calls
  // with no traffic in between, the server.snapshots delta must be 0.
  (void)api.execute("metrics deltas");
  const auto deltas = api.execute("metrics deltas");
  ASSERT_TRUE(deltas.ok);
  EXPECT_NE(deltas.text.find("counter server.snapshots 0 (total"), std::string::npos)
      << deltas.text;
}

TEST(Control, ErrorsAreErrResultsNotThrows) {
  RouteServer server;
  boot(server, kChain);
  ControlApi api(server);
  EXPECT_FALSE(api.execute("frobnicate").ok);
  EXPECT_FALSE(api.execute("rib 99").ok);
  EXPECT_FALSE(api.execute("add-peer 1").ok);          // usage
  EXPECT_FALSE(api.execute("originate 1 banana").ok);  // bad prefix
  EXPECT_FALSE(api.execute("upgrade-protocol 1 nope").ok);
  EXPECT_FALSE(api.execute("restore /nonexistent/x.snap").ok);
  EXPECT_TRUE(api.execute("").ok);        // blank line
  EXPECT_TRUE(api.execute("# note").ok);  // comment
  EXPECT_TRUE(api.execute("quit").quit);
}

// -- Scenario `server` stanza ------------------------------------------------

TEST(ServerStanza, ParsesTimelineInOrder) {
  const auto scenario = scenario::parse_scenario(
      "as 1\nas 2\nlink 1 2\noriginate 1 10.0.0.0/8\n"
      "server 0.5 add-peer 2 3\nserver 1.0 upgrade-protocol 2 wiser\n");
  ASSERT_EQ(scenario.server_commands.size(), 2u);
  EXPECT_DOUBLE_EQ(scenario.server_commands[0].at, 0.5);
  EXPECT_EQ(scenario.server_commands[0].command, "add-peer 2 3");
  EXPECT_EQ(scenario.server_commands[1].command, "upgrade-protocol 2 wiser");
}

TEST(ServerStanza, RejectsBackwardsTimeAndSweepCombination) {
  EXPECT_THROW(scenario::parse_scenario("server 1.0 run\nserver 0.5 run\n"),
               std::runtime_error);
  EXPECT_THROW(scenario::parse_scenario("server 0.5\n"), std::runtime_error);
  EXPECT_THROW(
      scenario::parse_scenario("sweep extra-paths nodes=10\nserver 0.5 run\n"),
      std::runtime_error);
}

// A served network must round-trip through snapshots. A dispute wheel's
// permitted-path import filters are not snapshot state, and a sweep is an
// experiment, so load() refuses both before it builds anything.
TEST(ServerStanza, LoadRejectsDisputeWheelAndSweepScenarios) {
  for (const char* name : {"dispute_wheel_5_fc50.dbgp", "figure9_extra_paths.dbgp"}) {
    const auto scenario = scenario::load_scenario(std::string(DBGP_SCENARIO_DIR "/") + name);
    RouteServer server;
    EXPECT_THROW(server.load(scenario), std::runtime_error) << name;
    EXPECT_TRUE(server.empty()) << name;
  }
}

// -- Health ------------------------------------------------------------------

TEST(Health, StableDaemonReportsConvergedWithoutDetailLines) {
  RouteServer server;
  boot(server, kWiserIsland);
  ControlApi api(server);
  const auto health = api.execute("health");
  ASSERT_TRUE(health.ok);
  EXPECT_NE(health.text.find("verdict=converged"), std::string::npos) << health.text;
  EXPECT_NE(health.text.find(" oscillating=0"), std::string::npos) << health.text;
  // Detail lines exist only for (AS, prefix) pairs the oracle flags.
  EXPECT_EQ(health.text.find('\n'), std::string::npos) << health.text;
}

}  // namespace
}  // namespace dbgp
