// Protocol differential suite: every decision-module archetype (the paper's
// Table 1 protocols plus the FC-BGP / StackVec extensions) runs on one shared
// 12-AS mixed-adoption mesh, and the run must come out the same whichever
// processing path delivered the frames:
//
//   * batched delivery is bit-identical at every speaker thread count —
//     Loc-RIB/adj-in/adj-out byte records and event counts compare equal
//     (the DESIGN.md §13 contract, here exercised with every protocol's
//     annotate/better hooks in the loop, not just BGP's) — and, traced, so
//     do the Perfetto trace (every frame span, so the emission order and
//     the per-hop stamps) and the decision audits, which puts every
//     module's explain_better on the pool threads too;
//   * immediate delivery converges to the same routes: every AS selects the
//     same prefixes over the same path vectors from the same peers. Two
//     things are deliberately NOT compared across delivery modes: emission
//     order (batching coalesces per-prefix decisions at flush, so the modes
//     legitimately emit different frame sequences — the committed figure-8
//     traces differ the same way) and raw descriptor bytes (history-
//     dependent module state — R-BGP failover paths, pathlet stores — learns
//     from transient routes that only the immediate mode ever surfaces, so
//     descriptor payloads can differ while the routes do not).
//
// Part of dbgp_concurrency_tests (ctest -L concurrency) so dbgp_tsan_check
// re-runs exactly this surface under ThreadSanitizer and dbgp_asan_check
// under AddressSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit_stream.h"
#include "core/speaker.h"
#include "protocols/bgp_module.h"
#include "protocols/bgpsec.h"
#include "protocols/eqbgp.h"
#include "protocols/fcbgp.h"
#include "protocols/hlp.h"
#include "protocols/lisp.h"
#include "protocols/pathlet.h"
#include "protocols/rbgp.h"
#include "protocols/scion.h"
#include "protocols/stackvec.h"
#include "protocols/wiser.h"
#include "simnet/network.h"
#include "telemetry/causal.h"
#include "telemetry/perfetto_export.h"

namespace dbgp {
namespace {

net::Prefix nth_prefix(std::uint32_t i) {
  return net::Prefix(net::Ipv4Address((10u << 24) | (i << 8)), 24);
}

// One mesh node: AS number, protocol archetype, island (0 = gulf).
struct NodeSpec {
  bgp::AsNumber asn = 0;
  std::string protocol;
  std::uint32_t island = 0;
};

// The shared mixed-adoption mesh: a 12-AS ring with chords, one AS per
// archetype (two plain-BGP gulf ASes complete the ring). Islands are small
// on purpose — single-member islands still drive every gateway/egress code
// path (membership stamping, stack-vector pushes, island descriptors).
const std::vector<NodeSpec> kMesh = {
    {1, "bgp", 0},      {2, "wiser", 2},   {3, "eq-bgp", 3},
    {4, "bgpsec", 0},   {5, "r-bgp", 5},   {6, "lisp", 6},
    {7, "scion", 7},    {8, "pathlets", 8}, {9, "hlp", 9},
    {10, "fcbgp", 0},   {11, "stackvec", 11}, {12, "bgp", 0},
};

const std::vector<std::pair<bgp::AsNumber, bgp::AsNumber>> kLinks = {
    {1, 2},  {2, 3},  {3, 4},  {4, 5},  {5, 6},  {6, 7},
    {7, 8},  {8, 9},  {9, 10}, {10, 11}, {11, 12}, {12, 1},
    // Chords so the decision ladders face real alternatives, not a line.
    {1, 5},  {2, 8},  {4, 10}, {6, 12},
};

struct Mesh {
  // Stores referenced by pathlet modules; must outlive the network.
  std::vector<std::unique_ptr<protocols::PathletStore>> pathlet_stores;
  protocols::AttestationAuthority authority;
  std::unique_ptr<simnet::DbgpNetwork> net;
};

std::unique_ptr<core::DecisionModule> module_for(const NodeSpec& spec, Mesh& mesh) {
  const ia::IslandId island =
      spec.island == 0 ? ia::IslandId{} : ia::IslandId::assigned(spec.island);
  if (spec.protocol == "wiser") {
    return std::make_unique<protocols::WiserModule>(
        protocols::WiserModule::Config{island, 3 + spec.asn, net::Ipv4Address(spec.asn)},
        nullptr);
  }
  if (spec.protocol == "eq-bgp") {
    return std::make_unique<protocols::EqBgpModule>(
        protocols::EqBgpModule::Config{island, 100 + spec.asn});
  }
  if (spec.protocol == "bgpsec") {
    return std::make_unique<protocols::BgpSecModule>(
        protocols::BgpSecModule::Config{spec.asn, island, false}, &mesh.authority);
  }
  if (spec.protocol == "r-bgp") {
    return std::make_unique<protocols::RBgpModule>(protocols::RBgpModule::Config{island});
  }
  if (spec.protocol == "lisp") {
    protocols::LispMapping mapping;
    mapping.eid_prefix = *net::Prefix::parse("0.0.0.0/0");
    mapping.rlocs = {net::Ipv4Address(spec.asn)};
    return std::make_unique<protocols::LispModule>(
        protocols::LispModule::Config{island, mapping});
  }
  if (spec.protocol == "scion") {
    std::vector<protocols::ScionPath> paths;
    paths.push_back({{spec.asn, spec.asn + 100}});
    return std::make_unique<protocols::ScionModule>(
        protocols::ScionModule::Config{island, std::move(paths)});
  }
  if (spec.protocol == "pathlets") {
    auto store = std::make_unique<protocols::PathletStore>();
    store->add_local({spec.asn, {spec.asn + 1000, spec.asn + 2000}, {}});
    auto module = std::make_unique<protocols::PathletModule>(
        protocols::PathletModule::Config{island}, store.get());
    mesh.pathlet_stores.push_back(std::move(store));
    return module;
  }
  if (spec.protocol == "hlp") {
    return std::make_unique<protocols::HlpModule>(
        protocols::HlpModule::Config{island, 1, 2}, nullptr);
  }
  if (spec.protocol == "fcbgp") {
    return std::make_unique<protocols::FcBgpModule>(
        protocols::FcBgpModule::Config{spec.asn, island}, &mesh.authority);
  }
  if (spec.protocol == "stackvec") {
    return std::make_unique<protocols::StackVecModule>(
        protocols::StackVecModule::Config{spec.asn, island,
                                          net::Ipv4Address(spec.asn)});
  }
  return nullptr;  // plain BGP
}

Mesh make_mesh(simnet::DbgpNetwork::Options options) {
  Mesh mesh;
  mesh.net = std::make_unique<simnet::DbgpNetwork>(nullptr, options);
  for (const NodeSpec& spec : kMesh) {
    core::DbgpConfig config;
    config.asn = spec.asn;
    config.next_hop = net::Ipv4Address(spec.asn);
    if (spec.island != 0) {
      config.island = ia::IslandId::assigned(spec.island);
    }
    auto module = module_for(spec, mesh);
    if (module != nullptr) {
      config.island_protocol = module->protocol();
      config.active_protocol = module->protocol();
    }
    auto& speaker = mesh.net->add_as(config);
    if (module != nullptr) speaker.add_module(std::move(module));
    speaker.add_module(std::make_unique<protocols::BgpModule>());
  }
  for (const auto& [a, b] : kLinks) mesh.net->add_link(a, b);
  return mesh;
}

// Byte-exact serialization of a record list (adj-in / Loc-RIB / adj-out).
// `with_sequence` is off for the cross-delivery-mode Loc-RIB comparison:
// the arrival counter legitimately differs when batching coalesces frames,
// while everything route-defining (prefix, peer, IA bytes) must not.
void append_records(std::string& out,
                    const std::vector<core::DbgpSpeaker::RouteRecord>& records,
                    bool with_sequence = true) {
  for (const auto& r : records) {
    out += r.prefix.to_string();
    out += '|';
    out += std::to_string(r.from_peer) + "|" + std::to_string(r.neighbor_as) + "|";
    if (with_sequence) out += std::to_string(r.sequence);
    out += std::string("|") + (r.eligible ? "1" : "0") + "|";
    out.append(reinterpret_cast<const char*>(r.bytes.data()), r.bytes.size());
    out += '\n';
  }
}

struct DiffRun {
  std::string loc_rib;     // selected routes only, byte-exact
  std::string routes;      // selected routes at path-vector level (mode-stable)
  std::string full_state;  // originated + adj-in + selected + adj-out
  std::uint64_t processed = 0;
};

DiffRun run_mesh(simnet::DeliveryMode delivery, std::size_t speaker_threads,
                 telemetry::CausalTracer* causal = nullptr) {
  simnet::DbgpNetwork::Options options;
  options.delivery = delivery;
  options.speaker_threads = speaker_threads;
  options.causal = causal;
  Mesh mesh = make_mesh(options);
  // Originations spread across archetypes: a gulf BGP AS, the BGPSec AS,
  // the FC-BGP AS, and the StackVec gateway island all source prefixes, so
  // the new descriptor kinds actually transit legacy and upgraded hops.
  std::uint32_t n = 0;
  for (const bgp::AsNumber origin : {1u, 4u, 7u, 10u, 11u}) {
    mesh.net->originate(origin, nth_prefix(n++));
    mesh.net->originate(origin, nth_prefix(n++));
  }
  const simnet::RunStats stats = mesh.net->run_to_convergence();
  EXPECT_FALSE(stats.capped);

  DiffRun result;
  result.processed = stats.processed;
  for (const NodeSpec& spec : kMesh) {
    const auto& speaker = mesh.net->speaker(spec.asn);
    for (const auto& prefix : speaker.selected_prefixes()) {
      const auto* best = speaker.best(prefix);
      result.routes += "AS" + std::to_string(spec.asn) + " " + prefix.to_string() +
                       " peer=" + std::to_string(best->from_peer) + " via [" +
                       best->ia.path_vector.to_string() + "]\n";
    }
    const auto state = speaker.export_state();
    result.loc_rib += "AS" + std::to_string(spec.asn) + "\n";
    append_records(result.loc_rib, state.selected, /*with_sequence=*/false);
    result.full_state += "AS" + std::to_string(spec.asn) + " seq=";
    result.full_state += std::to_string(state.sequence) + "\n";
    for (const auto& p : state.originated) result.full_state += p.to_string() + "\n";
    append_records(result.full_state, state.adj_in);
    append_records(result.full_state, state.selected);
    append_records(result.full_state, state.adj_out);
  }
  return result;
}

TEST(ProtocolDifferential, MeshConvergesWithRoutesEverywhere) {
  const DiffRun run = run_mesh(simnet::DeliveryMode::kImmediate, 1);
  // Every AS selects every one of the 10 prefixes (the mesh is connected).
  for (const NodeSpec& spec : kMesh) {
    EXPECT_NE(run.loc_rib.find("AS" + std::to_string(spec.asn)), std::string::npos);
  }
  EXPECT_GT(run.processed, 0u);
}

// The §13 contract, under every protocol's hooks at once: batched delivery
// is bit-identical at any speaker thread count — same byte-exact speaker
// state, adj-out included, and same event count. The traced test below
// compares the emitted frame sequence itself.
TEST(ProtocolDifferential, BatchedBitIdenticalAcrossThreadCounts) {
  const DiffRun baseline = run_mesh(simnet::DeliveryMode::kBatched, 1);
  ASSERT_FALSE(baseline.loc_rib.empty());
  for (const std::size_t threads : {2ul, 4ul}) {
    const DiffRun parallel = run_mesh(simnet::DeliveryMode::kBatched, threads);
    EXPECT_EQ(baseline.full_state, parallel.full_state) << threads << " threads";
    EXPECT_EQ(baseline.processed, parallel.processed) << threads << " threads";
  }
}

// The same contract with causal tracing on: the sharded commit mints every
// span and audit, so the Perfetto trace and the audit stream (candidates,
// verdicts, best and previous path, best_via) are byte-identical at every
// thread count, and tracing leaves the speaker state exactly as untraced.
TEST(ProtocolDifferential, TracedBatchedBitIdenticalAcrossThreadCounts) {
  const DiffRun untraced = run_mesh(simnet::DeliveryMode::kBatched, 1);
  std::string baseline_perfetto;
  std::string baseline_audits;
  for (const std::size_t threads : {1ul, 2ul, 4ul}) {
    telemetry::CausalTracer causal;
    const DiffRun run = run_mesh(simnet::DeliveryMode::kBatched, threads, &causal);
    EXPECT_EQ(untraced.full_state, run.full_state) << threads << " threads";
    if (threads == 1) {
      ASSERT_GT(causal.audit_count(), 0u);
      baseline_perfetto = telemetry::to_perfetto_json(causal);
      baseline_audits = audit_stream(causal);
      continue;
    }
    EXPECT_EQ(baseline_perfetto, telemetry::to_perfetto_json(causal)) << threads << " threads";
    EXPECT_EQ(baseline_audits, audit_stream(causal)) << threads << " threads";
  }
}

// Immediate and batched delivery coalesce differently (different frame
// sequences in flight) but MUST land on the same routes: every AS selects
// the same prefixes over the same path vectors from the same peers. Raw IA
// bytes are not compared here — R-BGP failover lists and pathlet stores
// learn from transient routes that only immediate delivery surfaces, so
// descriptor payloads legitimately differ across modes (the header comment
// has the full story).
TEST(ProtocolDifferential, ImmediateAndBatchedConvergeToSameRoutes) {
  const DiffRun immediate = run_mesh(simnet::DeliveryMode::kImmediate, 1);
  const DiffRun batched = run_mesh(simnet::DeliveryMode::kBatched, 1);
  ASSERT_FALSE(immediate.routes.empty());
  EXPECT_EQ(immediate.routes, batched.routes);
}

}  // namespace
}  // namespace dbgp
