// E2 — Section 6.1 / Figure 8: deploying Wiser and Pathlet Routing across a
// BGP gulf using D-BGP.
//
// Reproduces both deployments on the Figure-8 topology and reports what the
// paper verified plus the control-plane cost of each run:
//   * Wiser: the source AS S sees the per-protocol path costs for paths to
//     D and selects the low-cost (longer) path; under a legacy gulf it
//     cannot and picks the expensive short path.
//   * Pathlet Routing: S sees all five pathlets (four one-hop + one
//     composed two-hop).
// The paper's companion result — 255 (Wiser) / 293 (Pathlets) lines of
// per-protocol code — is a property of the authors' codebase; our analog
// (plugin sizes; no core changes needed) is recorded in EXPERIMENTS.md.
#include <cstdio>

#include "bench_json.h"
#include "protocols/bgp_module.h"
#include "protocols/pathlet.h"
#include "protocols/wiser.h"
#include "simnet/network.h"

using namespace dbgp;

namespace {

struct RunCost {
  std::size_t events = 0;
  std::uint64_t ias_sent = 0;
  std::uint64_t bytes_sent = 0;
};

RunCost collect(simnet::DbgpNetwork& net, std::size_t events) {
  RunCost stats;
  stats.events = events;
  for (bgp::AsNumber asn : net.as_numbers()) {
    stats.ias_sent += net.speaker(asn).stats().ias_sent;
    stats.bytes_sent += net.speaker(asn).stats().bytes_sent;
  }
  return stats;
}

core::DbgpConfig base_config(bgp::AsNumber asn) {
  core::DbgpConfig config;
  config.asn = asn;
  config.next_hop = net::Ipv4Address(asn);
  return config;
}

// -- Wiser across a gulf -------------------------------------------------------

bool run_wiser(bool legacy_gulf) {
  core::LookupService lookup;
  simnet::DbgpNetwork net(&lookup);
  const auto island_a = ia::IslandId::assigned(0xA);
  const auto island_b = ia::IslandId::assigned(0xB);
  const auto dest = *net::Prefix::parse("128.6.0.0/16");

  auto add_wiser = [&](bgp::AsNumber asn, ia::IslandId island, std::uint64_t cost) {
    core::DbgpConfig config = base_config(asn);
    config.island = island;
    config.island_protocol = ia::kProtoWiser;
    config.active_protocol = ia::kProtoWiser;
    auto& speaker = net.add_as(config);
    speaker.add_module(std::make_unique<protocols::WiserModule>(
        protocols::WiserModule::Config{island, cost, net::Ipv4Address(asn)}, nullptr));
    speaker.add_module(std::make_unique<protocols::BgpModule>());
  };
  auto add_gulf = [&](bgp::AsNumber asn) {
    auto& speaker = net.add_as(base_config(asn));
    speaker.add_module(std::make_unique<protocols::BgpModule>());
    if (legacy_gulf) {
      speaker.import_filters().add("legacy-strip",
                                   core::strip_protocol_filter(ia::kProtoWiser));
    }
  };

  add_wiser(1, island_a, 1);    // D
  add_wiser(2, island_a, 100);  // E1: expensive egress
  add_wiser(3, island_a, 5);    // E2: cheap egress
  add_gulf(4);
  add_gulf(5);
  add_gulf(6);
  add_wiser(9, island_b, 1);  // S
  net.add_link(1, 2, true);
  net.add_link(1, 3, true);
  net.add_link(2, 4);
  net.add_link(4, 9);
  net.add_link(3, 5);
  net.add_link(5, 6);
  net.add_link(6, 9);
  net.originate(1, dest);
  const simnet::RunStats run = net.run_to_convergence();
  if (run.capped) {
    std::printf("  %-22s NOT CONVERGED (event cap hit after %zu events)\n",
                legacy_gulf ? "BGP baseline:" : "D-BGP baseline:", run.processed);
    return false;
  }

  const auto* best = net.speaker(9).best(dest);
  const bool low_cost_chosen = best != nullptr && best->ia.path_vector.contains_as(3);
  const std::uint64_t seen_cost =
      best != nullptr ? protocols::WiserModule::path_cost(*best) : 0;
  const auto stats = collect(net, run.processed);

  std::printf("  %-22s picked %s-cost path (cost seen: %llu), %zu events, %llu IAs, "
              "%llu bytes\n",
              legacy_gulf ? "BGP baseline:" : "D-BGP baseline:",
              low_cost_chosen ? "LOW" : "HIGH",
              static_cast<unsigned long long>(seen_cost), stats.events,
              static_cast<unsigned long long>(stats.ias_sent),
              static_cast<unsigned long long>(stats.bytes_sent));
  // Under D-BGP S must pick the cheap path; under legacy BGP it cannot.
  return legacy_gulf ? !low_cost_chosen : low_cost_chosen;
}

// -- Pathlet Routing across a gulf ----------------------------------------------

bool run_pathlets() {
  simnet::DbgpNetwork net;
  const auto island_a = ia::IslandId::assigned(0xA);
  const auto island_b = ia::IslandId::assigned(0xB);
  const auto dest = *net::Prefix::parse("131.1.4.0/24");

  protocols::PathletStore store_a2, store_s;
  auto add_pathlet = [&](bgp::AsNumber asn, ia::IslandId island,
                         protocols::PathletStore* store) {
    core::DbgpConfig config = base_config(asn);
    config.island = island;
    config.island_protocol = ia::kProtoPathlets;
    config.active_protocol = ia::kProtoPathlets;
    auto& speaker = net.add_as(config);
    speaker.add_module(std::make_unique<protocols::PathletModule>(
        protocols::PathletModule::Config{island}, store));
    speaker.add_module(std::make_unique<protocols::BgpModule>());
  };

  add_pathlet(1, island_a, nullptr);
  add_pathlet(2, island_a, &store_a2);
  net.add_as(base_config(7)).add_module(std::make_unique<protocols::BgpModule>());
  add_pathlet(9, island_b, &store_s);

  // Four one-hop pathlets within island A; A2 composes two of them.
  store_a2.add_local({1, {101, 102}, std::nullopt});
  store_a2.add_local({2, {102, 104}, dest});
  store_a2.add_local({3, {101, 103}, std::nullopt});
  store_a2.add_local({4, {103, 104}, dest});
  store_a2.compose(1, 2, 50);

  net.add_link(1, 2, true);
  net.add_link(2, 7);
  net.add_link(7, 9);
  net.originate(1, dest);
  const simnet::RunStats run = net.run_to_convergence();
  if (run.capped) {
    std::printf("  pathlets: NOT CONVERGED (event cap hit after %zu events)\n", run.processed);
    return false;
  }

  const auto* best = net.speaker(9).best(dest);
  const std::size_t seen = best != nullptr ? protocols::count_pathlets(best->ia) : 0;
  const auto stats = collect(net, run.processed);
  std::printf("  pathlets visible at S: %zu (expected 5), learned into store: %zu, "
              "%zu events, %llu IAs, %llu bytes\n",
              seen, store_s.all().size(), stats.events,
              static_cast<unsigned long long>(stats.ias_sent),
              static_cast<unsigned long long>(stats.bytes_sent));
  return seen == 5 && store_s.all().size() == 5;
}

}  // namespace

int main() {
  bench::BenchJson out("deployment");
  bench::Stopwatch sw;
  std::printf("E2 — Section 6.1 deployments across a BGP gulf (Figure 8 topology)\n\n");
  std::printf("Wiser (critical fix):\n");
  bool ok = run_wiser(/*legacy_gulf=*/false);
  out.add_run("wiser_dbgp_gulf", 1.0, sw.elapsed_s());
  sw.restart();
  ok &= run_wiser(/*legacy_gulf=*/true);
  out.add_run("wiser_legacy_gulf", 1.0, sw.elapsed_s());
  std::printf("\nPathlet Routing (replacement protocol):\n");
  sw.restart();
  ok &= run_pathlets();
  out.add_run("pathlets_dbgp_gulf", 1.0, sw.elapsed_s());
  std::printf("\nresult: %s\n", ok ? "all deployments behave as the paper reports"
                                   : "MISMATCH with paper behaviour");
  ok &= out.write();
  return ok ? 0 : 1;
}
