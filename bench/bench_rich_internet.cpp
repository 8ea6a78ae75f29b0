// Empirical companion to Table 3: instead of the analytical model, run an
// actual heterogeneous Internet (the Figure-6 world at scale) and measure
// what the control plane really costs.
//
// A hierarchy of ASes is generated; a fraction of them deploy protocols
// (Wiser, EQ-BGP, BGPSec, SCION, Pathlet Routing, R-BGP) as singleton
// islands. Every stub originates a prefix. We report: convergence events,
// total frames/bytes, per-IA wire sizes (mean/p50/p99/max), measured
// sharing savings, and the byte overhead relative to the same topology
// running pure BGP — the empirical "overhead factor".
#include <cstdio>

#include "bench_json.h"
#include "ia/codec.h"
#include "protocols/bgp_module.h"
#include "protocols/bgpsec.h"
#include "protocols/eqbgp.h"
#include "protocols/pathlet.h"
#include "protocols/rbgp.h"
#include "protocols/scion.h"
#include "protocols/wiser.h"
#include "simnet/network.h"
#include "topology/adoption.h"
#include "topology/hierarchy.h"
#include "util/flags.h"
#include "util/stats.h"

using namespace dbgp;

namespace {

struct Measurement {
  simnet::RunStats run;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  util::Summary ia_sizes;
  double avg_protocols_per_path = 0.0;
};

int g_force_proto = -1;  // -1 = mixed; 0..5 force one protocol (debugging)

Measurement run(double adoption, std::uint64_t seed, std::size_t scale) {
  util::Rng rng(seed);
  topology::HierarchyConfig topo;
  topo.tier1 = 3;
  topo.transits = scale / 5;
  topo.stubs = scale - 3 - topo.transits;
  const auto hierarchy = topology::generate_hierarchy(topo, rng);
  const std::size_t n = hierarchy.graph.size();

  static protocols::AttestationAuthority authority;
  simnet::DbgpNetwork net;
  std::vector<std::unique_ptr<protocols::PathletStore>> stores;

  const auto upgraded = topology::random_adoption(n, adoption, rng);
  for (std::size_t u = 0; u < n; ++u) {
    const bgp::AsNumber asn = static_cast<bgp::AsNumber>(u + 1);
    core::DbgpConfig config;
    config.asn = asn;
    config.next_hop = net::Ipv4Address(asn);
    if (!upgraded[u]) {
      net.add_as(config).add_module(std::make_unique<protocols::BgpModule>());
      continue;
    }
    const auto island = ia::IslandId::from_as(asn);
    config.island = island;
    const std::uint32_t pick =
        g_force_proto >= 0 ? static_cast<std::uint32_t>(g_force_proto) : rng.next_below(6);
    switch (pick) {
      case 0: {
        config.island_protocol = ia::kProtoWiser;
        config.active_protocol = ia::kProtoWiser;
        auto& speaker = net.add_as(config);
        speaker.add_module(std::make_unique<protocols::WiserModule>(
            protocols::WiserModule::Config{island, rng.next_below(90) + 10ull,
                                           net::Ipv4Address(asn)},
            nullptr));
        speaker.add_module(std::make_unique<protocols::BgpModule>());
        break;
      }
      case 1: {
        config.island_protocol = ia::kProtoEqBgp;
        config.active_protocol = ia::kProtoEqBgp;
        auto& speaker = net.add_as(config);
        speaker.add_module(std::make_unique<protocols::EqBgpModule>(
            protocols::EqBgpModule::Config{island, rng.next_below(1000) + 10ull}));
        speaker.add_module(std::make_unique<protocols::BgpModule>());
        break;
      }
      case 2: {
        config.island_protocol = ia::kProtoBgpSec;
        config.active_protocol = ia::kProtoBgpSec;
        auto& speaker = net.add_as(config);
        speaker.add_module(std::make_unique<protocols::BgpSecModule>(
            protocols::BgpSecModule::Config{asn, island, false}, &authority));
        speaker.add_module(std::make_unique<protocols::BgpModule>());
        break;
      }
      case 3: {
        config.island_protocol = ia::kProtoScion;
        config.active_protocol = ia::kProtoScion;
        auto& speaker = net.add_as(config);
        speaker.add_module(std::make_unique<protocols::ScionModule>(
            protocols::ScionModule::Config{
                island, {{{asn * 10, asn * 10 + 1}}, {{asn * 10, asn * 10 + 2}}}}));
        speaker.add_module(std::make_unique<protocols::BgpModule>());
        break;
      }
      case 4: {
        config.island_protocol = ia::kProtoPathlets;
        config.active_protocol = ia::kProtoPathlets;
        auto store = std::make_unique<protocols::PathletStore>();
        store->add_local({asn * 100, {asn * 10, asn * 10 + 1}, std::nullopt});
        store->add_local({asn * 100 + 1, {asn * 10 + 1, asn * 10 + 2}, std::nullopt});
        auto& speaker = net.add_as(config);
        speaker.add_module(std::make_unique<protocols::PathletModule>(
            protocols::PathletModule::Config{island}, store.get()));
        speaker.add_module(std::make_unique<protocols::BgpModule>());
        stores.push_back(std::move(store));
        break;
      }
      default: {
        config.island_protocol = ia::kProtoRBgp;
        config.active_protocol = ia::kProtoRBgp;
        auto& speaker = net.add_as(config);
        speaker.add_module(std::make_unique<protocols::RBgpModule>(
            protocols::RBgpModule::Config{island}));
        speaker.add_module(std::make_unique<protocols::BgpModule>());
        break;
      }
    }
  }

  for (topology::NodeId u = 0; u < n; ++u) {
    for (const auto& e : hierarchy.graph.neighbors(u)) {
      if (e.neighbor > u) net.add_link(u + 1, e.neighbor + 1);
    }
  }
  // Every stub originates one prefix.
  std::size_t idx = 0;
  for (const auto stub : hierarchy.graph.stubs()) {
    net.originate(stub + 1,
                  net::Prefix(net::Ipv4Address(0x0a000000u + (static_cast<std::uint32_t>(idx++)
                                                              << 12)),
                              20));
  }

  Measurement m;
  m.run = net.run_to_convergence(5'000'000);

  std::vector<double> sizes;
  double protocol_sum = 0.0;
  std::size_t routes = 0;
  for (const auto asn : net.as_numbers()) {
    const auto& speaker = net.speaker(asn);
    m.frames += speaker.stats().ias_sent + speaker.stats().withdraws_sent;
    m.bytes += speaker.stats().bytes_sent;
    for (const auto& prefix : speaker.selected_prefixes()) {
      const auto* best = speaker.best(prefix);
      sizes.push_back(static_cast<double>(ia::encode_ia(best->ia, {}).size()));
      protocol_sum += static_cast<double>(best->ia.protocols_on_path().size());
      ++routes;
    }
  }
  m.ia_sizes = util::summarize(sizes);
  m.avg_protocols_per_path = routes == 0 ? 0.0 : protocol_sum / static_cast<double>(routes);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "bad flags: %s\n", error.c_str());
    return 1;
  }
  const std::size_t scale = static_cast<std::size_t>(flags.get_int("scale", 60));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  g_force_proto = static_cast<int>(flags.get_int("proto", -1));

  std::printf("Empirical rich-Internet control-plane cost (hierarchy of %zu ASes)\n\n",
              scale);
  std::printf("%9s | %9s | %6s | %8s | %10s | %9s | %9s | %11s\n", "adoption", "events",
              "capped", "frames", "bytes", "IA mean", "IA max", "proto/path");
  std::printf("----------+-----------+--------+----------+------------+-----------+-----------+"
              "------------\n");

  bench::BenchJson out("rich_internet");
  Measurement baseline;
  bool have_baseline = false;
  double max_factor = 0.0;
  bool any_capped = false;
  for (double adoption : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    bench::Stopwatch sw;
    const auto m = run(adoption, seed, scale);
    auto& bench_run = out.add_run(
        "adoption_" + std::to_string(static_cast<int>(adoption * 100)),
        static_cast<double>(m.run.processed), sw.elapsed_s());
    bench_run.counters.emplace_back("capped", m.run.capped ? 1.0 : 0.0);
    bench_run.counters.emplace_back("bytes", static_cast<double>(m.bytes));
    bench_run.counters.emplace_back("ia_mean_bytes", m.ia_sizes.mean);
    std::printf("%8.0f%% | %9zu | %6s | %8llu | %10llu | %8.0f B | %8.0f B | %10.2f\n",
                adoption * 100, m.run.processed, m.run.capped ? "yes" : "no",
                static_cast<unsigned long long>(m.frames),
                static_cast<unsigned long long>(m.bytes), m.ia_sizes.mean, m.ia_sizes.max,
                m.avg_protocols_per_path);
    any_capped |= m.run.capped;
    if (!have_baseline) {
      baseline = m;
      have_baseline = true;
    } else if (baseline.bytes > 0) {
      max_factor = std::max(
          max_factor, static_cast<double>(m.bytes) / static_cast<double>(baseline.bytes));
    }
  }
  std::printf("\nempirical overhead factor vs pure-BGP Internet: up to %.2fx\n", max_factor);
  std::printf("(Table 3's analytical bound with sharing: 1.3x-2.5x; small-topology\n");
  std::printf("descriptors are lighter than Table 2's worst-case CI sizes)\n");
  if (any_capped) {
    std::fprintf(stderr, "error: a run hit the event cap before converging; its row is not a "
                         "converged measurement\n");
  }
  return out.write() && !any_capped ? 0 : 1;
}
