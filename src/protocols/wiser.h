// Wiser (Mahajan, Wetherall, Anderson — NSDI'07) as a D-BGP critical fix.
//
// Wiser fixes BGP's inability to let ASes limit ingress traffic: every
// upgraded AS adds its internal cost of carrying traffic to a *path cost*
// disseminated with advertisements, and path selection minimizes total cost.
// To keep cheating ASes from inflating costs, neighbors periodically
// exchange the total costs of paths they receive from each other and use the
// ratio to *scale* incoming costs into their own cost units.
//
// Under D-BGP (Section 3.4):
//   * the path cost travels as a path descriptor and crosses gulfs via
//     pass-through;
//   * each island publishes a cost-exchange portal address in an island
//     descriptor, since islands separated by gulfs can no longer exchange
//     costs hop-by-hop (BGP is one-way); the exchange happens out-of-band
//     through the portal (here: a LookupService).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "core/decision_module.h"
#include "core/lookup_service.h"

namespace dbgp::protocols {

// -- Payload codecs ----------------------------------------------------------

// Path descriptor (keys::kWiserPathCost): varint cost.
std::vector<std::uint8_t> encode_wiser_cost(std::uint64_t cost);
std::uint64_t decode_wiser_cost(std::span<const std::uint8_t> payload);

// Island descriptor (keys::kWiserPortalAddr): u32 portal IPv4 address.
std::vector<std::uint8_t> encode_wiser_portal(net::Ipv4Address portal);
net::Ipv4Address decode_wiser_portal(std::span<const std::uint8_t> payload);

// -- Cost exchange ------------------------------------------------------------

// The out-of-band cost-exchange protocol between two Wiser islands. Each
// island periodically publishes the sum of path costs it has *received* from
// the other island; the ratio advertised/received yields the scaling factor
// (paper: "scale the path costs an AS receives from a neighbor to be
// comparable to the path costs it advertises to that neighbor").
class WiserCostExchange {
 public:
  explicit WiserCostExchange(core::LookupService* portal) : portal_(portal) {}

  // Publishes that `reporter` has received a total of `cost_sum` across
  // `count` advertisements originated by `advertiser`.
  void report_received(ia::IslandId reporter, ia::IslandId advertiser, std::uint64_t cost_sum,
                       std::uint64_t count);
  // Publishes what `advertiser` believes it advertised toward `receiver`.
  void report_advertised(ia::IslandId advertiser, ia::IslandId receiver,
                         std::uint64_t cost_sum, std::uint64_t count);

  // Scaling factor `receiver` should apply to costs coming from
  // `advertiser`; 1.0 when either side has not reported yet.
  double scaling_factor(ia::IslandId receiver, ia::IslandId advertiser) const;

 private:
  core::LookupService* portal_;
};

// -- Decision module -----------------------------------------------------------

class WiserModule : public core::DecisionModule {
 public:
  struct Config {
    ia::IslandId island;
    std::uint64_t internal_cost = 1;  // this AS's cost contribution
    net::Ipv4Address portal_addr;     // advertised in island descriptors
  };

  WiserModule(Config config, WiserCostExchange* exchange)
      : config_(config), exchange_(exchange) {}

  ia::ProtocolId protocol() const noexcept override { return ia::kProtoWiser; }
  std::string name() const override { return "wiser"; }

  // Scales the incoming path cost into local units using the cost-exchange
  // portal (guessing 1.0 before any exchange, as the paper notes) and stores
  // the scaled value back into the descriptor.
  bool import_filter(core::IaRoute& route) override;

  // Lowest scaled path cost wins; ties fall back to BGP's ordering.
  bool better(const core::IaRoute& a, const core::IaRoute& b) const override;

  // Adds our internal cost and (re)publishes the cost + portal descriptors.
  void annotate_export(const core::IaRoute& best, ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override;
  void annotate_origin(ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override;

  // Publishes the costs this island has advertised toward `remote_island`
  // via the cost-exchange portal (the periodic two-way exchange D-BGP must
  // carry out-of-band because BGP advertisements are one-way).
  void exchange_costs(ia::IslandId remote_island);

  // Reads the cost observed on a route (scaled), defaulting to 0 when the
  // advertisement carries no Wiser information (gulf-only path).
  static std::uint64_t path_cost(const core::IaRoute& route) noexcept;

  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
  WiserCostExchange* exchange_;
  // Bumped by annotate_export, which a sharded flush runs on several pool
  // threads at once; the sums do not depend on the order of the adds.
  std::atomic<std::uint64_t> advertised_sum_ = 0;
  std::atomic<std::uint64_t> advertised_count_ = 0;
};

}  // namespace dbgp::protocols
