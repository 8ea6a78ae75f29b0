#include "protocols/wiser.h"

#include <cmath>

#include "util/bytes.h"

namespace dbgp::protocols {

using util::ByteReader;
using util::ByteWriter;

std::vector<std::uint8_t> encode_wiser_cost(std::uint64_t cost) {
  ByteWriter w;
  w.put_varint(cost);
  return w.take();
}

std::uint64_t decode_wiser_cost(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  return r.get_varint();
}

std::vector<std::uint8_t> encode_wiser_portal(net::Ipv4Address portal) {
  ByteWriter w;
  w.put_u32(portal.value());
  return w.take();
}

net::Ipv4Address decode_wiser_portal(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  return net::Ipv4Address(r.get_u32());
}

// -- Cost exchange ------------------------------------------------------------

namespace {

std::string exchange_key(const char* direction, ia::IslandId a, ia::IslandId b) {
  return "wiser/" + std::string(direction) + "/" + std::to_string(a.raw()) + "/" +
         std::to_string(b.raw());
}

struct CostReport {
  std::uint64_t cost_sum = 0;
  std::uint64_t count = 0;
};

std::vector<std::uint8_t> encode_report(const CostReport& report) {
  ByteWriter w;
  w.put_varint(report.cost_sum);
  w.put_varint(report.count);
  return w.take();
}

std::optional<CostReport> decode_report(const std::optional<std::vector<std::uint8_t>>& bytes) {
  if (!bytes) return std::nullopt;
  ByteReader r(*bytes);
  CostReport report;
  report.cost_sum = r.get_varint();
  report.count = r.get_varint();
  return report;
}

}  // namespace

void WiserCostExchange::report_received(ia::IslandId reporter, ia::IslandId advertiser,
                                        std::uint64_t cost_sum, std::uint64_t count) {
  portal_->put(exchange_key("recv", reporter, advertiser), encode_report({cost_sum, count}));
}

void WiserCostExchange::report_advertised(ia::IslandId advertiser, ia::IslandId receiver,
                                          std::uint64_t cost_sum, std::uint64_t count) {
  portal_->put(exchange_key("adv", advertiser, receiver), encode_report({cost_sum, count}));
}

double WiserCostExchange::scaling_factor(ia::IslandId receiver, ia::IslandId advertiser) const {
  // What the advertiser says it sent vs. what we saw: the ratio normalizes
  // its cost units into ours. (The initial value must be guessed; Section
  // 3.4: "the scaling value must be guessed to initially select paths".)
  const auto advertised = decode_report(portal_->get(exchange_key("adv", advertiser, receiver)));
  const auto received = decode_report(portal_->get(exchange_key("recv", receiver, advertiser)));
  if (!advertised || !received || advertised->count == 0 || received->count == 0 ||
      advertised->cost_sum == 0) {
    return 1.0;
  }
  const double adv_mean =
      static_cast<double>(advertised->cost_sum) / static_cast<double>(advertised->count);
  const double recv_mean =
      static_cast<double>(received->cost_sum) / static_cast<double>(received->count);
  if (recv_mean <= 0.0) return 1.0;
  return adv_mean / recv_mean;
}

// -- Decision module -----------------------------------------------------------

std::uint64_t WiserModule::path_cost(const core::IaRoute& route) noexcept {
  const auto* d = route.ia.find_path_descriptor(ia::kProtoWiser, ia::keys::kWiserPathCost);
  if (d == nullptr) return 0;  // gulf-only path: no Wiser island contributed
  try {
    return decode_wiser_cost(d->value);
  } catch (const util::DecodeError&) {
    return 0;
  }
}

bool WiserModule::import_filter(core::IaRoute& route) {
  const auto* d = route.ia.find_path_descriptor(ia::kProtoWiser, ia::keys::kWiserPathCost);
  if (d == nullptr) return true;  // still selectable; cost treated as 0
  std::uint64_t cost = 0;
  try {
    cost = decode_wiser_cost(d->value);
  } catch (const util::DecodeError&) {
    return false;  // malformed Wiser payload: exclude from Wiser selection
  }
  // Scale using the advertising island's cost units. The advertising island
  // is the most recent Wiser island on the path — the first membership whose
  // protocol is Wiser.
  ia::IslandId advertiser;
  for (const auto& m : route.ia.island_ids) {
    if (m.protocol == ia::kProtoWiser && !(m.island == config_.island)) {
      advertiser = m.island;
      break;
    }
  }
  if (advertiser.valid() && exchange_ != nullptr) {
    const double factor = exchange_->scaling_factor(config_.island, advertiser);
    cost = static_cast<std::uint64_t>(std::llround(static_cast<double>(cost) * factor));
    route.ia.set_path_descriptor(ia::kProtoWiser, ia::keys::kWiserPathCost,
                                 encode_wiser_cost(cost));
    exchange_->report_received(config_.island, advertiser, cost, 1);
  }
  return true;
}

bool WiserModule::better(const core::IaRoute& a, const core::IaRoute& b) const {
  const std::uint64_t cost_a = path_cost(a);
  const std::uint64_t cost_b = path_cost(b);
  if (cost_a != cost_b) return cost_a < cost_b;
  const std::size_t len_a = a.ia.path_vector.hop_count();
  const std::size_t len_b = b.ia.path_vector.hop_count();
  if (len_a != len_b) return len_a < len_b;
  // Stable tie-break: peer identity, not arrival order. Sequence numbers
  // change on every re-advertisement, and an ordering that depends on them
  // lets two equal candidates ping-pong forever (no convergence).
  if (a.from_peer != b.from_peer) return a.from_peer < b.from_peer;
  return a.sequence < b.sequence;
}

void WiserModule::annotate_export(const core::IaRoute& best, ia::IntegratedAdvertisement& out,
                                  const core::ExportContext& ctx) {
  const std::uint64_t total = path_cost(best) + config_.internal_cost;
  out.set_path_descriptor(ia::kProtoWiser, ia::keys::kWiserPathCost, encode_wiser_cost(total));
  out.add_island_descriptor(config_.island, ia::kProtoWiser, ia::keys::kWiserPortalAddr,
                            encode_wiser_portal(config_.portal_addr));
  if (!ctx.to_peer_in_same_island) {
    advertised_sum_.fetch_add(total, std::memory_order_relaxed);
    advertised_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void WiserModule::exchange_costs(ia::IslandId remote_island) {
  if (exchange_ == nullptr) return;
  exchange_->report_advertised(config_.island, remote_island,
                               advertised_sum_.load(std::memory_order_relaxed),
                               advertised_count_.load(std::memory_order_relaxed));
}

void WiserModule::annotate_origin(ia::IntegratedAdvertisement& out,
                                  const core::ExportContext& /*ctx*/) {
  out.set_path_descriptor(ia::kProtoWiser, ia::keys::kWiserPathCost,
                          encode_wiser_cost(config_.internal_cost));
  out.add_island_descriptor(config_.island, ia::kProtoWiser, ia::keys::kWiserPortalAddr,
                            encode_wiser_portal(config_.portal_addr));
}

}  // namespace dbgp::protocols
