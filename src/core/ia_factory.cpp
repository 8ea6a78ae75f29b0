#include "core/ia_factory.h"

namespace dbgp::core {

ia::IntegratedAdvertisement IaFactory::create_from_best(const IaRoute& best,
                                                        DecisionModule* active,
                                                        const ExportContext& ctx) const {
  return annotate(export_base(best), &best, active, ctx);
}

ia::IntegratedAdvertisement IaFactory::create_origin(const net::Prefix& prefix,
                                                     DecisionModule* active,
                                                     const ExportContext& ctx) const {
  return annotate(origin_base(prefix), nullptr, active, ctx);
}

ia::IntegratedAdvertisement IaFactory::export_base(const IaRoute& best) const {
  // Pass-through: start from the incoming IA so unused protocols' control
  // information (path descriptors, island descriptors, memberships) is
  // copied verbatim into the new advertisement.
  ia::IntegratedAdvertisement out = best.ia;

  // Baseline updates common to every protocol.
  if (params_.prepend_own_as) out.path_vector.prepend_as(params_.own_as);
  out.baseline.as_path = out.path_vector.to_bgp_as_path();
  out.baseline.next_hop = params_.next_hop;
  out.baseline.local_pref.reset();
  out.baseline.med.reset();
  return out;
}

ia::IntegratedAdvertisement IaFactory::origin_base(const net::Prefix& prefix) const {
  ia::IntegratedAdvertisement out;
  out.destination = prefix;
  if (params_.prepend_own_as) out.path_vector.prepend_as(params_.own_as);
  out.baseline.origin = bgp::Origin::kIgp;
  out.baseline.as_path = out.path_vector.to_bgp_as_path();
  out.baseline.next_hop = params_.next_hop;
  return out;
}

ia::IntegratedAdvertisement IaFactory::annotate(ia::IntegratedAdvertisement base,
                                                const IaRoute* best, DecisionModule* active,
                                                const ExportContext& ctx) const {
  // Active protocol rewrites its own control information.
  if (active == nullptr) return base;
  if (best != nullptr) {
    active->annotate_export(*best, base, ctx);
  } else {
    active->annotate_origin(base, ctx);
  }
  return base;
}

}  // namespace dbgp::core
