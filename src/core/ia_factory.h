// The IA factory (Figure 5, stage 6).
//
// Creates outgoing IAs for selected best paths. Its defining behaviour is
// *pass-through*: the new IA starts as a copy of the stored incoming IA for
// the chosen best path, so every protocol's control information survives
// even when this speaker does not understand it. The factory then applies
// the baseline updates every D-BGP hop must make (path-vector prepend,
// next-hop rewrite) and hands the result to the active decision module's
// export hook for protocol-specific rewriting.
//
// The factory is deliberately agnostic to per-protocol information — it
// "only needs to know the active protocols' IDs to do its job".
#pragma once

#include "core/decision_module.h"
#include "core/ia_db.h"
#include "ia/integrated_advertisement.h"

namespace dbgp::core {

class IaFactory {
 public:
  struct Params {
    bgp::AsNumber own_as = 0;
    ia::IslandId own_island;
    net::Ipv4Address next_hop;
    // Islands that keep per-AS paths list themselves in the path vector;
    // islands that abstract rely on the egress global filter instead.
    bool prepend_own_as = true;
  };

  explicit IaFactory(Params params) : params_(params) {}

  // Builds the outgoing IA for a selected best route. `active` may be null
  // (pure gulf AS: pass-through only). Pass-through happens here: `best.ia`
  // is the stored incoming advertisement from the IA DB. Equivalent to
  // annotate(export_base(best), &best, active, ctx).
  ia::IntegratedAdvertisement create_from_best(const IaRoute& best, DecisionModule* active,
                                               const ExportContext& ctx) const;

  // Builds the IA for a locally originated prefix. Equivalent to
  // annotate(origin_base(prefix), nullptr, active, ctx).
  ia::IntegratedAdvertisement create_origin(const net::Prefix& prefix, DecisionModule* active,
                                            const ExportContext& ctx) const;

  // The peer-invariant halves of the two builders above: the pass-through
  // copy of `best.ia` (or a fresh IA for an origin) with the baseline updates
  // applied. A speaker builds one per decision and shares it across peers.
  ia::IntegratedAdvertisement export_base(const IaRoute& best) const;
  ia::IntegratedAdvertisement origin_base(const net::Prefix& prefix) const;

  // The per-peer half: the active module's export hook rewrites `base` for
  // `ctx.to_peer` (annotate_origin when `best` is null, annotate_export
  // otherwise). Takes the base by value so every peer annotates its own copy.
  ia::IntegratedAdvertisement annotate(ia::IntegratedAdvertisement base, const IaRoute* best,
                                       DecisionModule* active, const ExportContext& ctx) const;

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

}  // namespace dbgp::core
