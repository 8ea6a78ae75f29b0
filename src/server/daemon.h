// RouteServer: a DbgpNetwork hosted as a long-lived daemon.
//
// Everything else in the repo runs a network as a one-shot experiment: build,
// originate, drain, evaluate, exit. The paper's premise, though, is an
// infrastructure that *evolves in place* — islands grow, gulf operators
// change policy, protocols roll out AS by AS — and none of that maps onto a
// process that rebuilds the world per run. RouteServer is the missing piece:
// it owns one network for the lifetime of the process and exposes runtime
// mutation (add/remove peerings, hot policy reload, rolling protocol
// upgrade), RIB snapshot/restore as a consistent cut, graceful restart that
// re-learns from a checkpoint instead of a cold wipe, and query verbs
// (rib/why/blame/metrics/health) over the causal trace and the telemetry
// registry. tools/dbgp_server wraps it in a line-oriented control channel
// (stdin or a Unix socket); server/control.h maps command lines onto these
// methods.
//
// Time is simulated, exactly as in the one-shot tools: the daemon interleaves
// event-queue work with injected commands via run_until, so a scripted
// session replays bit-identically — the whole reason the snapshot tests can
// demand equality between a restored daemon and one that lived through the
// same timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/lookup_service.h"
#include "protocols/bgpsec.h"
#include "protocols/pathlet.h"
#include "scenario/parser.h"
#include "server/snapshot.h"
#include "simnet/chaos.h"
#include "simnet/network.h"
#include "telemetry/causal.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/oracle.h"
#include "telemetry/sampler.h"

namespace dbgp::server {

class RouteServer {
 public:
  struct Options {
    simnet::DeliveryMode delivery = simnet::DeliveryMode::kImmediate;
    // Causal tracing on by default: the daemon's why/blame verbs and the
    // convergence oracle behind `health` read the trace. Benches turn it off.
    bool causal = true;
    // Worker threads for each speaker's sharded batch pipeline (1 =
    // sequential). Effective only with batched delivery; causal tracing
    // keeps the sharded path, and spans and audits come out identical at
    // any value. Changeable at runtime via set_speaker_threads.
    std::size_t speaker_threads = 1;
    // Observability plane: > 0 attaches a time-series sampler (at this
    // sim-time interval) and the structured event log to the network from
    // construction. 0 leaves both off until set_observe() — the benches'
    // default.
    double observe_interval = 0.0;
  };

  RouteServer() : RouteServer(Options{}) {}
  explicit RouteServer(Options options);

  // Builds the scenario's network — ases, pathlet/scion seeds, strips,
  // links, originations, chaos stanza — leaving the resulting advertisements
  // queued. The scenario's `server` command timeline is NOT executed here:
  // the host drives it (run_until to each command's time, then
  // ControlApi::execute), so commands interleave with simulated time.
  void load(const scenario::Scenario& scenario);

  // -- Runtime reconfiguration ----------------------------------------------
  // Each mutation queues whatever control-plane traffic it provokes; the next
  // run()/step() drains it. All throw std::runtime_error on bad input
  // (unknown AS, duplicate AS, unknown protocol, ...).
  void add_as(const scenario::AsDecl& decl);
  // Creates missing endpoints as plain-BGP gulf ASes, then the link (or
  // revives it if it exists but is down).
  void add_peer(bgp::AsNumber a, bgp::AsNumber b, bool same_island = false,
                double latency = -1.0);
  // Retires an AS: sessions drop, its links go down for good, neighbors
  // purge and re-converge. The AS number cannot be reused.
  void remove_peer(bgp::AsNumber asn);
  void originate(bgp::AsNumber asn, const net::Prefix& prefix);
  void withdraw(bgp::AsNumber asn, const net::Prefix& prefix);
  // Replaces the AS's strip policy with `strips` (protocol names), then
  // route-refreshes every adjacent session so stored state re-learns through
  // the new filters — the hot-reload path; no process restart, no RIB wipe.
  void reload_policy(bgp::AsNumber asn, const std::vector<std::string>& strips);
  // Activates `protocol` at the AS for all prefixes (attaching its decision
  // module on first use) and re-evaluates every stored route — one step of a
  // rolling D-BGP adoption across a live island.
  void upgrade_protocol(bgp::AsNumber asn, const std::string& protocol);
  // Injects a seeded chaos schedule over the live network.
  void set_chaos(const simnet::ChaosOptions& options);
  // Live speaker-thread reconfiguration (the control API's
  // `set speaker-threads` verb). Throws while any speaker holds staged
  // frames — the daemon must drain (run/step) before the pipeline is
  // re-shaped; see DbgpNetwork::set_speaker_threads.
  void set_speaker_threads(std::size_t threads);

  // -- Node lifecycle -------------------------------------------------------
  // crash() checkpoints the speaker's state first, so a later
  // restart_warm()/graceful restart can re-learn from it.
  void crash(bgp::AsNumber asn);
  void restart(bgp::AsNumber asn);       // cold: RIB wiped, full re-learn
  void restart_warm(bgp::AsNumber asn);  // from the crash checkpoint
  // crash + immediate warm restart: the node holds its routes throughout.
  void graceful_restart(bgp::AsNumber asn);

  // -- Time -----------------------------------------------------------------
  simnet::RunStats run();                 // drain to quiescence
  simnet::RunStats step(double seconds);  // bounded slice of simulated time
  simnet::RunStats run_until(double until);
  double now() const noexcept;

  // -- Snapshot / restore ---------------------------------------------------
  // Drains first (a snapshot is a consistent cut of a quiescent network),
  // then captures decls + links + full per-speaker state.
  Snapshot snapshot();
  // Rebuilds the snapshot's network into this (required: fresh, empty)
  // daemon and installs every speaker's recorded state verbatim — the
  // restored Loc-RIB is bit-identical to the snapshotted one.
  void restore(const Snapshot& snapshot);

  // -- Introspection --------------------------------------------------------
  bool empty() const noexcept { return meta_.empty(); }
  // Retired tombstones don't count as live ASes.
  bool has_as(bgp::AsNumber asn) const {
    const auto it = meta_.find(asn);
    return it != meta_.end() && !it->second.retired;
  }
  std::vector<bgp::AsNumber> as_numbers() const;
  std::size_t link_count() const noexcept;
  simnet::DbgpNetwork& network() noexcept { return *net_; }
  bool causal_enabled() const noexcept { return options_.causal; }
  const telemetry::CausalTracer& causal() const noexcept { return causal_; }

  // -- Observability plane ----------------------------------------------------
  // (Re)creates the sampler + event log at `interval` and attaches them to
  // the network; interval <= 0 detaches and destroys both. Existing history
  // is dropped on reconfiguration (the interval defines the series shape).
  void set_observe(double interval);
  double observe_interval() const noexcept { return observe_interval_; }
  // nullptr while observation is off.
  telemetry::TimeSeriesSampler* sampler() noexcept { return sampler_.get(); }
  const telemetry::TimeSeriesSampler* sampler() const noexcept { return sampler_.get(); }
  telemetry::EventLog* event_log() noexcept { return event_log_.get(); }
  const telemetry::EventLog* event_log() const noexcept { return event_log_.get(); }
  // Classifies the causal trace (telemetry/oracle.h) — the `health` verb's
  // convergence verdict. Requires Options::causal; throws otherwise. When the
  // event log is attached, the run verdict is journaled as an "oracle" event.
  telemetry::ConvergenceOracle::RunReport classify_convergence();
  // FNV-1a-64 over the AS's encoded Loc-RIB (prefix + selected IA bytes) —
  // the equality probe the snapshot and reconfiguration tests compare.
  std::uint64_t loc_rib_hash(bgp::AsNumber asn) const;

 private:
  struct NodeMeta {
    scenario::AsDecl decl;
    std::vector<std::string> strips;
    std::string upgraded_protocol;
    // remove-peer leaves a tombstone instead of erasing: peer ids are
    // adjacency indices, so the node (and its links) must stay part of the
    // replayable creation history for snapshots to restore with identical
    // peer numbering.
    bool retired = false;
  };

  core::DbgpSpeaker& build_speaker(const scenario::AsDecl& decl);
  void apply_strip(bgp::AsNumber asn, const std::string& protocol);
  NodeMeta& meta_or_throw(bgp::AsNumber asn);
  const NodeMeta& meta_or_throw(bgp::AsNumber asn) const;

  Options options_;
  core::LookupService lookup_;
  protocols::AttestationAuthority authority_;
  telemetry::CausalTracer causal_;
  std::unique_ptr<simnet::DbgpNetwork> net_;
  std::map<bgp::AsNumber, NodeMeta> meta_;
  std::vector<Snapshot::Link> links_;  // creation order (peer ids depend on it)
  std::vector<scenario::PathletDecl> pathlets_;
  std::vector<scenario::ScionPathDecl> scion_paths_;
  // Stores must outlive the speakers referencing them.
  std::map<bgp::AsNumber, std::unique_ptr<protocols::PathletStore>> pathlet_stores_;
  std::map<bgp::AsNumber, core::DbgpSpeaker::SpeakerState> checkpoints_;

  // Observability plane (set_observe); heap-held so the network can keep raw
  // pointers and reconfiguration swaps cleanly.
  std::unique_ptr<telemetry::TimeSeriesSampler> sampler_;
  std::unique_ptr<telemetry::EventLog> event_log_;
  telemetry::ConvergenceOracle oracle_;
  double observe_interval_ = 0.0;

  // Uptime / reconfiguration telemetry (registered in the global registry so
  // the `metrics` verb and bench gating see them).
  telemetry::Counter* reconfigs_ = nullptr;
  telemetry::Counter* snapshots_ = nullptr;
  telemetry::Counter* restores_ = nullptr;
  telemetry::Gauge* uptime_ = nullptr;  // simulated seconds served
};

}  // namespace dbgp::server
