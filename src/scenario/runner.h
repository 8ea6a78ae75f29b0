// Builds a DbgpNetwork from a parsed Scenario, runs it to convergence, and
// evaluates the scenario's expectations.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include <cstdint>
#include <optional>

#include "core/lookup_service.h"
#include "protocols/pathlet.h"
#include "protocols/bgpsec.h"
#include "scenario/parser.h"
#include "sim/experiment.h"
#include "simnet/chaos.h"
#include "simnet/network.h"

namespace dbgp::scenario {

struct ExpectationResult {
  Expectation expectation;
  bool passed = false;
  std::string detail;  // human-readable explanation on failure
};

struct RunResult {
  std::size_t events = 0;
  // False when the event-queue safety cap fired before the network drained:
  // the run was truncated and expectation results describe a network that
  // has NOT converged. Callers must surface this, not treat it as success.
  bool converged = true;
  // Full drain stats, including the churn counters a chaos run accumulates
  // (replay checks compare these field by field).
  simnet::RunStats stats;
  std::vector<ExpectationResult> expectations;
  bool all_passed() const noexcept;
  std::size_t failures() const noexcept;
};

// -- Shared build helpers -----------------------------------------------------
// Used by Runner::build and by the route server (server/daemon.h), which
// constructs the same speakers at runtime from `add-peer` / ­`upgrade-protocol`
// commands and from snapshot node records. Keeping one factory means a
// network built command-by-command is indistinguishable from one built from
// the equivalent scenario file.

// Stable island ID from a scenario island name (FNV-1a over the name;
// deterministic across runs and processes). Empty name => invalid id (gulf).
ia::IslandId island_id_for(const std::string& name);
// Protocol name -> registry id; throws std::runtime_error on unknown names.
ia::ProtocolId protocol_id_for(const std::string& name);
// The speaker configuration an `as` declaration describes.
core::DbgpConfig config_for_decl(const AsDecl& decl);
// Creates the decision module for `protocol` at `decl`'s AS: Wiser costs and
// EQ-BGP bandwidth come from the declaration, BGPSEC binds to `authority`,
// pathlets get a store seeded from `pathlets` (owned via `pathlet_stores`),
// SCION paths come from `scion_paths`. Returns nullptr for plain BGP (every
// speaker runs the baseline module regardless).
std::unique_ptr<core::DecisionModule> make_protocol_module(
    const AsDecl& decl, ia::ProtocolId protocol,
    protocols::AttestationAuthority& authority,
    std::map<bgp::AsNumber, std::unique_ptr<protocols::PathletStore>>& pathlet_stores,
    const std::vector<PathletDecl>& pathlets,
    const std::vector<ScionPathDecl>& scion_paths);

// Converts a parsed `chaos` stanza into the chaos engine's options (field
// semantics match 1:1).
simnet::ChaosOptions to_chaos_options(const ChaosDecl& decl);

// Converts a parsed `sweep` stanza into the sweep engine's configuration.
// `threads_override`, when set, wins over the stanza's threads= option (the
// CLI's --threads flag; 0 still means hardware_concurrency).
sim::SweepConfig to_sweep_config(const SweepDecl& decl,
                                 std::optional<std::size_t> threads_override = {});

// Runs the scenario's sweep stanza on the deterministic parallel sweep
// engine. Throws std::runtime_error if the scenario has no sweep.
sim::SweepResult run_scenario_sweep(const Scenario& scenario,
                                    std::optional<std::size_t> threads_override = {});

class Runner {
 public:
  Runner() = default;

  // Records causal spans + decision audits during run() (telemetry/causal.h;
  // drives the Perfetto export, the oracle, and dbgp_explain). Frame spans
  // carry the per-hop facts: wire size, carried protocols, understood or
  // passed through. Call before build(): speakers bind to the tracer at
  // creation.
  void enable_causal_tracing();
  const telemetry::CausalTracer& causal() const noexcept { return causal_; }

  // How delivered frames are processed (call before build()); default
  // immediate. Batched coalesces decisions per touched prefix at flush.
  void set_delivery(simnet::DeliveryMode mode) noexcept { delivery_ = mode; }
  // Worker threads for each speaker's sharded pipeline (call before
  // build()); wins over the scenario's `speaker-threads` directive. Only
  // effective with batched delivery; bit-identical results at any value.
  void set_speaker_threads(std::size_t threads) noexcept {
    speaker_threads_override_ = threads;
  }
  // Observability plane (call before build()): > 0 samples the metrics
  // registry at this sim-time interval and journals session/chaos/
  // reconvergence events; wins over the scenario's `observe` stanza (0
  // forces it off) — the CLI's --observe-interval.
  void set_observe(double interval) noexcept { observe_override_ = interval; }
  // nullptr while observation is off.
  telemetry::TimeSeriesSampler* sampler() noexcept { return sampler_.get(); }
  telemetry::EventLog* event_log() noexcept { return event_log_.get(); }
  // Replaces the seed of the scenario's chaos stanza (no effect without
  // one) — the CLI's --chaos-seed.
  void set_chaos_seed(std::uint64_t seed) noexcept { chaos_seed_ = seed; }
  // Injects this chaos schedule regardless of any stanza in the scenario
  // (the stanza, if present, is ignored) — the CLI's --chaos-profile.
  void set_chaos(const simnet::ChaosOptions& options) { chaos_override_ = options; }
  // Event cap for run()'s drain (default 10M) — the CLI's --max-events.
  // Dispute-wheel scenarios at fc-adoption=0 have NO stable state, so a full
  // drain never terminates on its own: cap the run low and read
  // RunResult::converged == false as the expected oscillation.
  void set_max_events(std::size_t cap) noexcept { max_events_ = cap; }

  // Builds the network (throws std::runtime_error on inconsistent
  // scenarios: unknown ASes in links, pathlets at non-pathlet ASes, ...).
  void build(const Scenario& scenario);
  // Originates, converges, evaluates expectations.
  RunResult run();

  simnet::DbgpNetwork& network() noexcept { return *net_; }
  // The scenario as built — with a dispute-wheel stanza already expanded
  // into its ASes, links, and origination (reports should prefer this over
  // the parsed scenario they handed to build()).
  const Scenario& scenario() const noexcept { return scenario_; }
  // Per-AS route-table dump for the report.
  std::string dump_tables() const;

 private:
  Scenario scenario_;
  core::LookupService lookup_;
  protocols::AttestationAuthority authority_;
  std::unique_ptr<simnet::DbgpNetwork> net_;
  telemetry::CausalTracer causal_;
  bool causal_tracing_ = false;
  simnet::DeliveryMode delivery_ = simnet::DeliveryMode::kImmediate;
  std::optional<std::size_t> speaker_threads_override_;
  std::optional<std::uint64_t> chaos_seed_;
  std::optional<simnet::ChaosOptions> chaos_override_;
  std::size_t max_events_ = 10'000'000;
  // Observability plane (see set_observe); created by build() when enabled.
  std::unique_ptr<telemetry::TimeSeriesSampler> sampler_;
  std::unique_ptr<telemetry::EventLog> event_log_;
  std::optional<double> observe_override_;
  // Pathlet stores must outlive the speakers that reference them.
  std::map<bgp::AsNumber, std::unique_ptr<protocols::PathletStore>> pathlet_stores_;
};

}  // namespace dbgp::scenario
