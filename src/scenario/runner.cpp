#include "scenario/runner.h"

#include <sstream>
#include <stdexcept>

#include "protocols/bgp_module.h"
#include "protocols/eqbgp.h"
#include "protocols/fcbgp.h"
#include "protocols/lisp.h"
#include "protocols/rbgp.h"
#include "protocols/scion.h"
#include "protocols/stackvec.h"
#include "protocols/wiser.h"
#include "topology/dispute_wheel.h"

namespace dbgp::scenario {

ia::IslandId island_id_for(const std::string& name) {
  if (name.empty()) return {};
  // Stable ID from the name so scenarios are deterministic.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return ia::IslandId::assigned(static_cast<std::uint32_t>(h ^ (h >> 32)) | 1u);
}

ia::ProtocolId protocol_id_for(const std::string& name) {
  const ia::ProtocolId id = ia::default_registry().find(name);
  if (id == 0) throw std::runtime_error("unknown protocol '" + name + "'");
  return id;
}

core::DbgpConfig config_for_decl(const AsDecl& decl) {
  const ia::ProtocolId active = protocol_id_for(decl.protocol);
  core::DbgpConfig config;
  config.asn = decl.asn;
  config.next_hop = net::Ipv4Address(decl.asn);
  config.island = island_id_for(decl.island);
  config.island_protocol = active;
  config.abstract_island = decl.abstract_island;
  config.island_members = decl.members;
  config.active_protocol = active;
  return config;
}

std::unique_ptr<core::DecisionModule> make_protocol_module(
    const AsDecl& decl, ia::ProtocolId protocol,
    protocols::AttestationAuthority& authority,
    std::map<bgp::AsNumber, std::unique_ptr<protocols::PathletStore>>& pathlet_stores,
    const std::vector<PathletDecl>& pathlets,
    const std::vector<ScionPathDecl>& scion_paths) {
  const ia::IslandId island = island_id_for(decl.island);
  switch (protocol) {
    case ia::kProtoWiser:
      return std::make_unique<protocols::WiserModule>(
          protocols::WiserModule::Config{island, decl.cost, net::Ipv4Address(decl.asn)},
          nullptr);
    case ia::kProtoEqBgp:
      return std::make_unique<protocols::EqBgpModule>(
          protocols::EqBgpModule::Config{island, decl.bandwidth});
    case ia::kProtoBgpSec:
      return std::make_unique<protocols::BgpSecModule>(
          protocols::BgpSecModule::Config{decl.asn, island, false}, &authority);
    case ia::kProtoRBgp:
      return std::make_unique<protocols::RBgpModule>(
          protocols::RBgpModule::Config{island});
    case ia::kProtoLisp: {
      protocols::LispMapping mapping;
      mapping.eid_prefix = *net::Prefix::parse("0.0.0.0/0");
      mapping.rlocs = {net::Ipv4Address(decl.asn)};
      return std::make_unique<protocols::LispModule>(
          protocols::LispModule::Config{island, mapping});
    }
    case ia::kProtoScion: {
      std::vector<protocols::ScionPath> paths;
      for (const auto& p : scion_paths) {
        if (p.asn == decl.asn) paths.push_back({p.hops});
      }
      return std::make_unique<protocols::ScionModule>(
          protocols::ScionModule::Config{island, std::move(paths)});
    }
    case ia::kProtoFcBgp:
      return std::make_unique<protocols::FcBgpModule>(
          protocols::FcBgpModule::Config{decl.asn, island}, &authority);
    case ia::kProtoStackVec:
      return std::make_unique<protocols::StackVecModule>(
          protocols::StackVecModule::Config{decl.asn, island,
                                            net::Ipv4Address(decl.asn)});
    case ia::kProtoPathlets: {
      auto store = std::make_unique<protocols::PathletStore>();
      for (const auto& p : pathlets) {
        if (p.asn == decl.asn) store->add_local({p.fid, p.vias, p.delivers});
      }
      auto module = std::make_unique<protocols::PathletModule>(
          protocols::PathletModule::Config{island}, store.get());
      pathlet_stores[decl.asn] = std::move(store);
      return module;
    }
    default:
      return nullptr;  // plain BGP: the baseline module covers it
  }
}

sim::SweepConfig to_sweep_config(const SweepDecl& decl,
                                 std::optional<std::size_t> threads_override) {
  sim::SweepConfig config;
  config.topology.nodes = decl.nodes;
  config.trials = decl.trials;
  config.seed = decl.seed;
  config.threads = threads_override.value_or(decl.threads);
  config.extra_paths.path_cap = decl.path_cap;
  config.bandwidth_min = decl.bw_min;
  config.bandwidth_max = decl.bw_max;
  if (!decl.levels.empty()) config.adoption_levels = decl.levels;
  return config;
}

sim::SweepResult run_scenario_sweep(const Scenario& scenario,
                                    std::optional<std::size_t> threads_override) {
  if (!scenario.sweep) {
    throw std::runtime_error("scenario has no sweep stanza");
  }
  const sim::SweepConfig config = to_sweep_config(*scenario.sweep, threads_override);
  return scenario.sweep->archetype == SweepDecl::Archetype::kExtraPaths
             ? sim::run_extra_paths_sweep(config)
             : sim::run_bottleneck_sweep(config);
}

simnet::ChaosOptions to_chaos_options(const ChaosDecl& decl) {
  simnet::ChaosOptions opts;
  opts.seed = decl.seed;
  opts.start = decl.start;
  opts.horizon = decl.horizon;
  opts.flap_fraction = decl.flap_fraction;
  opts.mean_up = decl.mean_up;
  opts.mean_down = decl.mean_down;
  opts.faults.loss = decl.loss;
  opts.faults.duplicate = decl.duplicate;
  opts.faults.reorder = decl.reorder;
  opts.faults.reorder_delay = decl.reorder_delay;
  opts.faults.corrupt = decl.corrupt;
  opts.crash_fraction = decl.crash_fraction;
  opts.mean_downtime = decl.mean_downtime;
  return opts;
}

bool RunResult::all_passed() const noexcept { return failures() == 0; }

std::size_t RunResult::failures() const noexcept {
  std::size_t count = 0;
  for (const auto& r : expectations) count += r.passed ? 0 : 1;
  return count;
}

void Runner::enable_causal_tracing() { causal_tracing_ = true; }

void Runner::build(const Scenario& scenario) {
  scenario_ = scenario;
  // A dispute-wheel stanza expands into plain network declarations up front,
  // so everything downstream (speaker construction, snapshots, dump_tables)
  // sees an ordinary scenario. The permitted-path import filters that make
  // the ring oscillate are installed after the speakers exist, below.
  std::optional<topology::DisputeWheel> wheel;
  if (scenario_.dispute_wheel) {
    const DisputeWheelDecl& decl = *scenario_.dispute_wheel;
    topology::DisputeWheelSpec spec;
    spec.spokes = decl.spokes;
    spec.hub_as = decl.hub;
    spec.first_spoke_as = decl.first_spoke;
    spec.fc_adoption = decl.fc_adoption;
    spec.seed = decl.seed;
    wheel = topology::make_dispute_wheel(spec);
    AsDecl hub;
    hub.asn = wheel->spec.hub_as;
    hub.protocol = wheel->any_upgraded() ? "fcbgp" : "bgp";
    scenario_.ases.push_back(hub);
    for (std::size_t i = 0; i < wheel->spoke_as.size(); ++i) {
      AsDecl spoke;
      spoke.asn = wheel->spoke_as[i];
      spoke.protocol = wheel->upgraded[i] ? "fcbgp" : "bgp";
      scenario_.ases.push_back(spoke);
    }
    for (const auto& [a, b] : wheel->links) {
      LinkDecl link;
      link.a = a;
      link.b = b;
      scenario_.links.push_back(link);
    }
    OriginateDecl origin;
    origin.asn = wheel->spec.hub_as;
    origin.prefix = decl.prefix;
    scenario_.originations.push_back(origin);
  }
  simnet::DbgpNetwork::Options options;
  options.delivery = delivery_;
  options.speaker_threads =
      speaker_threads_override_.value_or(scenario_.speaker_threads);
  if (causal_tracing_) options.causal = &causal_;
  if (const double observe = observe_override_.value_or(scenario_.observe_interval);
      observe > 0.0) {
    telemetry::TimeSeriesSampler::Options sampler_options;
    sampler_options.interval = observe;
    sampler_ = std::make_unique<telemetry::TimeSeriesSampler>(sampler_options);
    event_log_ = std::make_unique<telemetry::EventLog>();
    options.sampler = sampler_.get();
    options.event_log = event_log_.get();
  }
  net_ = std::make_unique<simnet::DbgpNetwork>(&lookup_, options);

  for (const auto& decl : scenario_.ases) {
    auto& speaker = net_->add_as(config_for_decl(decl));
    auto module = make_protocol_module(decl, protocol_id_for(decl.protocol),
                                       authority_, pathlet_stores_,
                                       scenario_.pathlets, scenario_.scion_paths);
    if (module != nullptr) speaker.add_module(std::move(module));
    speaker.add_module(std::make_unique<protocols::BgpModule>());
  }

  // Pathlets declared at ASes not running the protocol are a scenario bug.
  for (const auto& decl : scenario_.pathlets) {
    if (pathlet_stores_.count(decl.asn) == 0) {
      throw std::runtime_error("pathlet declared at AS " + std::to_string(decl.asn) +
                               " which does not run protocol=pathlets");
    }
  }

  for (const auto& decl : scenario_.strips) {
    net_->speaker(decl.asn).import_filters().add(
        "strip-" + decl.protocol,
        core::strip_protocol_filter(protocol_id_for(decl.protocol)));
  }

  if (wheel) {
    // Spoke i permits exactly its direct path [hub] and the indirect path
    // [i+1, hub] through its clockwise neighbor, preferring the latter — the
    // Gao–Rexford violation that makes an odd ring oscillate. Everything
    // else is dropped at import (an implicit withdraw), which is what keeps
    // stale indirect routes from falsely stabilizing the wheel.
    const net::Prefix prefix = scenario_.dispute_wheel->prefix;
    for (const auto& policy : wheel->policies) {
      std::vector<core::RankedPath> ranked;
      ranked.push_back({{wheel->spec.hub_as}, policy.direct_pref});
      ranked.push_back({{policy.indirect_via, wheel->spec.hub_as}, policy.indirect_pref});
      net_->speaker(policy.spoke_as)
          .import_filters()
          .add("dispute-wheel", core::permitted_paths_filter(prefix, std::move(ranked)));
    }
  }

  for (const auto& link : scenario_.links) {
    net_->add_link(link.a, link.b, link.same_island, link.latency);
  }
}

RunResult Runner::run() {
  RunResult result;
  for (const auto& decl : scenario_.originations) {
    net_->originate(decl.asn, decl.prefix);
  }
  // Chaos is scheduled after originations so the fault window overlaps the
  // propagation it is meant to disturb; expectations below then describe the
  // re-converged, repaired network.
  std::optional<simnet::ChaosOptions> chaos = chaos_override_;
  if (!chaos && scenario_.chaos) chaos = to_chaos_options(*scenario_.chaos);
  if (chaos) {
    if (chaos_seed_) chaos->seed = *chaos_seed_;
    simnet::ChaosPolicy policy(*chaos);
    policy.inject(*net_);
  }
  const simnet::RunStats drained = net_->run_to_convergence(max_events_);
  result.events = drained.processed;
  result.converged = !drained.capped;
  result.stats = drained;

  for (const auto& e : scenario_.expectations) {
    ExpectationResult er;
    er.expectation = e;
    const auto* best = net_->speaker(e.asn).best(e.prefix);
    switch (e.kind) {
      case Expectation::Kind::kReachable:
        er.passed = best != nullptr;
        if (!er.passed) er.detail = "no route";
        break;
      case Expectation::Kind::kUnreachable:
        er.passed = best == nullptr;
        if (!er.passed) er.detail = "route exists via " + best->ia.path_vector.to_string();
        break;
      case Expectation::Kind::kVia:
      case Expectation::Kind::kNotVia: {
        if (best == nullptr) {
          er.detail = "no route";
          break;
        }
        const bool via = best->ia.path_vector.contains_as(
            static_cast<bgp::AsNumber>(e.value));
        er.passed = e.kind == Expectation::Kind::kVia ? via : !via;
        if (!er.passed) er.detail = "path is " + best->ia.path_vector.to_string();
        break;
      }
      case Expectation::Kind::kCost: {
        if (best == nullptr) {
          er.detail = "no route";
          break;
        }
        core::IaRoute route = *best;
        const std::uint64_t cost = protocols::WiserModule::path_cost(route);
        er.passed = cost == e.value;
        if (!er.passed) er.detail = "cost is " + std::to_string(cost);
        break;
      }
      case Expectation::Kind::kPathlets: {
        if (best == nullptr) {
          er.detail = "no route";
          break;
        }
        const std::size_t count = protocols::count_pathlets(best->ia);
        er.passed = count == e.value;
        if (!er.passed) er.detail = "sees " + std::to_string(count) + " pathlets";
        break;
      }
      case Expectation::Kind::kDescriptor: {
        if (best == nullptr) {
          er.detail = "no route";
          break;
        }
        const ia::ProtocolId proto = protocol_id_for(e.protocol);
        bool found = false;
        for (const auto& d : best->ia.path_descriptors()) found |= d.protocol == proto;
        for (const auto& d : best->ia.island_descriptors()) found |= d.protocol == proto;
        er.passed = found;
        if (!er.passed) er.detail = "no descriptor of protocol " + e.protocol;
        break;
      }
    }
    result.expectations.push_back(std::move(er));
  }
  return result;
}

std::string Runner::dump_tables() const {
  std::ostringstream out;
  for (const auto asn : net_->as_numbers()) {
    const auto& speaker = net_->speaker(asn);
    out << "AS" << asn << " (" << speaker.selected_prefixes().size() << " routes)\n";
    for (const auto& prefix : speaker.selected_prefixes()) {
      const auto* best = speaker.best(prefix);
      out << "  " << prefix.to_string() << " via ["
          << best->ia.path_vector.to_string() << "]";
      const auto protocols_on_path = best->ia.protocols_on_path();
      out << " protocols:";
      for (const auto p : protocols_on_path) {
        out << " " << ia::default_registry().name(p);
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace dbgp::scenario
