#include "server/daemon.h"

#include <algorithm>
#include <stdexcept>

#include "core/filters.h"
#include "protocols/bgp_module.h"
#include "scenario/runner.h"

namespace dbgp::server {

namespace {

std::uint64_t fnv1a64_step(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

RouteServer::RouteServer(Options options) : options_(options) {
  simnet::DbgpNetwork::Options net_options;
  net_options.delivery = options_.delivery;
  net_options.speaker_threads = options_.speaker_threads;
  if (options_.causal) net_options.causal = &causal_;
  net_ = std::make_unique<simnet::DbgpNetwork>(&lookup_, net_options);

  auto& registry = telemetry::MetricsRegistry::global();
  reconfigs_ = &registry.counter("server.reconfigs");
  snapshots_ = &registry.counter("server.snapshots");
  restores_ = &registry.counter("server.restores");
  uptime_ = &registry.gauge("server.uptime_sim_s");
  if (options_.observe_interval > 0.0) set_observe(options_.observe_interval);
}

void RouteServer::set_observe(double interval) {
  // Detach before destroying: the network holds raw pointers.
  net_->options().sampler = nullptr;
  net_->options().event_log = nullptr;
  sampler_.reset();
  event_log_.reset();
  observe_interval_ = 0.0;
  if (interval <= 0.0) return;
  telemetry::TimeSeriesSampler::Options opts;
  opts.interval = interval;
  sampler_ = std::make_unique<telemetry::TimeSeriesSampler>(opts);
  event_log_ = std::make_unique<telemetry::EventLog>();
  net_->options().sampler = sampler_.get();
  net_->options().event_log = event_log_.get();
  observe_interval_ = interval;
}

telemetry::ConvergenceOracle::RunReport RouteServer::classify_convergence() {
  if (!options_.causal) {
    throw std::runtime_error("convergence oracle needs causal tracing (Options::causal)");
  }
  auto report = oracle_.classify(causal_);
  if (event_log_ != nullptr) event_log_->record(now(), "oracle", 0, 0, summary(report));
  return report;
}

core::DbgpSpeaker& RouteServer::build_speaker(const scenario::AsDecl& decl) {
  auto& speaker = net_->add_as(scenario::config_for_decl(decl));
  auto module = scenario::make_protocol_module(
      decl, scenario::protocol_id_for(decl.protocol), authority_, pathlet_stores_,
      pathlets_, scion_paths_);
  if (module != nullptr) speaker.add_module(std::move(module));
  speaker.add_module(std::make_unique<protocols::BgpModule>());
  return speaker;
}

void RouteServer::apply_strip(bgp::AsNumber asn, const std::string& protocol) {
  net_->speaker(asn).import_filters().add(
      "strip-" + protocol, core::strip_protocol_filter(scenario::protocol_id_for(protocol)));
}

RouteServer::NodeMeta& RouteServer::meta_or_throw(bgp::AsNumber asn) {
  const auto it = meta_.find(asn);
  if (it == meta_.end()) {
    throw std::runtime_error("unknown AS " + std::to_string(asn));
  }
  if (it->second.retired) {
    throw std::runtime_error("AS " + std::to_string(asn) + " was retired by remove-peer");
  }
  return it->second;
}

const RouteServer::NodeMeta& RouteServer::meta_or_throw(bgp::AsNumber asn) const {
  return const_cast<RouteServer*>(this)->meta_or_throw(asn);
}

void RouteServer::load(const scenario::Scenario& scenario) {
  if (!empty()) throw std::runtime_error("load requires an empty server");
  if (scenario.sweep) {
    throw std::runtime_error("a sweep scenario describes an experiment, not a servable network");
  }
  if (scenario.dispute_wheel) {
    // Its permitted-path import filters are not snapshot state, so a served
    // wheel could not round-trip.
    throw std::runtime_error("a dispute-wheel scenario cannot be served: its import filters "
                             "do not survive a snapshot");
  }
  pathlets_ = scenario.pathlets;
  scion_paths_ = scenario.scion_paths;
  for (const auto& decl : scenario.ases) add_as(decl);
  for (const auto& decl : scenario.pathlets) {
    if (pathlet_stores_.count(decl.asn) == 0) {
      throw std::runtime_error("pathlet declared at AS " + std::to_string(decl.asn) +
                               " which does not run protocol=pathlets");
    }
  }
  for (const auto& decl : scenario.strips) {
    meta_or_throw(decl.asn).strips.push_back(decl.protocol);
    apply_strip(decl.asn, decl.protocol);
  }
  for (const auto& link : scenario.links) {
    meta_or_throw(link.a);
    meta_or_throw(link.b);
    net_->add_link(link.a, link.b, link.same_island, link.latency);
    links_.push_back({link.a, link.b, link.same_island, link.latency, true});
  }
  for (const auto& decl : scenario.originations) {
    net_->originate(decl.asn, decl.prefix);
  }
  if (scenario.chaos) set_chaos(scenario::to_chaos_options(*scenario.chaos));
  // The scenario's `observe` stanza shapes the plane unless the host already
  // configured it (an explicit Options/--observe-interval wins).
  if (scenario.observe_interval > 0.0 && observe_interval_ <= 0.0) {
    set_observe(scenario.observe_interval);
  }
}

void RouteServer::add_as(const scenario::AsDecl& decl) {
  const auto it = meta_.find(decl.asn);
  if (it != meta_.end()) {
    throw std::runtime_error(
        it->second.retired
            ? "AS number " + std::to_string(decl.asn) + " was retired and cannot be reused"
            : "AS " + std::to_string(decl.asn) + " already exists");
  }
  build_speaker(decl);
  meta_[decl.asn] = NodeMeta{decl, {}, {}, false};
}

void RouteServer::add_peer(bgp::AsNumber a, bgp::AsNumber b, bool same_island,
                           double latency) {
  if (a == b) throw std::runtime_error("cannot peer an AS with itself");
  for (const bgp::AsNumber asn : {a, b}) {
    if (meta_.count(asn) == 0) {
      scenario::AsDecl decl;
      decl.asn = asn;
      add_as(decl);
    }
  }
  reconfigs_->inc();
  if (simnet::Link* existing = net_->find_link(a, b)) {
    if (existing->up()) {
      throw std::runtime_error("AS " + std::to_string(a) + " and AS " +
                               std::to_string(b) + " are already peered");
    }
    existing->set_state(simnet::LinkState::kUp);
    for (auto& record : links_) {
      if ((record.a == a && record.b == b) || (record.a == b && record.b == a)) {
        record.up = true;
      }
    }
    return;
  }
  net_->add_link(a, b, same_island, latency);
  links_.push_back({a, b, same_island, latency, true});
}

void RouteServer::remove_peer(bgp::AsNumber asn) {
  NodeMeta& meta = meta_or_throw(asn);
  reconfigs_->inc();
  // Crash first (sessions drop, neighbors purge), then pin every adjacent
  // link down so nothing can resurrect the sessions later. The node stays as
  // a tombstone — see NodeMeta::retired.
  if (net_->node_up(asn)) net_->crash(asn);
  for (auto& record : links_) {
    if (record.a != asn && record.b != asn) continue;
    if (simnet::Link* link = net_->find_link(record.a, record.b)) {
      if (link->up()) link->set_state(simnet::LinkState::kDown);
    }
    record.up = false;
  }
  meta.retired = true;
  checkpoints_.erase(asn);
}

void RouteServer::originate(bgp::AsNumber asn, const net::Prefix& prefix) {
  meta_or_throw(asn);
  net_->originate(asn, prefix);
}

void RouteServer::withdraw(bgp::AsNumber asn, const net::Prefix& prefix) {
  meta_or_throw(asn);
  net_->withdraw(asn, prefix);
}

void RouteServer::reload_policy(bgp::AsNumber asn,
                                const std::vector<std::string>& strips) {
  NodeMeta& meta = meta_or_throw(asn);
  reconfigs_->inc();
  auto& speaker = net_->speaker(asn);
  for (const auto& old : meta.strips) {
    if (std::find(strips.begin(), strips.end(), old) == strips.end()) {
      speaker.import_filters().remove("strip-" + old);
    }
  }
  for (const auto& now : strips) {
    scenario::protocol_id_for(now);  // validate before mutating
    if (std::find(meta.strips.begin(), meta.strips.end(), now) == meta.strips.end()) {
      apply_strip(asn, now);
    }
  }
  meta.strips = strips;
  // Route-refresh every adjacent session: stored adj-in on both sides was
  // imported through the old filters, so bounce each live link (down + up at
  // one instant) to re-learn through the new ones.
  for (const bgp::AsNumber neighbor : as_numbers()) {
    if (neighbor == asn) continue;
    simnet::Link* link = net_->find_link(asn, neighbor);
    if (link != nullptr && link->up() && net_->node_up(neighbor) && net_->node_up(asn)) {
      link->refresh();
    }
  }
}

void RouteServer::upgrade_protocol(bgp::AsNumber asn, const std::string& protocol) {
  NodeMeta& meta = meta_or_throw(asn);
  const ia::ProtocolId pid = scenario::protocol_id_for(protocol);
  reconfigs_->inc();
  auto& speaker = net_->speaker(asn);
  if (pid != ia::kProtoBgp && speaker.module(pid) == nullptr) {
    auto module = scenario::make_protocol_module(meta.decl, pid, authority_,
                                                 pathlet_stores_, pathlets_,
                                                 scion_paths_);
    if (module != nullptr) speaker.add_module(std::move(module));
  }
  speaker.set_active_protocol(*net::Prefix::parse("0.0.0.0/0"), pid);
  meta.upgraded_protocol = protocol;
  // Re-run every decision under the new active protocol and advertise the
  // deltas — the live half of a rolling adoption step.
  net_->inject(asn, speaker.reevaluate_all());
}

void RouteServer::set_chaos(const simnet::ChaosOptions& options) {
  reconfigs_->inc();
  simnet::ChaosPolicy policy(options);
  policy.inject(*net_);
}

void RouteServer::set_speaker_threads(std::size_t threads) {
  // The network refuses while any speaker holds staged frames; the counter
  // only moves on an accepted reconfiguration.
  net_->set_speaker_threads(threads);
  options_.speaker_threads = net_->speaker_threads();
  reconfigs_->inc();
}

void RouteServer::crash(bgp::AsNumber asn) {
  meta_or_throw(asn);
  checkpoints_[asn] = net_->speaker(asn).export_state();
  net_->crash(asn);
}

void RouteServer::restart(bgp::AsNumber asn) {
  meta_or_throw(asn);
  net_->restart(asn);
}

void RouteServer::restart_warm(bgp::AsNumber asn) {
  meta_or_throw(asn);
  const auto it = checkpoints_.find(asn);
  if (it == checkpoints_.end()) {
    throw std::runtime_error("no checkpoint for AS " + std::to_string(asn) +
                             " (crash it via the server first)");
  }
  net_->restart_warm(asn, it->second);
}

void RouteServer::graceful_restart(bgp::AsNumber asn) {
  crash(asn);
  restart_warm(asn);
}

simnet::RunStats RouteServer::run() {
  const simnet::RunStats stats = net_->run_to_convergence();
  uptime_->set(static_cast<std::int64_t>(now()));
  return stats;
}

simnet::RunStats RouteServer::step(double seconds) {
  return run_until(now() + seconds);
}

simnet::RunStats RouteServer::run_until(double until) {
  const simnet::RunStats stats = net_->run_until(until);
  uptime_->set(static_cast<std::int64_t>(now()));
  return stats;
}

double RouteServer::now() const noexcept { return net_->events().now(); }

Snapshot RouteServer::snapshot() {
  run();  // a snapshot is a consistent cut of a quiescent network
  Snapshot snap;
  snap.sim_time = now();
  snap.pathlets = pathlets_;
  snap.scion_paths = scion_paths_;
  for (const auto& [asn, meta] : meta_) {
    Snapshot::Node node;
    node.decl = meta.decl;
    node.strips = meta.strips;
    node.upgraded_protocol = meta.upgraded_protocol;
    node.up = net_->node_up(asn);
    node.retired = meta.retired;
    node.state = net_->speaker(asn).export_state();
    snap.nodes.push_back(std::move(node));
  }
  for (const auto& record : links_) {
    Snapshot::Link link = record;
    if (const simnet::Link* live = net_->find_link(record.a, record.b)) {
      link.up = live->up();
    }
    snap.links.push_back(link);
  }
  snapshots_->inc();
  return snap;
}

void RouteServer::restore(const Snapshot& snapshot) {
  if (!empty()) throw std::runtime_error("restore requires a fresh, empty server");
  pathlets_ = snapshot.pathlets;
  scion_paths_ = snapshot.scion_paths;
  // Phase 1: rebuild the declarative topology. Links dispatch full-table
  // syncs exactly as the original daemon's did; peer ids come out identical
  // because links are replayed in creation order.
  for (const auto& node : snapshot.nodes) {
    add_as(node.decl);
    NodeMeta& meta = meta_.at(node.decl.asn);
    meta.strips = node.strips;
    for (const auto& strip : node.strips) apply_strip(node.decl.asn, strip);
    if (!node.upgraded_protocol.empty()) {
      meta.upgraded_protocol = node.upgraded_protocol;
      auto& speaker = net_->speaker(node.decl.asn);
      const ia::ProtocolId pid = scenario::protocol_id_for(node.upgraded_protocol);
      if (pid != ia::kProtoBgp && speaker.module(pid) == nullptr) {
        auto module = scenario::make_protocol_module(
            meta.decl, pid, authority_, pathlet_stores_, pathlets_, scion_paths_);
        if (module != nullptr) speaker.add_module(std::move(module));
      }
      speaker.set_active_protocol(*net::Prefix::parse("0.0.0.0/0"), pid);
    }
  }
  for (const auto& link : snapshot.links) {
    net_->add_link(link.a, link.b, link.same_island, link.latency);
    links_.push_back(link);
  }
  net_->run_to_convergence();
  // Phase 2: apply the down states the snapshot recorded, and drain the
  // resulting withdrawals.
  for (const auto& link : snapshot.links) {
    if (!link.up) net_->link(link.a, link.b).set_state(simnet::LinkState::kDown);
  }
  for (const auto& node : snapshot.nodes) {
    if (!node.up) net_->crash(node.decl.asn);
    if (node.retired) meta_.at(node.decl.asn).retired = true;
  }
  net_->run_to_convergence();
  // Phase 3: install every speaker's recorded state verbatim — adj-in,
  // Loc-RIB, adj-out, and the arrival-sequence counter. No decisions run and
  // no frames are emitted, so the Loc-RIB is the snapshot's, bit for bit,
  // and future tie-breaks continue exactly where the original left off.
  for (const auto& node : snapshot.nodes) {
    net_->speaker(node.decl.asn).restore_state(node.state, /*keep_adj_out=*/true);
  }
  net_->events().advance_to(snapshot.sim_time);
  uptime_->set(static_cast<std::int64_t>(now()));
  restores_->inc();
}

std::vector<bgp::AsNumber> RouteServer::as_numbers() const {
  std::vector<bgp::AsNumber> out;
  out.reserve(meta_.size());
  for (const auto& [asn, meta] : meta_) {
    if (!meta.retired) out.push_back(asn);
  }
  return out;
}

std::size_t RouteServer::link_count() const noexcept {
  std::size_t count = 0;
  for (const auto& record : links_) count += record.up ? 1 : 0;
  return count;
}

std::uint64_t RouteServer::loc_rib_hash(bgp::AsNumber asn) const {
  meta_or_throw(asn);
  const auto state = net_->speaker(asn).export_state();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& record : state.selected) {
    const std::uint32_t addr = record.prefix.address().value();
    const std::uint8_t head[5] = {
        static_cast<std::uint8_t>(addr >> 24), static_cast<std::uint8_t>(addr >> 16),
        static_cast<std::uint8_t>(addr >> 8), static_cast<std::uint8_t>(addr),
        record.prefix.length()};
    h = fnv1a64_step(h, head);
    h = fnv1a64_step(h, record.bytes);
  }
  return h;
}

}  // namespace dbgp::server
