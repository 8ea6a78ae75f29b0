#include "server/control.h"

#include <exception>
#include <sstream>

#include <algorithm>
#include <map>
#include <tuple>

#include "ia/ids.h"
#include "telemetry/metrics.h"
#include "telemetry/prom_export.h"
#include "telemetry/provenance.h"
#include "util/strings.h"

namespace dbgp::server {

namespace {

[[noreturn]] void fail(const std::string& message) { throw std::runtime_error(message); }

std::uint64_t parse_number(std::string_view token) {
  std::uint64_t value = 0;
  if (!util::parse_u64(token, value)) fail("expected a number, got '" + std::string(token) + "'");
  return value;
}

double parse_seconds(const std::string& token) {
  try {
    return std::stod(token);
  } catch (const std::exception&) {
    fail("expected seconds, got '" + token + "'");
  }
}

bgp::AsNumber parse_as(std::string_view token) {
  return static_cast<bgp::AsNumber>(parse_number(token));
}

net::Prefix parse_prefix(const std::string& token) {
  const auto prefix = net::Prefix::parse(token);
  if (!prefix) fail("bad prefix '" + token + "'");
  return *prefix;
}

std::pair<std::string, std::string> split_kv(std::string_view token) {
  const auto eq = token.find('=');
  if (eq == std::string_view::npos) return {std::string(token), ""};
  return {std::string(token.substr(0, eq)), std::string(token.substr(eq + 1))};
}

std::vector<std::string> split_names(std::string_view value) {
  std::vector<std::string> out;
  for (const auto& part : util::split(value, ',')) {
    const auto name = util::trim(part);
    if (!name.empty()) out.emplace_back(name);
  }
  return out;
}

scenario::AsDecl parse_as_decl(const std::vector<std::string>& tokens, std::size_t from) {
  scenario::AsDecl decl;
  decl.asn = parse_as(tokens[from]);
  for (std::size_t i = from + 1; i < tokens.size(); ++i) {
    auto [key, value] = split_kv(tokens[i]);
    if (key == "island") decl.island = value;
    else if (key == "protocol") decl.protocol = value;
    else if (key == "abstract") decl.abstract_island = true;
    else if (key == "members") {
      for (const auto& m : util::split(value, ',')) decl.members.push_back(parse_as(m));
    } else if (key == "cost") decl.cost = parse_number(value);
    else if (key == "bw") decl.bandwidth = parse_number(value);
    else fail("unknown AS option '" + key + "'");
  }
  return decl;
}

std::string format_rib_route(const core::IaRoute& best) {
  std::ostringstream out;
  out << "via [" << best.ia.path_vector.to_string() << "] protocols:";
  for (const auto p : best.ia.protocols_on_path()) {
    out << ' ' << ia::default_registry().name(p);
  }
  return out.str();
}

std::string format_stats(const simnet::RunStats& stats, double now) {
  std::ostringstream out;
  out << "events=" << stats.processed << " time=" << now
      << (stats.capped ? " capped" : "");
  return out.str();
}

// Splits a labeled registry name ("dbgp.peer.rejects|as=1,peer=2") into its
// base and the as/peer label values; returns false for unlabeled names.
bool parse_peer_label(std::string_view name, std::string& base, std::uint32_t& as,
                      std::uint32_t& peer) {
  const auto bar = name.find('|');
  if (bar == std::string_view::npos) return false;
  base = std::string(name.substr(0, bar));
  as = 0;
  peer = 0;
  for (const auto& part : util::split(name.substr(bar + 1), ',')) {
    const auto [key, value] = split_kv(util::trim(part));
    std::uint64_t n = 0;
    if (!util::parse_u64(value, n)) continue;
    if (key == "as") as = static_cast<std::uint32_t>(n);
    else if (key == "peer") peer = static_cast<std::uint32_t>(n);
  }
  return true;
}

}  // namespace

ControlApi::ControlApi(RouteServer& server) : server_(server) {}

CommandResult ControlApi::execute(std::string_view line) {
  const auto hash = line.find('#');
  const std::string_view effective =
      util::trim(hash == std::string_view::npos ? line : line.substr(0, hash));
  if (effective.empty()) return {};
  std::vector<std::string> tokens;
  for (const auto& token : util::split(effective, ' ')) {
    if (!util::trim(token).empty()) tokens.emplace_back(util::trim(token));
  }
  ++executed_;
  telemetry::MetricsRegistry::global().counter("server.commands").inc();
  try {
    return dispatch(tokens);
  } catch (const std::exception& e) {
    return {false, false, e.what()};
  }
}

CommandResult ControlApi::dispatch(const std::vector<std::string>& tokens) {
  const std::string& verb = tokens[0];
  const std::size_t argc = tokens.size() - 1;
  const auto need = [&](std::size_t n, const char* usage) {
    if (argc < n) fail(std::string("usage: ") + usage);
  };

  if (verb == "help") return {true, false, help()};
  if (verb == "quit" || verb == "exit") return {true, true, "bye"};

  if (verb == "add-as") {
    need(1, "add-as <asn> [island=..] [protocol=..] [abstract] [members=..] [cost=..] [bw=..]");
    const scenario::AsDecl decl = parse_as_decl(tokens, 1);
    server_.add_as(decl);
    return {true, false, "AS " + tokens[1] + " added"};
  }
  if (verb == "add-peer") {
    need(2, "add-peer <a> <b> [same-island] [latency=<s>]");
    const bgp::AsNumber a = parse_as(tokens[1]);
    const bgp::AsNumber b = parse_as(tokens[2]);
    bool same_island = false;
    double latency = -1.0;
    for (std::size_t i = 3; i < tokens.size(); ++i) {
      auto [key, value] = split_kv(tokens[i]);
      if (key == "same-island") same_island = true;
      else if (key == "latency") latency = parse_seconds(value);
      else fail("unknown add-peer option '" + key + "'");
    }
    server_.add_peer(a, b, same_island, latency);
    return {true, false, "peering " + tokens[1] + " <-> " + tokens[2] + " up"};
  }
  if (verb == "remove-peer") {
    need(1, "remove-peer <asn>");
    server_.remove_peer(parse_as(tokens[1]));
    return {true, false, "AS " + tokens[1] + " retired"};
  }
  if (verb == "originate" || verb == "withdraw") {
    need(2, "originate|withdraw <asn> <prefix>");
    const bgp::AsNumber asn = parse_as(tokens[1]);
    const net::Prefix prefix = parse_prefix(tokens[2]);
    if (verb == "originate") server_.originate(asn, prefix);
    else server_.withdraw(asn, prefix);
    return {true, false, verb + "d " + tokens[2] + " at AS " + tokens[1]};
  }
  if (verb == "reload-policy") {
    need(1, "reload-policy <asn> [strip=<p1,p2,...>]");
    const bgp::AsNumber asn = parse_as(tokens[1]);
    std::vector<std::string> strips;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      auto [key, value] = split_kv(tokens[i]);
      if (key == "strip") strips = split_names(value);
      else fail("unknown reload-policy option '" + key + "'");
    }
    server_.reload_policy(asn, strips);
    return {true, false,
            "policy reloaded at AS " + tokens[1] + " (" +
                std::to_string(strips.size()) + " strip filters)"};
  }
  if (verb == "upgrade-protocol") {
    need(2, "upgrade-protocol <asn> <protocol>");
    server_.upgrade_protocol(parse_as(tokens[1]), tokens[2]);
    return {true, false, "AS " + tokens[1] + " now speaks " + tokens[2]};
  }
  if (verb == "set-chaos") {
    need(1, "set-chaos <flaky|lossy|corrupt|outage|full> [seed=<n>]");
    if (tokens[1] == "off") {
      fail("chaos schedules cannot be cancelled; injected schedules expire at "
           "their horizon");
    }
    simnet::ChaosOptions options = simnet::chaos_profile(tokens[1]);
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      auto [key, value] = split_kv(tokens[i]);
      if (key == "seed") options.seed = parse_number(value);
      else if (key == "start") options.start = parse_seconds(value);
      else if (key == "horizon") options.horizon = parse_seconds(value);
      else fail("unknown set-chaos option '" + key + "'");
    }
    // Chaos schedules anchor at `start` relative to time zero; shift into
    // the daemon's present so the window is ahead of, not behind, the clock.
    options.start += server_.now();
    server_.set_chaos(options);
    return {true, false, "chaos '" + tokens[1] + "' scheduled from t=" +
                             std::to_string(options.start)};
  }
  if (verb == "set") {
    need(2, "set speaker-threads <n>");
    if (tokens[1] != "speaker-threads") fail("unknown setting '" + tokens[1] + "'");
    const std::uint64_t n = parse_number(tokens[2]);
    if (n == 0) fail("speaker-threads must be >= 1");
    server_.set_speaker_threads(static_cast<std::size_t>(n));
    return {true, false, "speaker-threads set to " + tokens[2]};
  }
  if (verb == "crash" || verb == "restart" || verb == "restart-warm" ||
      verb == "graceful-restart") {
    need(1, "crash|restart|restart-warm|graceful-restart <asn>");
    const bgp::AsNumber asn = parse_as(tokens[1]);
    if (verb == "crash") server_.crash(asn);
    else if (verb == "restart") server_.restart(asn);
    else if (verb == "restart-warm") server_.restart_warm(asn);
    else server_.graceful_restart(asn);
    return {true, false, verb + " AS " + tokens[1] + " done"};
  }
  if (verb == "run") {
    const simnet::RunStats stats = server_.run();
    return {true, false, format_stats(stats, server_.now())};
  }
  if (verb == "step") {
    need(1, "step <seconds>");
    const simnet::RunStats stats = server_.step(parse_seconds(tokens[1]));
    return {true, false, format_stats(stats, server_.now())};
  }
  if (verb == "snapshot") {
    need(1, "snapshot <file>");
    const Snapshot snap = server_.snapshot();
    save_snapshot(snap, tokens[1]);
    return {true, false,
            "snapshot of " + std::to_string(snap.nodes.size()) + " ASes at t=" +
                std::to_string(snap.sim_time) + " -> " + tokens[1]};
  }
  if (verb == "restore") {
    need(1, "restore <file>");
    const Snapshot snap = load_snapshot(tokens[1]);
    server_.restore(snap);
    return {true, false,
            "restored " + std::to_string(snap.nodes.size()) + " ASes at t=" +
                std::to_string(snap.sim_time)};
  }
  if (verb == "rib") {
    need(1, "rib <asn> [prefix]");
    const bgp::AsNumber asn = parse_as(tokens[1]);
    if (!server_.has_as(asn)) fail("unknown AS " + tokens[1]);
    const auto& speaker = server_.network().speaker(asn);
    std::ostringstream out;
    if (argc >= 2) {
      const net::Prefix prefix = parse_prefix(tokens[2]);
      const auto* best = speaker.best(prefix);
      if (best == nullptr) out << tokens[2] << " unreachable";
      else out << prefix.to_string() << ' ' << format_rib_route(*best);
    } else {
      const auto prefixes = speaker.selected_prefixes();
      out << "AS" << asn << " " << prefixes.size() << " routes";
      for (const auto& prefix : prefixes) {
        out << '\n' << prefix.to_string() << ' ' << format_rib_route(*speaker.best(prefix));
      }
    }
    return {true, false, out.str()};
  }
  if (verb == "why") {
    need(2, "why <asn> <prefix>");
    const bgp::AsNumber asn = parse_as(tokens[1]);
    const std::string prefix = parse_prefix(tokens[2]).to_string();
    const telemetry::ProvenanceIndex index(server_.causal());
    const auto chain = index.why(asn, prefix);
    if (chain.empty()) {
      fail("no causal chain for AS " + tokens[1] + " " + prefix +
           " (is causal tracing on?)");
    }
    return {true, false, telemetry::ProvenanceIndex::format_why(chain)};
  }
  if (verb == "blame") {
    const telemetry::ProvenanceIndex index(server_.causal());
    return {true, false,
            telemetry::ProvenanceIndex::format_blame(index.reconvergence_windows())};
  }
  if (verb == "metrics") {
    const bool deltas = argc >= 1 && tokens[1] == "deltas";
    if (argc >= 1 && !deltas) fail("usage: metrics [deltas]");
    return {true, false, format_metrics(deltas)};
  }
  if (verb == "metrics-prom") {
    return {true, false,
            telemetry::to_prometheus(telemetry::MetricsRegistry::global().snapshot())};
  }
  if (verb == "series") {
    const telemetry::TimeSeriesSampler* sampler = server_.sampler();
    if (sampler == nullptr) fail("observation is off (use: observe <interval>)");
    if (argc == 0) {
      // No metric: list what the sampler has.
      std::ostringstream out;
      out << "samples=" << sampler->sample_count() << " interval="
          << sampler->options().interval;
      for (const auto& name : sampler->series_names()) out << '\n' << name;
      return {true, false, out.str()};
    }
    std::size_t last = 0;
    bool rates = false;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      auto [key, value] = split_kv(tokens[i]);
      if (key == "last") last = static_cast<std::size_t>(parse_number(value));
      else if (key == "rates") rates = true;
      else fail("unknown series option '" + key + "'");
    }
    auto points = rates ? sampler->rates(tokens[1]) : sampler->series(tokens[1]);
    if (points.empty()) fail("no series '" + tokens[1] + "' (try: series)");
    if (last > 0 && points.size() > last) {
      points.erase(points.begin(), points.end() - static_cast<std::ptrdiff_t>(last));
    }
    std::ostringstream out;
    out << tokens[1] << (rates ? " rates " : " points ") << points.size();
    for (const auto& p : points) out << '\n' << p.time << ' ' << p.value;
    return {true, false, out.str()};
  }
  if (verb == "peers") {
    return {true, false, format_peers()};
  }
  if (verb == "events") {
    const telemetry::EventLog* log = server_.event_log();
    if (log == nullptr) fail("observation is off (use: observe <interval>)");
    std::size_t last = 0;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      auto [key, value] = split_kv(tokens[i]);
      if (key == "last") last = static_cast<std::size_t>(parse_number(value));
      else fail("unknown events option '" + key + "'");
    }
    auto events = log->events();
    if (last > 0 && events.size() > last) {
      events.erase(events.begin(), events.end() - static_cast<std::ptrdiff_t>(last));
    }
    std::ostringstream out;
    out << "events " << events.size() << " (dropped " << log->dropped() << ")";
    for (const auto& e : events) {
      out << '\n' << telemetry::EventLog::to_json(e).dump(-1);
    }
    return {true, false, out.str()};
  }
  if (verb == "observe") {
    need(1, "observe <interval-seconds>|off");
    if (tokens[1] == "off") {
      server_.set_observe(0.0);
      return {true, false, "observation off"};
    }
    const double interval = parse_seconds(tokens[1]);
    if (interval <= 0.0) fail("observe interval must be > 0 (or 'off')");
    server_.set_observe(interval);
    return {true, false, "observing every " + tokens[1] + "s (history reset)"};
  }
  if (verb == "health") {
    std::size_t up = 0;
    const auto ases = server_.as_numbers();
    for (const auto asn : ases) up += server_.network().node_up(asn) ? 1 : 0;
    std::ostringstream out;
    out << "time=" << server_.now() << " ases=" << ases.size() << " up=" << up
        << " links=" << server_.link_count() << " commands=" << executed_
        << " spans=" << server_.causal().span_count()
        << " audits=" << server_.causal().audit_count();
    // The oracle's verdict heads the reply, and every (AS, prefix) it does
    // not call converged gets a detail line: the early warnings. Without
    // causal tracing there is no history to classify, so both are absent.
    if (server_.causal_enabled()) {
      const telemetry::ConvergenceOracle::RunReport report = server_.classify_convergence();
      out << ' ' << telemetry::summary(report);
      for (const auto& p : report.prefixes) {
        if (p.verdict == telemetry::Verdict::kConverged) continue;
        out << "\n" << telemetry::to_string(p.verdict) << " AS" << p.as << ' '
            << p.prefix << " flips=" << p.flips << " post-chaos=" << p.post_chaos_flips
            << " — " << p.reason;
      }
    }
    return {true, false, out.str()};
  }
  fail("unknown command '" + verb + "' (try: help)");
}

std::string ControlApi::format_metrics(bool deltas) {
  const auto snapshot = telemetry::MetricsRegistry::global().snapshot();
  std::ostringstream out;
  for (const auto& c : snapshot.counters) {
    if (deltas) {
      const std::uint64_t last = last_counters_[c.name];
      out << "counter " << c.name << ' ' << (c.value - last) << " (total " << c.value
          << ")\n";
      last_counters_[c.name] = c.value;
    } else {
      out << "counter " << c.name << ' ' << c.value << '\n';
    }
  }
  for (const auto& g : snapshot.gauges) {
    out << "gauge " << g.name << ' ' << g.value << " high-water " << g.high_water
        << '\n';
  }
  for (const auto& h : snapshot.histograms) {
    out << "histogram " << h.name << " count " << h.count << " mean " << h.mean
        << " p50 " << h.p50 << " p99 " << h.p99 << '\n';
  }
  std::string text = out.str();
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

std::string ControlApi::format_peers() {
  // Per-session counters live in the registry as labeled names
  // ("dbgp.peer.updates_in|as=1,peer=2"); regroup them into one row per
  // (as, peer) session so an operator sees each session's traffic at a
  // glance. BgpSpeaker sessions ("bgp.peer.*") tabulate the same way.
  struct Row {
    std::map<std::string, double> fields;
  };
  std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>, Row> rows;
  const auto snapshot = telemetry::MetricsRegistry::global().snapshot();
  std::string base;
  std::uint32_t as = 0;
  std::uint32_t peer = 0;
  const auto field_of = [](const std::string& full) {
    const auto dot = full.rfind('.');
    return dot == std::string::npos ? full : full.substr(dot + 1);
  };
  const auto scope_of = [](const std::string& full) {
    const auto dot = full.rfind('.');
    return dot == std::string::npos ? std::string() : full.substr(0, dot);
  };
  for (const auto& c : snapshot.counters) {
    if (!parse_peer_label(c.name, base, as, peer)) continue;
    const std::string scope = scope_of(base);
    if (scope != "dbgp.peer" && scope != "bgp.peer") continue;
    rows[{scope, as, peer}].fields[field_of(base)] = static_cast<double>(c.value);
  }
  for (const auto& g : snapshot.gauges) {
    if (!parse_peer_label(g.name, base, as, peer)) continue;
    const std::string scope = scope_of(base);
    if (scope != "dbgp.peer" && scope != "bgp.peer") continue;
    rows[{scope, as, peer}].fields[field_of(base)] = static_cast<double>(g.value);
  }
  std::ostringstream out;
  out << "sessions " << rows.size();
  for (const auto& [key, row] : rows) {
    const auto& [scope, row_as, row_peer] = key;
    const auto field = [&](const char* name) {
      const auto it = row.fields.find(name);
      return it == row.fields.end() ? 0.0 : it->second;
    };
    out << '\n' << scope << " AS" << row_as << " -> AS" << row_peer
        << " in=" << field("updates_in") << " out=" << field("updates_out")
        << " wdr-in=" << field("withdraws_in") << " wdr-out=" << field("withdraws_out")
        << " rejects=" << field("rejects") << " flaps=" << field("flaps")
        << " adj-out=" << field("adj_out_depth");
  }
  return out.str();
}

std::string ControlApi::help() {
  return
      "commands:\n"
      "  add-as <asn> [island=..] [protocol=..] [abstract] [members=..] [cost=..] [bw=..]\n"
      "  add-peer <a> <b> [same-island] [latency=<s>]   (creates unknown ASes)\n"
      "  remove-peer <asn>                              (retires the AS)\n"
      "  originate <asn> <prefix> | withdraw <asn> <prefix>\n"
      "  reload-policy <asn> [strip=<p1,p2,...>]        (hot policy reload + route refresh)\n"
      "  upgrade-protocol <asn> <protocol>              (rolling adoption step)\n"
      "  set-chaos <profile> [seed=<n>] [start=<s>] [horizon=<s>]\n"
      "  set speaker-threads <n>                        (rejected while frames are staged)\n"
      "  crash <asn> | restart <asn> | restart-warm <asn> | graceful-restart <asn>\n"
      "  run | step <seconds>\n"
      "  snapshot <file> | restore <file>\n"
      "  rib <asn> [prefix] | why <asn> <prefix> | blame\n"
      "  metrics [deltas] | metrics-prom | peers | health | help | quit\n"
      "  observe <interval>|off                         (time-series + event journal)\n"
      "  series [<metric>] [last=<n>] [rates] | events [last=<n>]";
}

}  // namespace dbgp::server
