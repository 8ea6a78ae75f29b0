// Observability-plane suite: the convergence oracle's classifications plus
// the sampler / event-log / Prometheus-exposition pieces it rides on
// (DESIGN.md §15). Built as the separate `dbgp_oracle_tests` binary carrying
// the `trace` ctest label (the oracle is a consumer of the causal-trace DAG)
// so CI selects it with `ctest -L trace` and the dbgp_asan_check target
// re-runs it under AddressSanitizer.
//
// The three classification fixtures are the ones the oracle exists for:
//   * fault-free figure8          -> every prefix converged;
//   * half-wiser ring under chaos -> oscillating, with span-cycle evidence
//     (PR 6's known diverger: cost-driven flipping that a drained queue
//     never reveals);
//   * crash without repair        -> diverged (reachable once, silently
//     lost, no withdraw-origin to justify it).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "protocols/bgp_module.h"
#include "scenario/parser.h"
#include "scenario/runner.h"
#include "server/control.h"
#include "server/daemon.h"
#include "simnet/network.h"
#include "telemetry/causal.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/oracle.h"
#include "telemetry/peer_metrics.h"
#include "telemetry/prom_export.h"
#include "telemetry/sampler.h"
#include "util/json.h"

namespace dbgp::telemetry {
namespace {

std::string scenario_path(const char* name) {
  return std::string(DBGP_SCENARIO_DIR "/") + name;
}

core::DbgpConfig bgp_as(bgp::AsNumber asn) {
  core::DbgpConfig config;
  config.asn = asn;
  config.next_hop = net::Ipv4Address(asn);
  return config;
}

void must(server::ControlApi& api, const std::string& line) {
  const auto result = api.execute(line);
  ASSERT_TRUE(result.ok) << "'" << line << "' failed: " << result.text;
}

// -- Classification: converged ------------------------------------------------

TEST(Oracle, FaultFreeFigure8Converges) {
  scenario::Runner runner;
  runner.enable_causal_tracing();
  runner.build(scenario::load_scenario(scenario_path("figure8_pathlets.dbgp")));
  const auto result = runner.run();
  ASSERT_TRUE(result.all_passed() && result.converged);

  const ConvergenceOracle oracle;
  const auto report = oracle.classify(runner.causal());
  EXPECT_EQ(report.verdict, Verdict::kConverged);
  EXPECT_EQ(report.diverged, 0u);
  EXPECT_EQ(report.oscillating, 0u);
  EXPECT_GT(report.converged, 0u);
  for (const auto& p : report.prefixes) {
    EXPECT_EQ(p.verdict, Verdict::kConverged) << "AS" << p.as << " " << p.prefix;
    EXPECT_TRUE(p.evidence.empty());
  }
}

TEST(Oracle, ObservedScenarioSamplesAndConverges) {
  // The `observe` stanza of the observed figure8 variant must attach the
  // sampler + event log through the scenario runner, and the oracle verdict
  // must match the plain variant's.
  scenario::Runner runner;
  runner.enable_causal_tracing();
  runner.build(scenario::load_scenario(scenario_path("figure8_pathlets_observed.dbgp")));
  const auto result = runner.run();
  ASSERT_TRUE(result.all_passed() && result.converged);

  ASSERT_NE(runner.sampler(), nullptr);
  ASSERT_NE(runner.event_log(), nullptr);
  EXPECT_GE(runner.sampler()->sample_count(), 1u);
  EXPECT_FALSE(runner.sampler()->series_names().empty());

  const auto report = ConvergenceOracle().classify(runner.causal());
  EXPECT_EQ(report.verdict, Verdict::kConverged);
}

// -- Classification: oscillating ----------------------------------------------

TEST(Oracle, HalfWiserRingUnderChaosOscillates) {
  // PR 6's known diverger (see bench_daemon.cpp): a 16-node BGP ring whose
  // lower half adopts wiser while a seeded chaos schedule runs. The mixed
  // cost/path decision processes keep stealing the best route from each
  // other after chaos repairs, so the post-chaos trajectory cycles instead
  // of settling. Bounded `step`s, never `run` — the run would trip the
  // event cap precisely because it never converges.
  constexpr std::size_t kNodes = 16;
  server::RouteServer server;  // causal tracing on by default
  server::ControlApi api(server);
  for (std::size_t asn = 1; asn <= kNodes; ++asn) {
    must(api, "add-peer " + std::to_string(asn) + " " +
                  std::to_string(asn % kNodes + 1));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    must(api, "originate " + std::to_string(i * (kNodes / 4) + 1) + " 10." +
                  std::to_string(i + 1) + ".0.0/16");
  }
  must(api, "run");
  must(api, "set-chaos full seed=7 horizon=2.0");
  for (std::size_t asn = 1; asn <= kNodes / 2; ++asn) {
    must(api, "upgrade-protocol " + std::to_string(asn) + " wiser");
    must(api, "step 0.1");
  }
  // Past the chaos horizon and well into the undisturbed regime: the oracle
  // ignores fault-window churn, so the cycling it flags below is all
  // post-repair behaviour.
  for (int i = 0; i < 10; ++i) must(api, "step 0.5");

  const auto report = server.classify_convergence();
  EXPECT_EQ(report.verdict, Verdict::kOscillating);
  EXPECT_GT(report.oscillating, 0u);
  bool found_evidence = false;
  const auto spans = server.causal().spans();
  for (const auto& p : report.prefixes) {
    if (p.verdict != Verdict::kOscillating) continue;
    EXPECT_GE(p.post_chaos_flips, 4u) << "AS" << p.as << " " << p.prefix;
    EXPECT_FALSE(p.reason.empty());
    // Note: an *empty* cycle_signature is legal — it is the recurring
    // "unreachable" RIB state. The evidence cycle, though, must always be
    // there, and its decision spans must resolve inside the recorded trace.
    ASSERT_FALSE(p.evidence.empty()) << "AS" << p.as << " " << p.prefix;
    found_evidence = true;
    for (const SpanId id : p.evidence) {
      EXPECT_GE(id, 1u);
      EXPECT_LE(id, spans.size());
    }
  }
  EXPECT_TRUE(found_evidence) << "oscillating verdict without a span cycle";

  // The health verb surfaces the same verdict.
  const auto health = api.execute("health");
  ASSERT_TRUE(health.ok);
  EXPECT_NE(health.text.find("verdict=oscillating"), std::string::npos) << health.text;
}

// -- Classification: diverged -------------------------------------------------

TEST(Oracle, CrashWithoutRepairDiverges) {
  CausalTracer tracer;
  simnet::DbgpNetwork::Options options;
  options.causal = &tracer;
  simnet::DbgpNetwork net(nullptr, options);
  for (bgp::AsNumber asn = 1; asn <= 3; ++asn) {
    net.add_as(bgp_as(asn)).add_module(std::make_unique<protocols::BgpModule>());
  }
  net.add_link(1, 2);
  net.add_link(2, 3);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  ASSERT_NE(net.speaker(3).best(prefix), nullptr);

  // The origin crashes and never comes back: downstream ASes lose the
  // prefix with no withdraw-origin in the trace to justify it.
  net.crash(1);
  net.run_until(net.events().now() + 5.0);
  ASSERT_EQ(net.speaker(3).best(prefix), nullptr);

  const auto report = ConvergenceOracle().classify(tracer);
  EXPECT_EQ(report.verdict, Verdict::kDiverged);
  EXPECT_GT(report.diverged, 0u);
  EXPECT_EQ(report.oscillating, 0u);
  bool downstream_diverged = false;
  for (const auto& p : report.prefixes) {
    if (p.as == 3 && p.verdict == Verdict::kDiverged) {
      downstream_diverged = true;
      EXPECT_TRUE(p.final_path.empty());
      EXPECT_FALSE(p.reason.empty());
    }
  }
  EXPECT_TRUE(downstream_diverged);
}

// -- Classification matrix: dispute wheels ------------------------------------

// `dispute-wheel` scenario text for one matrix cell. The chaos stanza is the
// "flaky" column: link flaps + light loss inside a bounded window, with the
// post-repair trajectory being what the oracle classifies.
std::string wheel_text(std::size_t spokes, double fc_adoption, bool flaky) {
  char head[128];
  std::snprintf(head, sizeof head, "dispute-wheel spokes=%zu fc-adoption=%.2f seed=1\n",
                spokes, fc_adoption);
  std::string text = head;
  if (flaky) {
    text +=
        "chaos seed=5 start=0.3 horizon=1.0 flap-fraction=0.4 "
        "mean-up=0.4 mean-down=0.1 loss=0.03\n";
  }
  return text;
}

TEST(Oracle, DisputeWheelMatrixLandsExpectedVerdicts) {
  // Rings of 3/5/7 spokes x {fault-free, flaky} x {0%, 50%, 100%} FC-BGP
  // adoption. The policy ring has no stable assignment at 0% adoption
  // (odd-ring dispute wheel), so those runs are bounded drains that the
  // oracle must flag as oscillating with a resolvable span cycle; any
  // positive adoption anchors enough spokes to their attested direct path
  // that the wheel breaks and every AS converges — including under chaos,
  // where the verdict covers the post-repair trajectory.
  for (const std::size_t spokes : {std::size_t{3}, std::size_t{5}, std::size_t{7}}) {
    for (const bool flaky : {false, true}) {
      for (const double adoption : {0.0, 0.5, 1.0}) {
        SCOPED_TRACE("spokes=" + std::to_string(spokes) +
                     " adoption=" + std::to_string(adoption) +
                     (flaky ? " flaky" : " fault-free"));
        const bool expect_converged = adoption > 0.0;

        scenario::Runner runner;
        runner.enable_causal_tracing();
        runner.build(scenario::parse_scenario(wheel_text(spokes, adoption, flaky)));
        // An oscillating ring would hit the default 10M-event cap; keep the
        // drain short — the trajectory sample is what the oracle reads.
        if (!expect_converged) runner.set_max_events(20000);
        const auto result = runner.run();
        EXPECT_EQ(result.converged, expect_converged);

        const auto report = ConvergenceOracle().classify(runner.causal());
        const auto spans = runner.causal().spans();
        if (expect_converged) {
          EXPECT_EQ(report.verdict, Verdict::kConverged);
          EXPECT_EQ(report.diverged, 0u);
          EXPECT_EQ(report.oscillating, 0u);
          // Hub plus every spoke settles on the one originated prefix.
          EXPECT_EQ(report.converged, spokes + 1);
        } else {
          EXPECT_EQ(report.verdict, Verdict::kOscillating);
          EXPECT_GT(report.oscillating, 0u);
          bool found_evidence = false;
          for (const auto& p : report.prefixes) {
            if (p.verdict != Verdict::kOscillating) continue;
            found_evidence = true;
            ASSERT_FALSE(p.evidence.empty()) << "AS" << p.as << " " << p.prefix;
            for (const SpanId id : p.evidence) {
              EXPECT_GE(id, 1u);
              EXPECT_LE(id, spans.size());
            }
          }
          EXPECT_TRUE(found_evidence) << "oscillating verdict without a span cycle";
        }
      }
    }
  }
}

TEST(Oracle, DisputeWheelHubCrashDiverges) {
  // Third verdict class on the same generator: a fully upgraded wheel
  // converges, then the hub — the only origin — crashes and never returns.
  // Spokes lose the prefix with no withdraw-origin to justify it.
  scenario::Runner runner;
  runner.enable_causal_tracing();
  runner.build(scenario::parse_scenario(wheel_text(5, 1.0, false)));
  ASSERT_TRUE(runner.run().converged);

  auto& net = runner.network();
  net.crash(100);  // the default hub AS
  net.run_until(net.events().now() + 5.0);
  const auto prefix = *net::Prefix::parse("10.99.0.0/16");
  ASSERT_EQ(net.speaker(1).best(prefix), nullptr);

  const auto report = ConvergenceOracle().classify(runner.causal());
  EXPECT_EQ(report.verdict, Verdict::kDiverged);
  EXPECT_GT(report.diverged, 0u);
  bool spoke_diverged = false;
  for (const auto& p : report.prefixes) {
    if (p.as != 100 && p.verdict == Verdict::kDiverged) {
      spoke_diverged = true;
      EXPECT_TRUE(p.final_path.empty());
      EXPECT_FALSE(p.reason.empty());
    }
  }
  EXPECT_TRUE(spoke_diverged);
}

TEST(Oracle, DeliberateWithdrawalIsConvergedNotDiverged) {
  CausalTracer tracer;
  simnet::DbgpNetwork::Options options;
  options.causal = &tracer;
  simnet::DbgpNetwork net(nullptr, options);
  for (bgp::AsNumber asn = 1; asn <= 3; ++asn) {
    net.add_as(bgp_as(asn)).add_module(std::make_unique<protocols::BgpModule>());
  }
  net.add_link(1, 2);
  net.add_link(2, 3);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  net.withdraw(1, prefix);
  net.run_to_convergence();
  ASSERT_EQ(net.speaker(3).best(prefix), nullptr);

  const auto report = ConvergenceOracle().classify(tracer);
  EXPECT_EQ(report.verdict, Verdict::kConverged);
  EXPECT_EQ(report.diverged, 0u);
}

TEST(Oracle, ReportSerializesToJson) {
  scenario::Runner runner;
  runner.enable_causal_tracing();
  runner.build(scenario::load_scenario(scenario_path("figure8_pathlets.dbgp")));
  ASSERT_TRUE(runner.run().converged);
  const auto report = ConvergenceOracle().classify(runner.causal());
  const auto json = to_json(report);
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.find("verdict")->as_string(), "converged");
  EXPECT_TRUE(json.find("prefixes")->is_array());
  // Round-trips through the parser (what dbgp_run --oracle writes).
  const auto reparsed = util::json::Value::parse(json.dump());
  EXPECT_EQ(reparsed.find("verdict")->as_string(), "converged");
}

// -- Sampler ------------------------------------------------------------------

TEST(Sampler, EnforcesIntervalAndForce) {
  MetricsRegistry::global().reset();
  auto& counter = MetricsRegistry::global().counter("oracle_test.ticks");
  TimeSeriesSampler sampler({.interval = 0.5, .capacity = 8});
  counter.inc();
  EXPECT_TRUE(sampler.sample(0.0));    // first call always samples
  EXPECT_FALSE(sampler.sample(0.1));   // inside the interval
  EXPECT_FALSE(sampler.sample(0.49));
  EXPECT_TRUE(sampler.sample(0.5));
  EXPECT_TRUE(sampler.sample(0.6, /*force=*/true));
  EXPECT_EQ(sampler.sample_count(), 3u);

  const auto points = sampler.series("oracle_test.ticks");
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points.front().time, 0.0);
  EXPECT_DOUBLE_EQ(points.front().value, 1.0);
}

TEST(Sampler, RingBufferTrimsAndDeltasDeriveRates) {
  MetricsRegistry::global().reset();
  auto& counter = MetricsRegistry::global().counter("oracle_test.bytes");
  TimeSeriesSampler sampler({.interval = 1.0, .capacity = 4});
  for (int i = 0; i < 10; ++i) {
    counter.inc(10);  // +10 per second
    sampler.sample(static_cast<double>(i));
  }
  const auto points = sampler.series("oracle_test.bytes");
  ASSERT_EQ(points.size(), 4u);  // capacity bound, newest retained
  EXPECT_DOUBLE_EQ(points.back().time, 9.0);

  const auto deltas = sampler.deltas("oracle_test.bytes");
  ASSERT_EQ(deltas.size(), 3u);
  for (const auto& d : deltas) EXPECT_DOUBLE_EQ(d.value, 10.0);
  const auto rates = sampler.rates("oracle_test.bytes");
  ASSERT_EQ(rates.size(), 3u);
  for (const auto& r : rates) EXPECT_DOUBLE_EQ(r.value, 10.0);
}

TEST(Sampler, ToJsonShapeMatchesExposition) {
  MetricsRegistry::global().reset();
  MetricsRegistry::global().counter("oracle_test.a").inc(7);
  TimeSeriesSampler sampler({.interval = 0.5, .capacity = 8});
  sampler.sample(0.0);
  sampler.sample(1.0);
  const auto json = sampler.to_json();
  ASSERT_TRUE(json.is_object());
  EXPECT_DOUBLE_EQ(json.find("interval")->as_double(), 0.5);
  EXPECT_DOUBLE_EQ(json.find("samples")->as_double(), 2.0);
  const auto* series = json.find("series");
  ASSERT_NE(series, nullptr);
  const auto* points = series->find("oracle_test.a");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(points->as_array()[0].as_array()[1].as_double(), 7.0);
}

// -- Event log ----------------------------------------------------------------

TEST(EventLogTest, RecordsAndSerializesJsonl) {
  EventLog log;
  log.record(0.5, "session_up", 1, 2, "initial open");
  log.record(1.5, "chaos", 3, 0, "crash", 42);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 0u);

  const std::string jsonl = log.to_jsonl();
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const auto end = jsonl.find('\n', start);
    lines.push_back(jsonl.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  const auto first = util::json::Value::parse(lines[0]);
  EXPECT_DOUBLE_EQ(first.find("time")->as_double(), 0.5);
  EXPECT_EQ(first.find("kind")->as_string(), "session_up");
  const auto second = util::json::Value::parse(lines[1]);
  EXPECT_EQ(second.find("kind")->as_string(), "chaos");
  EXPECT_DOUBLE_EQ(second.find("span")->as_double(), 42.0);
}

TEST(EventLogTest, BoundedDropsNewestAndCounts) {
  EventLog log(/*limit=*/3);
  for (int i = 0; i < 5; ++i) {
    log.record(static_cast<double>(i), "chaos", 1, 0, "tick");
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  const auto events = log.events();
  // Append-only journal: the oldest entries survive, overflow is dropped.
  EXPECT_DOUBLE_EQ(events.front().time, 0.0);
  EXPECT_DOUBLE_EQ(events.back().time, 2.0);
}

// -- Prometheus exposition ----------------------------------------------------

TEST(PromExport, SnapshotRendersValidTextWithLabels) {
  MetricsRegistry::global().reset();
  auto& reg = MetricsRegistry::global();
  reg.counter("oracle_test.updates").inc(3);
  reg.gauge("oracle_test.depth").set(2);
  reg.histogram("oracle_test.latency", {0.001, 0.01, 0.1}).record(0.005);
  const auto peer = PeerMetrics::create("dbgp.peer", 1, 2);
  peer.updates_in->inc(9);

  const std::string text = to_prometheus(reg.snapshot());
  std::string error;
  EXPECT_TRUE(validate_prometheus_text(text, &error)) << error;
  EXPECT_NE(text.find("dbgp_peer_updates_in{as=\"1\",peer=\"2\"} 9"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE oracle_test_latency histogram"), std::string::npos);
}

TEST(PromExport, SplitsLabeledNames) {
  const auto plain = split_prom_name("dbgp.speaker.frames");
  EXPECT_EQ(plain.base, "dbgp_speaker_frames");
  EXPECT_TRUE(plain.labels.empty());
  const auto labeled = split_prom_name("bgp.peer.updates_in|as=1,peer=2");
  EXPECT_EQ(labeled.base, "bgp_peer_updates_in");
  EXPECT_EQ(labeled.labels, "{as=\"1\",peer=\"2\"}");
}

TEST(PromExport, ValidatorRejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(validate_prometheus_text("orphan_sample 1\n", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(validate_prometheus_text("# TYPE x counter\nx not_a_number\n", &error));
}

// -- Per-peer counters through a live network ---------------------------------

TEST(PeerMetricsTest, SessionsAccumulateLabeledCounters) {
  MetricsRegistry::global().reset();
  simnet::DbgpNetwork net;
  for (bgp::AsNumber asn = 1; asn <= 3; ++asn) {
    net.add_as(bgp_as(asn)).add_module(std::make_unique<protocols::BgpModule>());
  }
  net.add_link(1, 2);
  net.add_link(2, 3);
  const auto kept = *net::Prefix::parse("10.0.0.0/8");
  const auto withdrawn = *net::Prefix::parse("10.1.0.0/16");
  net.originate(1, kept);
  net.originate(1, withdrawn);
  net.run_to_convergence();

  const auto snapshot = MetricsRegistry::global().snapshot();
  const auto* in = snapshot.find_counter("dbgp.peer.updates_in|as=2,peer=1");
  ASSERT_NE(in, nullptr);
  EXPECT_GT(in->value, 0u);
  const auto* out = snapshot.find_counter("dbgp.peer.updates_out|as=1,peer=2");
  ASSERT_NE(out, nullptr);
  EXPECT_GT(out->value, 0u);

  // dbgp.peer.adj_out_depth: prefixes currently advertised over a session.
  // Split horizon keeps every route off the session it came in on.
  const auto depth = [](const char* labels) -> std::int64_t {
    const auto snap = MetricsRegistry::global().snapshot();
    const auto* g = snap.find_gauge(std::string("dbgp.peer.adj_out_depth|") + labels);
    return g == nullptr ? -1 : g->value;
  };
  EXPECT_EQ(depth("as=1,peer=2"), 2);
  EXPECT_EQ(depth("as=2,peer=1"), 0);
  EXPECT_EQ(depth("as=2,peer=3"), 2);
  EXPECT_EQ(depth("as=3,peer=2"), 0);

  net.withdraw(1, withdrawn);
  net.run_to_convergence();
  EXPECT_EQ(depth("as=1,peer=2"), 1);
  EXPECT_EQ(depth("as=2,peer=1"), 0);
  EXPECT_EQ(depth("as=2,peer=3"), 1);
  EXPECT_EQ(depth("as=3,peer=2"), 0);

  // A restore rebuilds the counts from the snapshot's adj-out records.
  core::DbgpSpeaker& as2 = net.speaker(2);
  as2.restore_state(as2.export_state());
  EXPECT_EQ(depth("as=2,peer=1"), 0);
  EXPECT_EQ(depth("as=2,peer=3"), 1);

  net.link(2, 3).set_state(simnet::LinkState::kDown);
  net.run_to_convergence();
  EXPECT_EQ(depth("as=1,peer=2"), 1);
  EXPECT_EQ(depth("as=2,peer=3"), 0);
  as2.restore_state(as2.export_state());
  EXPECT_EQ(depth("as=2,peer=1"), 0);
  EXPECT_EQ(depth("as=2,peer=3"), 0);
}

}  // namespace
}  // namespace dbgp::telemetry
