// dbgp_run — run a D-BGP scenario file and report routes and expectations.
//
//   dbgp_run <scenario-file> [--tables] [--quiet] [--batched]
//            [--metrics <file>] [--trace <file>]
//            [--explain <as>:<prefix>]
//            [--chaos-seed <n>] [--chaos-profile <name>]
//            [--threads <n>] [--speaker-threads <n>] [--max-events <n>]
//
// A scenario with a `sweep` stanza is an experiment description rather than
// a network: dbgp_run executes the Figure 9/10 incremental-benefit sweep on
// the deterministic parallel sweep engine and prints the benefit table.
// --threads overrides the stanza's thread count (0 = all hardware threads,
// 1 = sequential; results are bit-identical either way).
//
// --metrics writes a JSON snapshot of the process-wide telemetry registry
// (speaker counters, codec latency histograms, simnet gauges) after the run;
// --trace additionally records the causal span/audit trace of the run and
// writes it to the given file as Chrome trace-event JSON for chrome://tracing
// or ui.perfetto.dev. Its frame spans carry the per-hop facts of the paper's
// Section 6.1 walk: the wire size, the protocols the IA carried, and whether
// the receiver understood them or passed them through.
//
// --explain AS:PREFIX prints the causal chain (origination, wire hops,
// per-hop decision verdicts) behind the route that AS holds for PREFIX after
// convergence — the same output as `dbgp_explain --why`.
//
// --batched switches frame processing to coalesced per-prefix decisions.
// --speaker-threads runs each speaker's decode/decision stages on a shared
// worker pool (requires --batched to have any effect; overrides the
// scenario's `speaker-threads` directive). Routes, traces, and expectation
// results are bit-identical at any value — it is purely a throughput knob.
// --chaos-seed re-seeds the scenario's `chaos` stanza (a cheap way to sweep
// fault schedules); --chaos-profile injects a named preset schedule
// (flaky|lossy|corrupt|outage|full) even into scenarios without a stanza.
//
// --observe-interval <s> turns on the observability plane (overriding any
// `observe` stanza); --event-log writes the session/chaos/reconvergence
// journal as JSONL, --series the sampled metric time series as JSON (either
// flag alone implies observation at the default 0.5 s cadence). --oracle
// classifies every (AS, prefix) pair's convergence from the causal trace
// (enabling causal tracing) and writes the report JSON; the one-line verdict
// is always printed.
//
// --max-events <n> bounds the event drain. Scenarios with no stable state
// (dispute-wheel at fc-adoption=0) never drain on their own; with an
// explicit cap the truncation is the point of the run — pair it with
// --oracle to classify the oscillation — and a capped drain does not force
// a non-zero exit.
//
// Exits 0 when the network converged and every `expect` in the scenario
// holds, 1 otherwise. See scenarios/*.dbgp for examples and
// src/scenario/parser.h for the format.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "scenario/parser.h"
#include "scenario/runner.h"
#include "simnet/chaos.h"
#include "telemetry/json_export.h"
#include "telemetry/metrics.h"
#include "telemetry/oracle.h"
#include "telemetry/perfetto_export.h"
#include "telemetry/provenance.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

// Prints the Figure 9/10-style benefit table for a sweep scenario.
void print_sweep(const dbgp::scenario::SweepDecl& decl,
                 const dbgp::sim::SweepResult& result, bool quiet) {
  if (!quiet) {
    std::printf("sweep: %s archetype, %zu-AS Waxman, %zu trials\n\n",
                decl.archetype == dbgp::scenario::SweepDecl::Archetype::kExtraPaths
                    ? "extra-paths"
                    : "bottleneck",
                decl.nodes, decl.trials);
  }
  std::printf("%10s | %22s | %22s\n", "adoption", "D-BGP baseline (±CI95)",
              "BGP baseline (±CI95)");
  for (std::size_t i = 0; i < result.dbgp_baseline.size(); ++i) {
    std::printf("%9.0f%% | %12.1f ± %7.1f | %12.1f ± %7.1f\n",
                result.dbgp_baseline[i].adoption * 100,
                result.dbgp_baseline[i].benefit.mean,
                result.dbgp_baseline[i].benefit.ci95,
                result.bgp_baseline[i].benefit.mean,
                result.bgp_baseline[i].benefit.ci95);
  }
  std::printf("status quo (0%% adoption): %.1f\nbest case (100%%, full information): %.1f\n",
              result.status_quo, result.best_case);
}

// Parses "--explain 500:203.0.113.0/24" into (as, prefix).
void parse_explain(const std::string& arg, std::uint32_t& as, std::string& prefix) {
  const auto colon = arg.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= arg.size()) {
    throw std::runtime_error("--explain expects <as>:<prefix>, got '" + arg + "'");
  }
  as = static_cast<std::uint32_t>(std::stoul(arg.substr(0, colon)));
  prefix = arg.substr(colon + 1);
}

}  // namespace

int main(int argc, char** argv) {
  dbgp::util::Flags flags;
  flags.allow({"tables", "quiet", "batched", "metrics", "trace", "explain",
               "chaos-seed", "chaos-profile", "threads", "speaker-threads",
               "observe-interval", "event-log", "series", "oracle", "max-events"});
  std::string error;
  if (!flags.parse(argc, argv, error) || flags.positional().size() != 1) {
    if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
    std::fprintf(stderr,
                 "usage: dbgp_run <scenario-file> [--tables] [--quiet] [--batched]\n"
                 "                [--metrics <file>] [--trace <file>]\n"
                 "                [--explain <as>:<prefix>]\n"
                 "                [--chaos-seed <n>] [--chaos-profile <name>]\n"
                 "                [--threads <n>] [--speaker-threads <n>]\n"
                 "                [--observe-interval <s>] [--event-log <file>]\n"
                 "                [--series <file>] [--oracle <file>]\n"
                 "                [--max-events <n>]\n");
    return 2;
  }
  const bool quiet = flags.get_bool("quiet", false);
  const std::string metrics_path = flags.get_string("metrics", "");
  const std::string trace_path = flags.get_string("trace", "");
  const std::string explain_arg = flags.get_string("explain", "");
  const std::string chaos_profile = flags.get_string("chaos-profile", "");
  const std::int64_t chaos_seed = flags.get_int("chaos-seed", -1);
  const std::string event_log_path = flags.get_string("event-log", "");
  const std::string series_path = flags.get_string("series", "");
  const std::string oracle_path = flags.get_string("oracle", "");
  const bool want_oracle = flags.has("oracle");

  try {
    std::uint32_t explain_as = 0;
    std::string explain_prefix;
    if (!explain_arg.empty()) parse_explain(explain_arg, explain_as, explain_prefix);

    const auto scenario = dbgp::scenario::load_scenario(flags.positional()[0]);
    if (!scenario.server_commands.empty()) {
      std::fprintf(stderr,
                   "warning: ignoring %zu `server` timeline command(s) — "
                   "dbgp_run is one-shot; use dbgp_server to execute them\n",
                   scenario.server_commands.size());
    }

    if (scenario.sweep) {
      std::optional<std::size_t> threads_override;
      if (flags.has("threads")) {
        threads_override = static_cast<std::size_t>(flags.get_int("threads", 1));
      }
      const auto result = dbgp::scenario::run_scenario_sweep(scenario, threads_override);
      print_sweep(*scenario.sweep, result, quiet);
      if (!metrics_path.empty()) {
        dbgp::telemetry::write_metrics_json(
            metrics_path, dbgp::telemetry::MetricsRegistry::global().snapshot());
        if (!quiet) std::printf("metrics written to %s\n", metrics_path.c_str());
      }
      return 0;
    }

    dbgp::scenario::Runner runner;
    if (!trace_path.empty() || !explain_arg.empty() || want_oracle) {
      runner.enable_causal_tracing();
    }
    if (flags.has("observe-interval")) {
      const std::string interval = flags.get_string("observe-interval", "0.5");
      runner.set_observe(std::stod(interval));
    } else if ((!event_log_path.empty() || !series_path.empty()) &&
               scenario.observe_interval <= 0.0) {
      // The export flags imply observation; without a stanza or an explicit
      // interval, sample at the sampler's default cadence.
      runner.set_observe(0.5);
    }
    if (flags.get_bool("batched", false)) {
      runner.set_delivery(dbgp::simnet::DeliveryMode::kBatched);
    }
    if (flags.has("speaker-threads")) {
      const std::int64_t n = flags.get_int("speaker-threads", 1);
      if (n < 1) {
        std::fprintf(stderr, "error: --speaker-threads must be >= 1\n");
        return 2;
      }
      runner.set_speaker_threads(static_cast<std::size_t>(n));
    }
    if (!chaos_profile.empty()) {
      runner.set_chaos(dbgp::simnet::chaos_profile(chaos_profile));
    }
    if (chaos_seed >= 0) {
      runner.set_chaos_seed(static_cast<std::uint64_t>(chaos_seed));
    }
    // --max-events bounds the drain. Dispute-wheel scenarios at
    // fc-adoption=0 have no stable state, so an unbounded drain would only
    // stop at the 10M safety valve; an explicit cap makes the truncation the
    // point of the run (the oracle classifies the trajectory), so a capped
    // result is not an error exit below.
    const bool explicit_cap = flags.has("max-events");
    if (explicit_cap) {
      const std::int64_t n = flags.get_int("max-events", 0);
      if (n < 1) {
        std::fprintf(stderr, "error: --max-events must be >= 1\n");
        return 2;
      }
      runner.set_max_events(static_cast<std::size_t>(n));
    }
    runner.build(scenario);
    const auto result = runner.run();

    if (!quiet) {
      std::printf("%s after %zu events; %zu ASes, %zu originations\n",
                  result.converged ? "converged" : "NOT CONVERGED (event cap hit)",
                  result.events, runner.scenario().ases.size(),
                  runner.scenario().originations.size());
      const auto& s = result.stats;
      if (s.link_flaps + s.crashes + s.frames_lost + s.frames_duplicated +
              s.frames_reordered + s.frames_corrupted + s.frames_rejected >
          0) {
        std::printf(
            "churn: %llu flaps, %llu crashes/%llu restarts; frames: %llu lost, "
            "%llu duplicated, %llu reordered, %llu corrupted, %llu rejected\n",
            static_cast<unsigned long long>(s.link_flaps),
            static_cast<unsigned long long>(s.crashes),
            static_cast<unsigned long long>(s.restarts),
            static_cast<unsigned long long>(s.frames_lost),
            static_cast<unsigned long long>(s.frames_duplicated),
            static_cast<unsigned long long>(s.frames_reordered),
            static_cast<unsigned long long>(s.frames_corrupted),
            static_cast<unsigned long long>(s.frames_rejected));
      }
      if (flags.get_bool("tables", false)) {
        std::printf("\n%s", runner.dump_tables().c_str());
      }
    }
    for (const auto& er : result.expectations) {
      if (er.passed && quiet) continue;
      std::printf("%s  expect (line %d) AS%u %s%s\n", er.passed ? "PASS" : "FAIL",
                  er.expectation.line, er.expectation.asn,
                  er.expectation.prefix.to_string().c_str(),
                  er.passed ? "" : (" — " + er.detail).c_str());
    }
    if (!result.expectations.empty()) {
      std::printf("%zu/%zu expectations passed\n",
                  result.expectations.size() - result.failures(),
                  result.expectations.size());
    }
    if (!result.converged) {
      std::fprintf(stderr,
                   "warning: event cap reached before the control plane drained; "
                   "results above describe a truncated run\n");
    }

    if (!metrics_path.empty()) {
      dbgp::telemetry::write_metrics_json(
          metrics_path, dbgp::telemetry::MetricsRegistry::global().snapshot());
      if (!quiet) std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      if (!dbgp::telemetry::write_perfetto_json(runner.causal(), trace_path)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
        return 2;
      }
      if (!quiet) {
        std::printf("trace written to %s (%zu spans, %zu audits)\n",
                    trace_path.c_str(), runner.causal().span_count(),
                    runner.causal().audit_count());
      }
    }
    if (want_oracle) {
      const dbgp::telemetry::ConvergenceOracle oracle;
      const auto report = oracle.classify(runner.causal());
      if (!oracle_path.empty()) {
        dbgp::util::json::write_file(oracle_path, dbgp::telemetry::to_json(report));
      }
      const std::string summary = dbgp::telemetry::summary(report);
      std::printf("oracle: %s\n", summary.c_str());
      // Journal the verdict (before the JSONL below is written) so the event
      // log is a self-contained record of the run.
      if (runner.event_log() != nullptr) {
        runner.event_log()->record(runner.network().events().now(), "oracle", 0, 0,
                                   summary);
      }
    }
    if (!event_log_path.empty()) {
      if (runner.event_log() == nullptr) {
        std::fprintf(stderr, "error: --event-log needs observation on\n");
        return 2;
      }
      runner.event_log()->write_jsonl(event_log_path);
      if (!quiet) {
        std::printf("event log written to %s (%zu events)\n", event_log_path.c_str(),
                    runner.event_log()->size());
      }
    }
    if (!series_path.empty()) {
      if (runner.sampler() == nullptr) {
        std::fprintf(stderr, "error: --series needs observation on\n");
        return 2;
      }
      dbgp::util::json::write_file(series_path, runner.sampler()->to_json());
      if (!quiet) {
        std::printf("time series written to %s (%zu samples)\n", series_path.c_str(),
                    runner.sampler()->sample_count());
      }
    }
    if (!explain_arg.empty()) {
      const dbgp::telemetry::ProvenanceIndex index(runner.causal());
      const auto chain = index.why(explain_as, explain_prefix);
      std::printf("%s", dbgp::telemetry::ProvenanceIndex::format_why(chain).c_str());
    }
    if (runner.causal().dropped() > 0) {
      std::fprintf(stderr,
                   "warning: causal trace capped — %zu spans/audits dropped "
                   "(telemetry.causal.dropped); chains may be incomplete\n",
                   runner.causal().dropped());
    }
    return result.all_passed() && (result.converged || explicit_cap) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
