// Convergence oracle: per-prefix convergence classification over the causal
// trace DAG.
//
// "The queue drained" is not a convergence proof, and counting fast flips
// in a sliding window cannot tell a chaos-induced reconvergence burst from a
// genuine dispute wheel, nor notice routes that silently stayed lost. This
// oracle — the repo's only convergence judge, behind dbgp_run --oracle and
// the route server's `health` — classifies each (as, prefix) pair, and the
// run, from the recorded history itself (causal spans + DecisionAudits),
// following the shape of the Daggitt–Griffin
// convergence criteria (arXiv 2106.01184): a run converges iff every node's
// selection sequence reaches a fixed point consistent with the surviving
// originations.
//
//   * oscillating — the post-chaos selection sequence revisits the same RIB
//     state signature (the selected path vector) `cycle_threshold`+ times:
//     the trajectory is cycling, not settling. Evidence is one full period
//     of the cycle as decision span ids, so `dbgp_explain`/Perfetto can
//     replay the offending loop. Flips that happen while chaos is still
//     injecting faults are excluded by default — "BGP Stability is
//     Precarious" (arXiv 1108.0192) oscillation is a property of the
//     *undisturbed* system, and counting fault-window churn would flag every
//     chaos scenario.
//   * diverged — the prefix was reachable at this AS and the run ended with
//     it unreachable, with no withdraw-origin in the trace to justify the
//     loss (e.g. the origin crashed and never came back). A deliberate
//     withdrawal is a converged final state, not divergence.
//   * converged — everything else: the selection sequence reached a fixed
//     point consistent with the originations that survived the run.
//
// The run verdict is the worst prefix verdict (oscillating > diverged >
// converged). Validated against the known half-wiser-ring diverger
// (tests/oracle_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/causal.h"
#include "util/json.h"

namespace dbgp::telemetry {

enum class Verdict : std::uint8_t { kConverged = 0, kDiverged = 1, kOscillating = 2 };

const char* to_string(Verdict verdict) noexcept;

class ConvergenceOracle {
 public:
  struct Options {
    // A selection signature recurring this many times flags a cycle.
    std::size_t cycle_threshold = 3;
    // Minimum post-chaos selection changes before oscillation is considered
    // (keeps plain reconvergence ripples below the bar).
    std::size_t min_flips = 4;
    // Ignore selection changes made while chaos was still active (before
    // the last kChaos span); false classifies the raw trajectory.
    bool ignore_chaos_window = true;
  };

  struct PrefixReport {
    std::uint32_t as = 0;
    std::string prefix;
    Verdict verdict = Verdict::kConverged;
    std::size_t flips = 0;             // total selection changes
    std::size_t post_chaos_flips = 0;  // changes after the last chaos event
    std::string final_path;            // selection at end of trace ("" = unreachable)
    std::string cycle_signature;       // the recurring path, for oscillating
    std::vector<SpanId> evidence;      // decision spans of one full cycle period
    std::string reason;                // one-line human explanation
  };

  struct RunReport {
    Verdict verdict = Verdict::kConverged;
    std::size_t converged = 0;    // (as, prefix) pairs per class
    std::size_t diverged = 0;
    std::size_t oscillating = 0;
    double settled_after = 0.0;   // time of the last chaos event (0 = none)
    std::vector<PrefixReport> prefixes;  // every pair, worst verdict first

    bool ok() const noexcept { return verdict == Verdict::kConverged; }
  };

  ConvergenceOracle() = default;
  explicit ConvergenceOracle(Options options) : options_(options) {}

  RunReport classify(const CausalTracer& tracer) const;
  RunReport classify(const std::vector<Span>& spans,
                     const std::vector<DecisionAudit>& audits) const;

  const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

// The run verdict as one line, "verdict=<v> converged=<n> diverged=<n>
// oscillating=<n>": what dbgp_run prints, the end of `health`'s headline,
// and the detail of every journaled "oracle" event.
std::string summary(const ConvergenceOracle::RunReport& report);

// Full report as JSON (dbgp_run --observe writes this next to the metrics).
util::json::Value to_json(const ConvergenceOracle::RunReport& report);

}  // namespace dbgp::telemetry
