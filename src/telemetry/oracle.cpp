#include "telemetry/oracle.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace dbgp::telemetry {

const char* to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kConverged: return "converged";
    case Verdict::kDiverged: return "diverged";
    case Verdict::kOscillating: return "oscillating";
  }
  return "?";
}

namespace {

// One selection change: the signature is the resulting best path ("" for
// unreachable) — the per-prefix RIB state the trajectory moved to.
struct Flip {
  std::string signature;
  SpanId span = 0;
  double time = 0.0;
};

struct KeyHistory {
  std::vector<Flip> flips;      // every `changed` audit, in trace order
  bool ever_reachable = false;  // some audit selected a non-empty path
  std::string final_path;       // best_path of the last audit seen
};

}  // namespace

ConvergenceOracle::RunReport ConvergenceOracle::classify(const CausalTracer& tracer) const {
  return classify(tracer.spans(), tracer.audits());
}

ConvergenceOracle::RunReport ConvergenceOracle::classify(
    const std::vector<Span>& spans, const std::vector<DecisionAudit>& audits) const {
  RunReport report;

  // Chaos settles at the last chaos event (fault injection and its repairs
  // are both kChaos); selection changes before that are disturbance-driven.
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kChaos) continue;
    report.settled_after = std::max(report.settled_after, std::max(s.start, s.end));
  }

  // Prefixes whose origin deliberately withdrew: ending unreachable is then
  // the *correct* fixed point.
  std::set<std::string> withdrawn;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kOrigination && s.name == "withdraw-origin") {
      withdrawn.insert(s.prefix);
    }
  }

  std::map<std::pair<std::uint32_t, std::string>, KeyHistory> history;
  for (const DecisionAudit& a : audits) {
    KeyHistory& h = history[{a.as, a.prefix}];
    if (!a.best_path.empty()) h.ever_reachable = true;
    h.final_path = a.best_path;
    if (a.changed) h.flips.push_back({a.best_path, a.span, a.time});
  }

  for (auto& [key, h] : history) {
    PrefixReport pr;
    pr.as = key.first;
    pr.prefix = key.second;
    pr.flips = h.flips.size();
    pr.final_path = h.final_path;

    // Post-chaos trajectory: the part of the selection sequence that must
    // settle for the run to count as converged.
    std::vector<const Flip*> settled;
    for (const Flip& f : h.flips) {
      if (!options_.ignore_chaos_window || f.time > report.settled_after) {
        settled.push_back(&f);
      }
    }
    pr.post_chaos_flips = settled.size();

    // Cycle detection: a signature revisited cycle_threshold+ times means
    // the trajectory keeps returning to the same per-prefix RIB state.
    std::map<std::string, std::vector<std::size_t>> occurrences;
    for (std::size_t i = 0; i < settled.size(); ++i) {
      occurrences[settled[i]->signature].push_back(i);
    }
    const std::vector<std::size_t>* cycle = nullptr;
    for (const auto& [sig, idx] : occurrences) {
      if (idx.size() < options_.cycle_threshold) continue;
      if (cycle == nullptr || idx.size() > cycle->size()) {
        cycle = &idx;
        pr.cycle_signature = sig;
      }
    }

    if (settled.size() >= options_.min_flips && cycle != nullptr) {
      pr.verdict = Verdict::kOscillating;
      // Evidence: one full period — every decision from one visit of the
      // recurring signature to its next visit, inclusive.
      const std::size_t from = (*cycle)[cycle->size() - 2];
      const std::size_t to = cycle->back();
      for (std::size_t i = from; i <= to; ++i) pr.evidence.push_back(settled[i]->span);
      pr.reason = "selection revisited \"" + pr.cycle_signature + "\" " +
                  std::to_string(cycle->size()) + "x across " +
                  std::to_string(pr.post_chaos_flips) + " post-chaos changes";
    } else if (h.final_path.empty() && h.ever_reachable &&
               withdrawn.count(pr.prefix) == 0) {
      pr.verdict = Verdict::kDiverged;
      pr.reason = "route lost and never restored (no withdraw-origin in trace)";
    } else {
      pr.verdict = Verdict::kConverged;
      pr.reason = h.final_path.empty() ? "settled unreachable (origin withdrew)"
                                       : "settled on \"" + h.final_path + "\"";
    }

    switch (pr.verdict) {
      case Verdict::kConverged: ++report.converged; break;
      case Verdict::kDiverged: ++report.diverged; break;
      case Verdict::kOscillating: ++report.oscillating; break;
    }
    if (static_cast<std::uint8_t>(pr.verdict) > static_cast<std::uint8_t>(report.verdict)) {
      report.verdict = pr.verdict;
    }
    report.prefixes.push_back(std::move(pr));
  }

  // Worst verdict first; within a class, most flips first, then stable key
  // order so the report is deterministic.
  std::sort(report.prefixes.begin(), report.prefixes.end(),
            [](const PrefixReport& a, const PrefixReport& b) {
              if (a.verdict != b.verdict) {
                return static_cast<std::uint8_t>(a.verdict) >
                       static_cast<std::uint8_t>(b.verdict);
              }
              if (a.flips != b.flips) return a.flips > b.flips;
              if (a.as != b.as) return a.as < b.as;
              return a.prefix < b.prefix;
            });
  return report;
}

std::string summary(const ConvergenceOracle::RunReport& report) {
  return std::string("verdict=") + to_string(report.verdict) +
         " converged=" + std::to_string(report.converged) +
         " diverged=" + std::to_string(report.diverged) +
         " oscillating=" + std::to_string(report.oscillating);
}

util::json::Value to_json(const ConvergenceOracle::RunReport& report) {
  using util::json::Array;
  using util::json::Object;
  using util::json::Value;
  Value root{Object{}};
  root.set("verdict", to_string(report.verdict));
  root.set("converged", static_cast<std::uint64_t>(report.converged));
  root.set("diverged", static_cast<std::uint64_t>(report.diverged));
  root.set("oscillating", static_cast<std::uint64_t>(report.oscillating));
  root.set("settled_after", report.settled_after);
  Array prefixes;
  for (const auto& pr : report.prefixes) {
    Value p{Object{}};
    p.set("as", static_cast<std::uint64_t>(pr.as));
    p.set("prefix", pr.prefix);
    p.set("verdict", to_string(pr.verdict));
    p.set("flips", static_cast<std::uint64_t>(pr.flips));
    p.set("post_chaos_flips", static_cast<std::uint64_t>(pr.post_chaos_flips));
    p.set("final_path", pr.final_path);
    if (pr.verdict == Verdict::kOscillating) {
      p.set("cycle_signature", pr.cycle_signature);
      Array ev;
      for (SpanId id : pr.evidence) ev.push_back(id);
      p.set("evidence_spans", std::move(ev));
    }
    p.set("reason", pr.reason);
    prefixes.push_back(std::move(p));
  }
  root.set("prefixes", std::move(prefixes));
  return root;
}

}  // namespace dbgp::telemetry
