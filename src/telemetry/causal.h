// Causal update tracing and route provenance.
//
// The paper's deployment results (Section 6.1, Figure 8) are causal claims:
// *this* origination crossed *that* gulf and triggered *those* route
// changes. This tracer is the run's only recorder: it answers "why does AS X
// use path P for prefix Q at time T" because it records the causal structure
// itself:
//
//   * every origination mints a root span whose id doubles as the trace id;
//   * every emitted frame carries a span whose parent is the decision (or
//     origination) that produced it; the span's [start, end] is the frame's
//     wire transit in sim time. Its detail holds the per-hop facts of the
//     Figure 8 walk: the sender opens it with `bytes=<wire size>`, and the
//     receiver, once it has the IA decoded, appends `protocols=<a+b+...>`
//     and `understood` (it runs a module for its active protocol and the IA
//     carries a descriptor of that protocol) or `pass-through`. Fault and
//     rejection annotations (`lost`, `duplicated`, `corrupted`,
//     `rejected:decode-error`, ...) land in the same list;
//   * every decision-process run emits a DecisionAudit — the candidate set,
//     the exact step that selected or rejected each candidate, and the
//     resulting RIB delta — linked to the span of the inbound update that
//     triggered it;
//   * chaos events (flaps, crashes, restarts, fault windows), per-node batch
//     flushes, and reconvergence windows appear as instants/durations on the
//     same timeline.
//
// Provenance queries (tools/dbgp_explain, telemetry/provenance.h) walk the
// parent links backward from any RIB state to its origination; the Perfetto
// exporter (telemetry/perfetto_export.h) renders the same data as a
// per-AS-track timeline for chrome://tracing / ui.perfetto.dev.
//
// Ids are minted from a per-tracer counter, so a deterministic simulation
// yields a byte-identical trace. Storage is bounded: past the limit,
// spans/audits are counted (and surfaced via the `telemetry.causal.dropped`
// registry counter) but not stored; dropped span ids are still minted so
// causality stays consistent for the stored prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dbgp::telemetry {

// 0 means "no span" / "no parent" everywhere.
using SpanId = std::uint64_t;
// A trace groups everything caused by one origination; the trace id is the
// root span's id.
using TraceId = std::uint64_t;

enum class SpanKind : std::uint8_t {
  kOrigination,  // root: originate / withdraw-origin at the owning AS
  kFrame,        // wire transit of one emitted frame (announce/withdraw/notice)
  kDecision,     // one decision-process run at a receiver
  kFilter,       // a global import filter dropped the inbound IA
  kChaos,        // link_down/link_up/crash/restart/faults_set/faults_cleared
  kFlush,        // coalesced per-node batch flush
  kWindow,       // reconvergence window (disruption -> in-flight drain)
};

const char* to_string(SpanKind kind) noexcept;

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 for roots
  TraceId trace = 0;  // inherited from the parent chain; own id for roots
  SpanKind kind = SpanKind::kFrame;
  double start = 0.0;  // sim seconds
  double end = -1.0;   // < start while open; == start for instants
  std::uint32_t as = 0;       // acting AS (the sender, for frames)
  std::uint32_t peer_as = 0;  // the receiver, for frames and link events
  std::string name;           // "originate", "announce", "decision", "link_down", ...
  std::string prefix;         // destination prefix where applicable
  std::string detail;         // comma-separated annotations ("lost", "corrupted", ...)
};

// One candidate considered by a decision-process run.
struct AuditCandidate {
  std::uint32_t neighbor_as = 0;
  std::string path;      // the candidate's path vector
  SpanId via_span = 0;   // frame span that delivered this candidate
  bool eligible = true;  // module import filter verdict
  // The exact step that decided this candidate's fate: "selected",
  // "origin-overrides", "ineligible:<module>", "lost:<step>" (local-pref,
  // as-path-length, origin, med, peer-id, arrival-order, preference, ...),
  // "tie-break:peer-order", "lost:path-length", "lost:arrival-order".
  std::string outcome;
};

// One decision-process run: candidates, per-candidate verdicts, RIB delta.
struct DecisionAudit {
  SpanId span = 0;  // the decision's own span
  double time = 0.0;
  std::uint32_t as = 0;
  std::string prefix;
  std::vector<AuditCandidate> candidates;
  bool origin = false;  // locally originated prefix won
  int selected = -1;    // index into candidates; -1 = origin route or unreachable
  bool changed = false; // RIB delta: the selection changed
  std::string best_path;  // resulting path vector; empty = unreachable
  std::string prev_path;  // previous selection; empty = none
  // Provenance backlink: the span that installed the selected route — a
  // frame span for learned routes, the origination span for local ones,
  // 0 when the prefix became unreachable.
  SpanId best_via = 0;
};

class CausalTracer {
 public:
  explicit CausalTracer(std::size_t limit = kDefaultLimit) : limit_(limit) {}

  // Opens a span. `parent` 0 makes a root (trace = own id); otherwise the
  // trace id is inherited from the parent. Returns the minted id; ids keep
  // incrementing past the storage limit (the span is counted as dropped).
  SpanId begin_span(SpanKind kind, SpanId parent, double start, std::uint32_t as,
                    std::uint32_t peer_as, std::string_view name,
                    std::string prefix = {}, std::string detail = {});
  // Closes a span; safe (a no-op) for dropped or unknown ids. May be called
  // again (a duplicated frame delivers twice; the last delivery wins).
  void end_span(SpanId id, double end);
  // Appends a comma-separated annotation to a span's detail.
  void annotate(SpanId id, std::string_view detail);
  // begin + end at one timestamp.
  SpanId instant(SpanKind kind, SpanId parent, double at, std::uint32_t as,
                 std::uint32_t peer_as, std::string_view name,
                 std::string prefix = {}, std::string detail = {});

  void record_audit(DecisionAudit audit);

  // Trace id of a stored span (0 for dropped/unknown ids).
  TraceId trace_of(SpanId id) const;

  std::vector<Span> spans() const;
  std::vector<DecisionAudit> audits() const;
  std::size_t span_count() const;
  std::size_t audit_count() const;
  // Spans + audits that hit the cap and were not stored.
  std::size_t dropped() const;
  void clear();

  static constexpr std::size_t kDefaultLimit = 1'000'000;

 private:
  void note_dropped();  // mu_ held

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // spans_[id - 1]; ids are dense from 1
  std::vector<DecisionAudit> audits_;
  SpanId next_id_ = 1;
  std::size_t limit_;
  std::size_t dropped_ = 0;
};

}  // namespace dbgp::telemetry
