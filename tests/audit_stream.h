// Flattens a causal tracer's decision audits, or its frame spans, to one
// string — every field, in recording order, times as exact hex floats — so
// tests can compare two runs byte for byte.
#pragma once

#include <sstream>
#include <string>

#include "telemetry/causal.h"

namespace dbgp {

inline std::string audit_stream(const telemetry::CausalTracer& tracer) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const telemetry::DecisionAudit& a : tracer.audits()) {
    out << "audit span=" << a.span << " t=" << a.time << " as=" << a.as << " " << a.prefix
        << " origin=" << a.origin << " selected=" << a.selected << " changed=" << a.changed
        << " best=[" << a.best_path << "] prev=[" << a.prev_path << "] via=" << a.best_via
        << "\n";
    for (const telemetry::AuditCandidate& c : a.candidates) {
      out << "  cand as=" << c.neighbor_as << " [" << c.path << "] via=" << c.via_span
          << " eligible=" << c.eligible << " " << c.outcome << "\n";
    }
  }
  return out.str();
}

// One line per frame span: sender>receiver, name, prefix, wire transit
// start..end, and the detail with its per-hop stamps.
inline std::string frame_hops(const telemetry::CausalTracer& tracer) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const telemetry::Span& s : tracer.spans()) {
    if (s.kind != telemetry::SpanKind::kFrame) continue;
    out << s.as << ">" << s.peer_as << " " << s.name << " " << s.prefix << " " << s.start
        << ".." << s.end << " " << s.detail << "\n";
  }
  return out.str();
}

}  // namespace dbgp
