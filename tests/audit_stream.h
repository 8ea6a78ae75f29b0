// Flattens a causal tracer's decision audits to one string — every field of
// every audit, in recording order, times as exact hex floats — so tests can
// compare two runs' audit streams byte for byte.
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

}  // namespace dbgp
