#include "telemetry/causal.h"

#include "telemetry/metrics.h"

namespace dbgp::telemetry {

namespace {
// Registry mirror of the drop counter so a capped trace is visible in any
// metrics snapshot, not only to callers holding the tracer.
Counter& dropped_counter() {
  static Counter& c = MetricsRegistry::global().counter("telemetry.causal.dropped");
  return c;
}
}  // namespace

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kOrigination: return "origination";
    case SpanKind::kFrame: return "frame";
    case SpanKind::kDecision: return "decision";
    case SpanKind::kFilter: return "filter";
    case SpanKind::kChaos: return "chaos";
    case SpanKind::kFlush: return "flush";
    case SpanKind::kWindow: return "window";
  }
  return "?";
}

void CausalTracer::note_dropped() {
  ++dropped_;
  dropped_counter().inc();
}

SpanId CausalTracer::begin_span(SpanKind kind, SpanId parent, double start,
                                std::uint32_t as, std::uint32_t peer_as,
                                std::string_view name, std::string prefix,
                                std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  const SpanId id = next_id_++;
  if (spans_.size() >= limit_) {
    note_dropped();
    return id;
  }
  Span span;
  span.id = id;
  span.parent = parent;
  // Roots start their own trace; children inherit. A parent that was itself
  // dropped yields trace 0 — the child chain survives with parent links
  // intact but no trace grouping.
  span.trace = parent == 0 ? id
               : parent <= spans_.size() ? spans_[parent - 1].trace
                                         : 0;
  span.kind = kind;
  span.start = start;
  span.end = -1.0;
  span.as = as;
  span.peer_as = peer_as;
  span.name.assign(name);
  span.prefix = std::move(prefix);
  span.detail = std::move(detail);
  spans_.push_back(std::move(span));
  return id;
}

void CausalTracer::end_span(SpanId id, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end = end;
}

void CausalTracer::annotate(SpanId id, std::string_view detail) {
  if (detail.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  std::string& d = spans_[id - 1].detail;
  if (!d.empty()) d += ',';
  d += detail;
}

SpanId CausalTracer::instant(SpanKind kind, SpanId parent, double at, std::uint32_t as,
                             std::uint32_t peer_as, std::string_view name,
                             std::string prefix, std::string detail) {
  const SpanId id =
      begin_span(kind, parent, at, as, peer_as, name, std::move(prefix), std::move(detail));
  end_span(id, at);
  return id;
}

void CausalTracer::record_audit(DecisionAudit audit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (audits_.size() >= limit_) {
    note_dropped();
    return;
  }
  audits_.push_back(std::move(audit));
}

TraceId CausalTracer::trace_of(SpanId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return 0;
  return spans_[id - 1].trace;
}

std::vector<Span> CausalTracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<DecisionAudit> CausalTracer::audits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audits_;
}

std::size_t CausalTracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t CausalTracer::audit_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audits_.size();
}

std::size_t CausalTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void CausalTracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  audits_.clear();
  next_id_ = 1;
  dropped_ = 0;
}

}  // namespace dbgp::telemetry
