// JSON view of telemetry state: metrics snapshots.
//
// Export shapes (consumed by tools/bench_report and by the BENCH_*.json
// trajectory; keep stable):
//
//   metrics:  { "counters":   { "<name>": <value>, ... },
//               "gauges":     { "<name>": {"value":v,"high_water":h}, ... },
//               "histograms": { "<name>": {"count","sum","min","max","mean",
//                                          "p50","p95","p99",
//                                          "buckets":[{"le":b,"count":n},...,
//                                                     {"le":"inf","count":n}]}}}
//
// Run traces are the causal tracer's, exported by telemetry/perfetto_export.h.
#pragma once

#include <string>

#include "telemetry/metrics.h"
#include "util/json.h"

namespace dbgp::telemetry {

util::json::Value to_json(const MetricsSnapshot& snapshot);

// Reconstructs the numeric content of a snapshot from its JSON form (the
// inverse of to_json up to double precision); throws std::runtime_error on
// shape mismatch. Used by round-trip tests and external analysis tools.
MetricsSnapshot snapshot_from_json(const util::json::Value& value);

// Serializes and writes to `path` (pretty-printed); throws on IO failure.
void write_metrics_json(const std::string& path, const MetricsSnapshot& snapshot);

}  // namespace dbgp::telemetry
