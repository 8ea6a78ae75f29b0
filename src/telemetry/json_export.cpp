#include "telemetry/json_export.h"

#include <stdexcept>

namespace dbgp::telemetry {

using util::json::Array;
using util::json::Object;
using util::json::Value;

Value to_json(const MetricsSnapshot& snapshot) {
  Object counters;
  for (const auto& c : snapshot.counters) {
    counters.emplace_back(c.name, Value(c.value));
  }

  Object gauges;
  for (const auto& g : snapshot.gauges) {
    Object entry;
    entry.emplace_back("value", Value(g.value));
    entry.emplace_back("high_water", Value(g.high_water));
    gauges.emplace_back(g.name, Value(std::move(entry)));
  }

  Object histograms;
  for (const auto& h : snapshot.histograms) {
    Object entry;
    entry.emplace_back("count", Value(h.count));
    entry.emplace_back("sum", Value(h.sum));
    entry.emplace_back("min", Value(h.min));
    entry.emplace_back("max", Value(h.max));
    entry.emplace_back("mean", Value(h.mean));
    entry.emplace_back("p50", Value(h.p50));
    entry.emplace_back("p95", Value(h.p95));
    entry.emplace_back("p99", Value(h.p99));
    Array buckets;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      Object bucket;
      if (i < h.bounds.size()) {
        bucket.emplace_back("le", Value(h.bounds[i]));
      } else {
        bucket.emplace_back("le", Value("inf"));
      }
      bucket.emplace_back("count", Value(h.buckets[i]));
      buckets.push_back(Value(std::move(bucket)));
    }
    entry.emplace_back("buckets", Value(std::move(buckets)));
    histograms.emplace_back(h.name, Value(std::move(entry)));
  }

  Object root;
  root.emplace_back("counters", Value(std::move(counters)));
  root.emplace_back("gauges", Value(std::move(gauges)));
  root.emplace_back("histograms", Value(std::move(histograms)));
  return Value(std::move(root));
}

namespace {

const Value& member(const Value& v, const char* key) {
  const Value* m = v.find(key);
  if (m == nullptr) {
    throw std::runtime_error(std::string("metrics json: missing member '") + key + "'");
  }
  return *m;
}

}  // namespace

MetricsSnapshot snapshot_from_json(const Value& value) {
  MetricsSnapshot snap;
  for (const auto& [name, v] : member(value, "counters").as_object()) {
    snap.counters.push_back({name, static_cast<std::uint64_t>(v.as_double())});
  }
  for (const auto& [name, v] : member(value, "gauges").as_object()) {
    GaugeSnapshot g;
    g.name = name;
    g.value = static_cast<std::int64_t>(member(v, "value").as_double());
    g.high_water = static_cast<std::int64_t>(member(v, "high_water").as_double());
    snap.gauges.push_back(std::move(g));
  }
  for (const auto& [name, v] : member(value, "histograms").as_object()) {
    HistogramSnapshot h;
    h.name = name;
    h.count = static_cast<std::uint64_t>(member(v, "count").as_double());
    h.sum = member(v, "sum").as_double();
    h.min = member(v, "min").as_double();
    h.max = member(v, "max").as_double();
    h.mean = member(v, "mean").as_double();
    h.p50 = member(v, "p50").as_double();
    h.p95 = member(v, "p95").as_double();
    h.p99 = member(v, "p99").as_double();
    for (const auto& bucket : member(v, "buckets").as_array()) {
      const Value& le = member(bucket, "le");
      if (le.is_number()) h.bounds.push_back(le.as_double());
      h.buckets.push_back(
          static_cast<std::uint64_t>(member(bucket, "count").as_double()));
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void write_metrics_json(const std::string& path, const MetricsSnapshot& snapshot) {
  util::json::write_file(path, to_json(snapshot));
}

}  // namespace dbgp::telemetry
