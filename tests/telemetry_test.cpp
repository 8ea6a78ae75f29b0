#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenario/parser.h"
#include "scenario/runner.h"
#include "telemetry/json_export.h"
#include "telemetry/metrics.h"
#include "telemetry/timer.h"
#include "util/json.h"

namespace dbgp::telemetry {
namespace {

// gtest_discover_tests runs each TEST as its own process, so tests that
// touch the global registry reset it up front without racing each other.
void fresh_registry() {
  set_enabled(true);
  MetricsRegistry::global().reset();
}

TEST(Counter, IncrementAndReset) {
  fresh_registry();
  auto& c = MetricsRegistry::global().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, DisabledRegistryIgnoresUpdates) {
  fresh_registry();
  auto& c = MetricsRegistry::global().counter("test.counter");
  set_enabled(false);
  c.inc(100);
  EXPECT_EQ(c.value(), 0u);
  set_enabled(true);
  c.inc(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(Gauge, TracksValueAndHighWater) {
  fresh_registry();
  auto& g = MetricsRegistry::global().gauge("test.gauge");
  g.set(5);
  g.add(3);
  EXPECT_EQ(g.value(), 8);
  EXPECT_EQ(g.high_water(), 8);
  g.add(-6);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.high_water(), 8);  // high water survives the drop
  g.set(1);
  EXPECT_EQ(g.high_water(), 8);
}

TEST(Histogram, CountsSumsAndBuckets) {
  fresh_registry();
  auto& h = MetricsRegistry::global().histogram("test.hist", {1.0, 10.0, 100.0});
  h.record(0.5);
  h.record(5.0);
  h.record(50.0);
  h.record(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(Histogram, PercentileInterpolatesAndClamps) {
  fresh_registry();
  auto& h = MetricsRegistry::global().histogram("test.hist", {1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) h.record(1.5);  // all in the (1,2] bucket
  const double p50 = h.percentile(50.0);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  // Clamped to observed extremes: every sample is 1.5.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1.5);
}

TEST(Histogram, EmptyReturnsZero) {
  fresh_registry();
  auto& h = MetricsRegistry::global().histogram("test.hist");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ExponentialBoundsCoverRange) {
  const auto bounds = Histogram::exponential_bounds(1.0, 100.0, 2.0);
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
  EXPECT_GE(bounds.back(), 100.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_GT(bounds[i], bounds[i - 1]);
}

TEST(Registry, SameNameReturnsSameMetric) {
  fresh_registry();
  auto& reg = MetricsRegistry::global();
  EXPECT_EQ(&reg.counter("a"), &reg.counter("a"));
  EXPECT_EQ(&reg.gauge("b"), &reg.gauge("b"));
  EXPECT_EQ(&reg.histogram("c"), &reg.histogram("c"));
}

TEST(Registry, ResetZeroesButKeepsPointersValid) {
  fresh_registry();
  auto& reg = MetricsRegistry::global();
  auto& c = reg.counter("keep.me");
  c.inc(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  c.inc(2);
  EXPECT_EQ(reg.counter("keep.me").value(), 2u);
}

TEST(Registry, SnapshotIsSortedByName) {
  fresh_registry();
  auto& reg = MetricsRegistry::global();
  reg.counter("z.last").inc();
  reg.counter("a.first").inc(3);
  const auto snap = reg.snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  const auto* a = snap.find_counter("a.first");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value, 3u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
}

TEST(Timers, ScopedTimerRecordsAndSimTimerIsDeterministic) {
  fresh_registry();
  auto& wall = MetricsRegistry::global().histogram("test.wall");
  { ScopedTimer t(&wall); }
  EXPECT_EQ(wall.count(), 1u);
  EXPECT_GE(wall.min(), 0.0);

  auto& sim = MetricsRegistry::global().histogram("test.sim");
  SimTimer st(&sim, 10.0);
  st.stop(12.5);
  st.stop(99.0);  // idempotent: second stop is ignored
  EXPECT_EQ(sim.count(), 1u);
  EXPECT_DOUBLE_EQ(sim.sum(), 2.5);
}

TEST(Timers, DisabledScopedTimerRecordsNothing) {
  fresh_registry();
  auto& wall = MetricsRegistry::global().histogram("test.wall");
  set_enabled(false);
  { ScopedTimer t(&wall); }
  set_enabled(true);
  EXPECT_EQ(wall.count(), 0u);
}

// -- JSON ---------------------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":1,"b":[true,null,"x\n"],"c":{"nested":-2.5},"d":1e3})";
  const auto v = util::json::Value::parse(text);
  EXPECT_DOUBLE_EQ(v.number_or("a", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(v.number_or("d", 0.0), 1000.0);
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_EQ(v.find("b")->as_array().size(), 3u);
  EXPECT_EQ(v.find("b")->as_array()[2].as_string(), "x\n");
  // Round trip: re-parsing the dump yields the same dump.
  const std::string once = v.dump();
  EXPECT_EQ(util::json::Value::parse(once).dump(), once);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(util::json::Value::parse("{"), std::runtime_error);
  EXPECT_THROW(util::json::Value::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(util::json::Value::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(util::json::Value::parse("nul"), std::runtime_error);
}

TEST(Json, SnapshotRoundTrip) {
  fresh_registry();
  auto& reg = MetricsRegistry::global();
  reg.counter("rt.counter").inc(42);
  reg.gauge("rt.gauge").set(7);
  auto& h = reg.histogram("rt.hist", {1.0, 10.0});
  h.record(0.5);
  h.record(20.0);

  const auto snap = reg.snapshot();
  const auto restored = snapshot_from_json(to_json(snap));

  const auto* c = restored.find_counter("rt.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 42u);
  const auto* g = restored.find_gauge("rt.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 7);
  EXPECT_EQ(g->high_water, 7);
  const auto* rh = restored.find_histogram("rt.hist");
  ASSERT_NE(rh, nullptr);
  EXPECT_EQ(rh->count, 2u);
  EXPECT_DOUBLE_EQ(rh->sum, 20.5);
  ASSERT_EQ(rh->buckets.size(), 3u);
  EXPECT_EQ(rh->buckets[0], 1u);
  EXPECT_EQ(rh->buckets[2], 1u);  // overflow
}

// -- Integration: registry counters vs legacy DbgpStats -----------------------

// The Figure 8 pathlet scenario (scenarios/figure8_pathlets.dbgp), inlined so
// the test does not depend on the working directory.
constexpr const char* kFigure8Pathlets = R"(
as 1 island=A protocol=pathlets
as 2 island=A protocol=pathlets
as 7
as 9 island=B protocol=pathlets

pathlet 2 1 vias=101-102
pathlet 2 2 vias=102-104 delivers=131.1.4.0/24
pathlet 2 3 vias=101-103
pathlet 2 4 vias=103-104 delivers=131.1.4.0/24
pathlet 2 50 vias=101-102-104 delivers=131.1.4.0/24

link 1 2 same-island
link 2 7
link 7 9

originate 1 131.1.4.0/24

expect reachable 9 131.1.4.0/24
expect pathlets 9 131.1.4.0/24 5
expect descriptor 9 131.1.4.0/24 pathlets
)";

TEST(Integration, RegistryCountersMatchLegacyDbgpStats) {
  fresh_registry();
  const auto scenario = scenario::parse_scenario(kFigure8Pathlets);
  scenario::Runner runner;
  runner.enable_causal_tracing();
  runner.build(scenario);
  const auto result = runner.run();
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.all_passed());

  // Sum the legacy per-speaker stats across every AS; the registry
  // aggregates the same counters process-wide.
  core::DbgpStats total;
  for (const auto asn : runner.network().as_numbers()) {
    const auto& s = runner.network().speaker(asn).stats();
    total.ias_received += s.ias_received;
    total.ias_sent += s.ias_sent;
    total.withdraws_received += s.withdraws_received;
    total.withdraws_sent += s.withdraws_sent;
    total.dropped_by_global_filter += s.dropped_by_global_filter;
    total.rejected_by_module += s.rejected_by_module;
    total.lookup_fetches += s.lookup_fetches;
    total.lookup_misses += s.lookup_misses;
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
  }
  EXPECT_GT(total.ias_received, 0u);

  const auto snap = MetricsRegistry::global().snapshot();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto* c = snap.find_counter(std::string("dbgp.speaker.") + name);
    return c != nullptr ? c->value : 0;
  };
  EXPECT_EQ(counter("ias_received"), total.ias_received);
  EXPECT_EQ(counter("ias_sent"), total.ias_sent);
  EXPECT_EQ(counter("withdraws_received"), total.withdraws_received);
  EXPECT_EQ(counter("withdraws_sent"), total.withdraws_sent);
  EXPECT_EQ(counter("dropped_by_global_filter"), total.dropped_by_global_filter);
  EXPECT_EQ(counter("rejected_by_module"), total.rejected_by_module);
  EXPECT_EQ(counter("lookup_fetches"), total.lookup_fetches);
  EXPECT_EQ(counter("lookup_misses"), total.lookup_misses);
  EXPECT_EQ(counter("bytes_sent"), total.bytes_sent);
  EXPECT_EQ(counter("bytes_received"), total.bytes_received);

  // The codec histograms saw every encode/decode the run performed.
  const auto* decode = snap.find_histogram("dbgp.codec.decode_seconds");
  ASSERT_NE(decode, nullptr);
  EXPECT_GT(decode->count, 0u);

  // The frame spans carry Figure 8's walk hop by hop: the pathlet control
  // information crosses the BGP gulf (AS 7) as pass-through, and the far
  // pathlet island (AS 9) understands it.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> hops;
  for (const auto& span : runner.causal().spans()) {
    if (span.kind != SpanKind::kFrame) continue;
    EXPECT_EQ(span.name, "announce");
    EXPECT_EQ(span.prefix, "131.1.4.0/24");
    EXPECT_EQ(span.detail.rfind("bytes=", 0), 0u) << span.detail;
    hops[{span.as, span.peer_as}] = span.detail;
  }
  ASSERT_EQ(hops.size(), 3u);
  const std::string& into_gulf = hops[{2, 7}];
  EXPECT_NE(into_gulf.find("pathlets"), std::string::npos) << into_gulf;
  EXPECT_NE(into_gulf.find(",pass-through"), std::string::npos) << into_gulf;
  const std::string& into_island = hops[{7, 9}];
  EXPECT_NE(into_island.find("pathlets"), std::string::npos) << into_island;
  EXPECT_NE(into_island.find(",understood"), std::string::npos) << into_island;
}

}  // namespace
}  // namespace dbgp::telemetry
