// Causal-trace suite: the structural invariants the span/audit model of
// telemetry/causal.h promises (DESIGN.md §10). Built as the separate
// `dbgp_trace_tests` binary carrying the `trace` ctest label so CI can
// select it with `ctest -L trace` and re-run exactly this surface under
// DBGP_SANITIZE=address.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/lookup_service.h"
#include "core/speaker.h"
#include "protocols/bgp_module.h"
#include "scenario/parser.h"
#include "scenario/runner.h"
#include "simnet/network.h"
#include "telemetry/causal.h"
#include "telemetry/perfetto_export.h"
#include "telemetry/provenance.h"

namespace dbgp::telemetry {
namespace {

core::DbgpConfig bgp_as(bgp::AsNumber asn) {
  core::DbgpConfig config;
  config.asn = asn;
  config.next_hop = net::Ipv4Address(asn);
  return config;
}

// A traced 4-AS line, converged on one prefix.
struct TracedLine {
  CausalTracer tracer;
  std::unique_ptr<simnet::DbgpNetwork> net;
  net::Prefix prefix = *net::Prefix::parse("10.0.0.0/8");

  explicit TracedLine(simnet::DeliveryMode mode = simnet::DeliveryMode::kImmediate) {
    simnet::DbgpNetwork::Options options;
    options.causal = &tracer;
    options.delivery = mode;
    net = std::make_unique<simnet::DbgpNetwork>(nullptr, options);
    for (bgp::AsNumber asn = 1; asn <= 4; ++asn) {
      net->add_as(bgp_as(asn)).add_module(std::make_unique<protocols::BgpModule>());
    }
    for (bgp::AsNumber asn = 1; asn < 4; ++asn) net->add_link(asn, asn + 1);
    net->originate(1, prefix);
    net->run_to_convergence();
  }
};

std::string scenario_path(const char* name) {
  return std::string(DBGP_SCENARIO_DIR "/") + name;
}

// -- Span-graph invariants ----------------------------------------------------

TEST(CausalInvariants, ParentsAreLiveAndNotLater) {
  TracedLine line;
  const auto spans = line.tracer.spans();
  ASSERT_FALSE(spans.empty());
  for (const Span& s : spans) {
    ASSERT_EQ(spans[s.id - 1].id, s.id);  // ids dense from 1
    if (s.parent == 0) continue;
    // Every non-root parent id resolves to a stored span that started no
    // later than its child — a child cannot causally precede its cause.
    ASSERT_LE(s.parent, spans.size()) << "span " << s.id << " has dangling parent";
    EXPECT_LE(spans[s.parent - 1].start, s.start);
  }
}

TEST(CausalInvariants, TraceIdsInheritFromRoots) {
  TracedLine line;
  const auto spans = line.tracer.spans();
  for (const Span& s : spans) {
    if (s.parent == 0) {
      EXPECT_EQ(s.trace, s.id);  // a root's trace id is its own id
    } else {
      EXPECT_EQ(s.trace, spans[s.parent - 1].trace);
    }
  }
}

TEST(CausalInvariants, NonOriginSpansDescendFromAnOrigination) {
  TracedLine line;
  const auto spans = line.tracer.spans();
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kFrame && s.kind != SpanKind::kDecision) continue;
    // Walk up: every frame/decision in a fault-free run must be rooted in
    // the origination (no orphaned updates).
    const Span* cur = &s;
    while (cur->parent != 0) cur = &spans[cur->parent - 1];
    EXPECT_EQ(cur->kind, SpanKind::kOrigination)
        << "span " << s.id << " (" << s.name << ") roots at " << cur->name;
  }
}

TEST(CausalInvariants, WhyChainStartsAtOriginationWithMonotoneTime) {
  TracedLine line;
  const ProvenanceIndex index(line.tracer);
  const auto chain = index.why(4, line.prefix.to_string());
  ASSERT_GE(chain.size(), 2u);
  EXPECT_EQ(chain.front().span->kind, SpanKind::kOrigination);
  EXPECT_EQ(chain.front().span->as, 1u);
  ASSERT_NE(chain.back().audit, nullptr);
  EXPECT_EQ(chain.back().audit->as, 4u);
  double t = chain.front().span->start;
  for (const auto& step : chain) {
    ASSERT_NE(step.span, nullptr);
    EXPECT_GE(step.span->start, t) << "time went backward along the chain";
    t = step.span->start;
  }
  // The wire hops appear in topology order: 1->2, 2->3, 3->4.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hops;
  for (const auto& step : chain) {
    if (step.span->kind == SpanKind::kFrame) {
      hops.emplace_back(step.span->as, step.span->peer_as);
    }
  }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want = {
      {1, 2}, {2, 3}, {3, 4}};
  EXPECT_EQ(hops, want);
}

// -- Delivery-mode equivalence ------------------------------------------------

// The causal DAG a fault-free run produces must not depend on the delivery
// mode: batched coalesces *when* decisions run, not *why*. Compare the shape
// of every AS's why-chain (kinds, actors, names) modulo span renumbering.
TEST(CausalInvariants, ImmediateAndBatchedYieldSameCausalChains) {
  TracedLine immediate(simnet::DeliveryMode::kImmediate);
  TracedLine batched(simnet::DeliveryMode::kBatched);
  const ProvenanceIndex a(immediate.tracer);
  const ProvenanceIndex b(batched.tracer);
  const std::string prefix = immediate.prefix.to_string();
  for (std::uint32_t as = 1; as <= 4; ++as) {
    const auto ca = a.why(as, prefix);
    const auto cb = b.why(as, prefix);
    ASSERT_EQ(ca.size(), cb.size()) << "AS" << as;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].span->kind, cb[i].span->kind) << "AS" << as << " step " << i;
      EXPECT_EQ(ca[i].span->as, cb[i].span->as) << "AS" << as << " step " << i;
      EXPECT_EQ(ca[i].span->peer_as, cb[i].span->peer_as);
      EXPECT_EQ(ca[i].span->name, cb[i].span->name);
      ASSERT_EQ(ca[i].audit == nullptr, cb[i].audit == nullptr);
      if (ca[i].audit != nullptr) {
        EXPECT_EQ(ca[i].audit->best_path, cb[i].audit->best_path);
        EXPECT_EQ(ca[i].audit->selected, cb[i].audit->selected);
      }
    }
  }
}

// -- Audit/RIB agreement ------------------------------------------------------

// The last audit for every (AS, prefix) must describe exactly what the RIB
// holds after the run — including under churn, where the trail of audits is
// long and interleaved with losses and session resets.
void expect_audits_agree_with_rib(scenario::Runner& runner) {
  std::map<std::pair<std::uint32_t, std::string>, const DecisionAudit*> last;
  const auto audits = runner.causal().audits();
  for (const auto& a : audits) last[{a.as, a.prefix}] = &a;
  ASSERT_FALSE(last.empty());
  for (const auto& [key, audit] : last) {
    const auto& [as, prefix_text] = key;
    const auto prefix = net::Prefix::parse(prefix_text);
    ASSERT_TRUE(prefix.has_value());
    const auto* best = runner.network().speaker(as).best(*prefix);
    if (best == nullptr) {
      EXPECT_TRUE(audit->best_path.empty())
          << "AS" << as << " audit says " << audit->best_path << ", RIB says none";
    } else {
      EXPECT_EQ(audit->best_path, best->ia.path_vector.to_string()) << "AS" << as;
      EXPECT_NE(audit->best_via, 0u);
    }
  }
}

TEST(CausalInvariants, AuditsAgreeWithRibFaultFree) {
  scenario::Runner runner;
  runner.enable_causal_tracing();
  runner.build(scenario::load_scenario(scenario_path("figure8_pathlets.dbgp")));
  const auto result = runner.run();
  ASSERT_TRUE(result.all_passed() && result.converged);
  expect_audits_agree_with_rib(runner);
}

TEST(CausalInvariants, AuditsAgreeWithRibUnderChurn) {
  scenario::Runner runner;
  runner.enable_causal_tracing();
  runner.build(scenario::load_scenario(scenario_path("figure8_pathlets_churn.dbgp")));
  const auto result = runner.run();
  ASSERT_TRUE(result.all_passed() && result.converged);
  expect_audits_agree_with_rib(runner);
}

TEST(CausalInvariants, ChurnWindowsAreAllAttributed) {
  scenario::Runner runner;
  runner.enable_causal_tracing();
  runner.build(scenario::load_scenario(scenario_path("figure8_pathlets_churn.dbgp")));
  ASSERT_TRUE(runner.run().converged);
  const ProvenanceIndex index(runner.causal());
  const auto windows = index.reconvergence_windows();
  ASSERT_FALSE(windows.empty());
  for (const auto& w : windows) {
    EXPECT_FALSE(w.disruptions.empty())
        << "window at t=" << w.window->start << " has no attributed disruption";
    EXPECT_NE(w.window->parent, 0u);  // the opening disruption is the parent
  }
}

// reevaluate_all decides each prefix once, even one this speaker originates
// while a peer announces it too (MOAS, anycast): one decision span and one
// audit, recording the origin overriding the peer's route.
TEST(CausalInvariants, ReevaluateAllDecidesAMoasOriginOnce) {
  const net::Prefix prefix = *net::Prefix::parse("10.0.0.0/8");
  core::DbgpSpeaker neighbor(bgp_as(2));
  neighbor.add_module(std::make_unique<protocols::BgpModule>());
  neighbor.add_peer(1);
  const auto announce = neighbor.originate(prefix).at(0).bytes();

  core::DbgpSpeaker speaker(bgp_as(1));
  speaker.add_module(std::make_unique<protocols::BgpModule>());
  const bgp::PeerId from = speaker.add_peer(2);
  speaker.originate(prefix);
  speaker.handle_frame(from, announce);
  ASSERT_EQ(speaker.routes().at(prefix).candidates.size(), 1u);

  CausalTracer tracer;
  speaker.set_causal(&tracer);
  EXPECT_TRUE(speaker.reevaluate_all().empty());  // nothing changed, nothing sent
  EXPECT_EQ(tracer.span_count(), 1u);
  ASSERT_EQ(tracer.audit_count(), 1u);
  const DecisionAudit audit = tracer.audits().at(0);
  EXPECT_TRUE(audit.origin);
  EXPECT_FALSE(audit.changed);
  ASSERT_EQ(audit.candidates.size(), 1u);
  EXPECT_EQ(audit.candidates[0].outcome, "origin-overrides");
}

// -- Frame-span stamps where the wire differs ---------------------------------

// The frame spans of `tracer` sent by `from` to `to`.
std::vector<Span> frames(const CausalTracer& tracer, bgp::AsNumber from, bgp::AsNumber to) {
  std::vector<Span> out;
  for (const Span& s : tracer.spans()) {
    if (s.kind == SpanKind::kFrame && s.as == from && s.peer_as == to) out.push_back(s);
  }
  return out;
}

TEST(FrameStamps, OutOfBandNoticeCarriesNoticeSizeAndFetchedProtocols) {
  CausalTracer tracer;
  core::LookupService lookup;
  simnet::DbgpNetwork::Options options;
  options.causal = &tracer;
  simnet::DbgpNetwork net(&lookup, options);
  for (bgp::AsNumber asn = 1; asn <= 3; ++asn) {
    core::DbgpConfig config = bgp_as(asn);
    config.dissemination = core::Dissemination::kOutOfBand;
    net.add_as(config).add_module(std::make_unique<protocols::BgpModule>());
  }
  net.add_link(1, 2);
  net.add_link(2, 3);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  ASSERT_NE(net.speaker(3).best(prefix), nullptr);
  for (const auto& [from, to] : {std::pair{1u, 2u}, std::pair{2u, 3u}}) {
    const auto spans = frames(tracer, from, to);
    ASSERT_EQ(spans.size(), 1u) << from << ">" << to;
    EXPECT_EQ(spans[0].name, "notice");
    // The wire carried the 6-byte notice, not the IA; the receiver stamped
    // what it fetched from the lookup service.
    EXPECT_EQ(spans[0].detail, "bytes=6,protocols=bgp,pass-through") << from << ">" << to;
  }
}

TEST(FrameStamps, DuplicatedFrameStampedTwiceCorruptedFrameNotAtAll) {
  CausalTracer tracer;
  simnet::DbgpNetwork::Options options;
  options.causal = &tracer;
  simnet::DbgpNetwork net(nullptr, options);
  for (bgp::AsNumber asn = 1; asn <= 3; ++asn) {
    net.add_as(bgp_as(asn)).add_module(std::make_unique<protocols::BgpModule>());
  }
  net.add_link(1, 2).set_faults({/*loss=*/0.0, /*duplicate=*/1.0}, 7);
  net.add_link(2, 3).set_faults({0.0, 0.0, /*reorder=*/0.0, /*corrupt=*/1.0}, 7);
  const auto prefix = *net::Prefix::parse("10.0.0.0/8");
  net.originate(1, prefix);
  net.run_to_convergence();
  ASSERT_NE(net.speaker(2).best(prefix), nullptr);
  EXPECT_EQ(net.speaker(3).best(prefix), nullptr);

  const auto duplicated = frames(tracer, 1, 2);
  ASSERT_EQ(duplicated.size(), 1u);  // both copies share one span
  const std::string stamp = "protocols=bgp,pass-through";
  const std::string once = duplicated[0].detail.substr(duplicated[0].detail.find(stamp));
  EXPECT_EQ(once, stamp + "," + stamp) << duplicated[0].detail;
  EXPECT_NE(duplicated[0].detail.find(",duplicated,"), std::string::npos);

  const auto corrupted = frames(tracer, 2, 3);
  ASSERT_FALSE(corrupted.empty());
  for (const Span& s : corrupted) {
    EXPECT_NE(s.detail.find("rejected:decode-error"), std::string::npos) << s.detail;
    EXPECT_EQ(s.detail.find("protocols="), std::string::npos) << s.detail;
  }
}

// -- Tracer mechanics ---------------------------------------------------------

TEST(CausalTracerTest, CapCountsDropsButKeepsMintingIds) {
  CausalTracer tracer(/*limit=*/2);
  const SpanId a = tracer.begin_span(SpanKind::kOrigination, 0, 0.0, 1, 0, "originate");
  const SpanId b = tracer.begin_span(SpanKind::kFrame, a, 0.0, 1, 2, "announce");
  const SpanId c = tracer.begin_span(SpanKind::kFrame, a, 0.1, 1, 3, "announce");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);  // minted past the cap so causality stays consistent
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  tracer.end_span(c, 0.2);  // no-op, must not crash
  EXPECT_EQ(tracer.trace_of(c), 0u);
  for (int i = 0; i < 3; ++i) {  // audits have their own cap at the same limit
    DecisionAudit audit;
    audit.span = b;
    tracer.record_audit(std::move(audit));
  }
  EXPECT_EQ(tracer.audit_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 2u);
}

TEST(CausalTracerTest, DuplicateDeliveryLastEndWins) {
  CausalTracer tracer;
  const SpanId s = tracer.begin_span(SpanKind::kFrame, 0, 0.0, 1, 2, "announce");
  tracer.end_span(s, 0.5);
  tracer.end_span(s, 0.7);  // the duplicated copy arrives later
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end, 0.7);
}

TEST(CausalTracerTest, DisabledTracingRecordsNothing) {
  simnet::DbgpNetwork net;  // options.causal defaults to nullptr
  net.add_as(bgp_as(1)).add_module(std::make_unique<protocols::BgpModule>());
  net.add_as(bgp_as(2)).add_module(std::make_unique<protocols::BgpModule>());
  net.add_link(1, 2);
  net.originate(1, *net::Prefix::parse("10.0.0.0/8"));
  net.run_to_convergence();
  EXPECT_EQ(net.speaker(2).causal(), nullptr);
}

// -- Perfetto export ----------------------------------------------------------

TEST(PerfettoExport, EmitsSortedEventsWithTraceEventKeys) {
  TracedLine line;
  const std::string json = to_perfetto_json(line.tracer);
  // Structural spot-checks (tools/trace_check is the full validator).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // B and E counts must match for the viewers to nest correctly.
  std::size_t b = 0, e = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos;
       pos += 8) {
    ++b;
  }
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos;
       pos += 8) {
    ++e;
  }
  EXPECT_EQ(b, e);
  EXPECT_GT(b, 0u);
}

}  // namespace
}  // namespace dbgp::telemetry
