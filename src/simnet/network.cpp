#include "simnet/network.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/bytes.h"
#include "util/logging.h"

namespace dbgp::simnet {

namespace {
constexpr auto kLog = "simnet.network";

struct NetworkMetrics {
  telemetry::Counter* frames_delivered;
  telemetry::Counter* bytes_delivered;
  telemetry::Gauge* messages_in_flight;
  // Chaos layer.
  telemetry::Counter* link_down;
  telemetry::Counter* link_up;
  telemetry::Counter* crashes;
  telemetry::Counter* restarts;
  telemetry::Counter* frames_lost;
  telemetry::Counter* frames_duplicated;
  telemetry::Counter* frames_reordered;
  telemetry::Counter* frames_corrupted;
  telemetry::Counter* frames_rejected;
  telemetry::Histogram* reconvergence;

  static NetworkMetrics& get() {
    static NetworkMetrics m = [] {
      auto& reg = telemetry::MetricsRegistry::global();
      return NetworkMetrics{
          &reg.counter("simnet.frames_delivered"),
          &reg.counter("simnet.bytes_delivered"),
          &reg.gauge("simnet.messages_in_flight"),
          &reg.counter("simnet.chaos.link_down"),
          &reg.counter("simnet.chaos.link_up"),
          &reg.counter("simnet.chaos.crashes"),
          &reg.counter("simnet.chaos.restarts"),
          &reg.counter("simnet.chaos.frames_lost"),
          &reg.counter("simnet.chaos.frames_duplicated"),
          &reg.counter("simnet.chaos.frames_reordered"),
          &reg.counter("simnet.chaos.frames_corrupted"),
          &reg.counter("simnet.chaos.frames_rejected"),
          &reg.histogram("simnet.chaos.reconvergence_seconds",
                         telemetry::Histogram::exponential_bounds(1e-3, 60.0, 2.0))};
    }();
    return m;
  }
};
}  // namespace

core::DbgpSpeaker& DbgpNetwork::add_as(core::DbgpConfig config) {
  const bgp::AsNumber asn = config.asn;
  if (nodes_.count(asn) > 0) {
    throw std::invalid_argument("AS " + std::to_string(asn) + " already exists");
  }
  Node node;
  node.speaker = std::make_unique<core::DbgpSpeaker>(std::move(config), lookup_);
  if (options_.speaker_threads > 1) {
    // One pool for the whole network, created on first use. The event loop
    // stays single-threaded; the pool only accelerates each speaker's
    // decode/decision stages inside a flush, so delivery order is untouched.
    if (speaker_pool_ == nullptr) {
      speaker_pool_ = std::make_unique<util::ThreadPool>(options_.speaker_threads);
    }
    node.speaker->set_parallel(speaker_pool_.get());
  }
  if (options_.causal != nullptr) {
    node.speaker->set_causal(options_.causal);
    // Speakers stamp spans in sim time. The lambda pins `this` — like the
    // Link back-pointers, the network must not move once ASes exist.
    node.speaker->set_clock([this] { return events_.now(); });
  }
  auto [it, inserted] = nodes_.emplace(asn, std::move(node));
  return *it->second.speaker;
}

core::DbgpSpeaker& DbgpNetwork::speaker(bgp::AsNumber asn) {
  auto it = nodes_.find(asn);
  if (it == nodes_.end()) throw std::out_of_range("no AS " + std::to_string(asn));
  return *it->second.speaker;
}

const core::DbgpSpeaker& DbgpNetwork::speaker(bgp::AsNumber asn) const {
  auto it = nodes_.find(asn);
  if (it == nodes_.end()) throw std::out_of_range("no AS " + std::to_string(asn));
  return *it->second.speaker;
}

bool DbgpNetwork::has_as(bgp::AsNumber asn) const noexcept { return nodes_.count(asn) > 0; }

// -- Links --------------------------------------------------------------------

Link& DbgpNetwork::add_link(bgp::AsNumber a, bgp::AsNumber b, bool same_island,
                            double latency) {
  if (latency < 0) latency = options_.default_latency;
  const auto key = link_key(a, b);
  if (links_.count(key) > 0) {
    throw std::invalid_argument("link AS" + std::to_string(a) + "-AS" + std::to_string(b) +
                                " already exists; use Link::set_state to re-establish it");
  }
  Node& node_a = nodes_.at(a);
  Node& node_b = nodes_.at(b);
  auto owned = std::unique_ptr<Link>(new Link(this, key.first, key.second, latency, same_island));
  Link* link = owned.get();
  links_.emplace(key, std::move(owned));
  // Peer ids are adjacency indices: add_peer and the adjacency push stay in
  // lockstep, and the entries persist across flaps, so a re-established
  // session reuses its original peer id on both sides.
  const bgp::PeerId id_ab = node_a.speaker->add_peer(b, same_island);
  const bgp::PeerId id_ba = node_b.speaker->add_peer(a, same_island);
  node_a.adjacencies.push_back({b, link});
  node_b.adjacencies.push_back({a, link});
  // Exchange current tables (the initial-sync a real session performs).
  dispatch(a, node_a.speaker->sync_peer(id_ab));
  dispatch(b, node_b.speaker->sync_peer(id_ba));
  return *link;
}

Link& DbgpNetwork::link(bgp::AsNumber a, bgp::AsNumber b) {
  auto it = links_.find(link_key(a, b));
  if (it == links_.end()) {
    throw std::out_of_range("no link AS" + std::to_string(a) + "-AS" + std::to_string(b));
  }
  return *it->second;
}

Link* DbgpNetwork::find_link(bgp::AsNumber a, bgp::AsNumber b) noexcept {
  auto it = links_.find(link_key(a, b));
  return it == links_.end() ? nullptr : it->second.get();
}

std::vector<Link*> DbgpNetwork::links() {
  std::vector<Link*> out;
  out.reserve(links_.size());
  for (auto& [key, link] : links_) out.push_back(link.get());
  return out;
}

void DbgpNetwork::on_link_state(Link& link, LinkState state) {
  if (link.state_ == state) return;
  link.state_ = state;
  const telemetry::SpanId cause =
      chaos_instant(link.a_, link.b_, state == LinkState::kDown ? "link_down" : "link_up");
  note_disruption(cause);
  // Both session endpoints see the transition; one event per end keeps the
  // journal greppable by AS.
  log_event(state == LinkState::kDown ? "session_down" : "session_up", link.a_, link.b_,
            state == LinkState::kDown ? "link_down" : "link_up", cause);
  log_event(state == LinkState::kDown ? "session_down" : "session_up", link.b_, link.a_,
            state == LinkState::kDown ? "link_down" : "link_up", cause);
  const bgp::AsNumber ends[2] = {link.a_, link.b_};
  if (state == LinkState::kDown) {
    ++link.stats_.flaps;
    ++churn_.link_flaps;
    NetworkMetrics::get().link_down->inc();
    for (const bgp::AsNumber asn : ends) {
      Node& node = nodes_.at(asn);
      if (!node.up) continue;
      const bgp::PeerId peer = peer_id(asn, link.other(asn));
      // Frames staged under batching may have come over this link; run the
      // pending decisions now, so the later flush cannot re-decide from
      // adj-in state that peer_down is about to purge. (The old disconnect()
      // skipped this and left stale routes selected until the next flush.)
      if (node.speaker->pending_batch() > 0) dispatch(asn, node.speaker->flush());
      dispatch(asn, node.speaker->peer_down(peer, cause));
    }
  } else {
    NetworkMetrics::get().link_up->inc();
    for (const bgp::AsNumber asn : ends) {
      Node& node = nodes_.at(asn);
      // Sessions only come up between live nodes; restart() completes the
      // handshake for links that rose while an endpoint was down.
      if (!node.up || !nodes_.at(link.other(asn)).up) continue;
      dispatch(asn, node.speaker->peer_up(peer_id(asn, link.other(asn)), cause));
    }
  }
}

// -- Node churn ---------------------------------------------------------------

void DbgpNetwork::crash(bgp::AsNumber asn) {
  Node& node = nodes_.at(asn);
  if (!node.up) return;
  const telemetry::SpanId cause = chaos_instant(asn, 0, "crash");
  note_disruption(cause);
  log_event("chaos", asn, 0, "crash", cause);
  node.up = false;
  ++churn_.crashes;
  NetworkMetrics::get().crashes->inc();
  // Every live neighbor sees its session drop; frames already in flight
  // toward the crashed node are discarded on arrival (deliver checks node
  // liveness).
  for (const auto& adj : node.adjacencies) {
    if (adj.link == nullptr || !adj.link->up()) continue;
    Node& neighbor = nodes_.at(adj.neighbor);
    if (!neighbor.up) continue;
    const bgp::PeerId peer = peer_id(adj.neighbor, asn);
    if (neighbor.speaker->pending_batch() > 0) dispatch(adj.neighbor, neighbor.speaker->flush());
    dispatch(adj.neighbor, neighbor.speaker->peer_down(peer, cause));
  }
}

void DbgpNetwork::restart(bgp::AsNumber asn) { reboot(asn, nullptr); }

void DbgpNetwork::restart_warm(bgp::AsNumber asn,
                               const core::DbgpSpeaker::SpeakerState& state) {
  reboot(asn, &state);
}

void DbgpNetwork::reboot(bgp::AsNumber asn, const core::DbgpSpeaker::SpeakerState* checkpoint) {
  Node& node = nodes_.at(asn);
  if (node.up) return;
  const bool warm = checkpoint != nullptr;
  const telemetry::SpanId cause = chaos_instant(asn, 0, "restart", warm ? "warm" : "");
  note_disruption(cause);
  log_event("chaos", asn, 0, warm ? "restart-warm" : "restart", cause);
  node.up = true;
  ++churn_.restarts;
  NetworkMetrics::get().restarts->inc();
  if (warm) {
    // The checkpointed RIB comes back instead of a wipe. adj-out is dropped
    // — peers purged their adj-in from us at session loss, so the table
    // syncs below must not be delta-suppressed against pre-crash frames.
    node.speaker->restore_state(*checkpoint, /*keep_adj_out=*/false);
  } else {
    // Cold boot from config: all learned state is gone; only originated
    // prefixes, modules, filters, and the peer roster survive.
    node.speaker->reset_routes();
  }
  // Align session state with current link/neighbor liveness. On a restored
  // table peer_up is the full-table re-announcement and peer_down prunes
  // checkpoint entries whose sessions died while we were down; on a wiped
  // table both return nothing.
  for (bgp::PeerId peer = 0; peer < node.adjacencies.size(); ++peer) {
    const auto& adj = node.adjacencies[peer];
    const bool viable =
        adj.link != nullptr && adj.link->up() && nodes_.at(adj.neighbor).up;
    dispatch(asn, viable ? node.speaker->peer_up(peer, cause)
                         : node.speaker->peer_down(peer, cause));
  }
  // A cold boot re-announces our own prefixes.
  if (!warm) dispatch(asn, node.speaker->reevaluate_all(cause));
  // Every live neighbor re-sends its table over the re-established session:
  // the refresh that re-fills a wiped RIB, and replaces checkpoint entries
  // that went stale during the outage.
  for (const auto& adj : node.adjacencies) {
    if (adj.link == nullptr || !adj.link->up()) continue;
    Node& neighbor = nodes_.at(adj.neighbor);
    if (!neighbor.up) continue;
    dispatch(adj.neighbor, neighbor.speaker->peer_up(peer_id(adj.neighbor, asn), cause));
  }
}

// -- Control plane ------------------------------------------------------------

void DbgpNetwork::originate(bgp::AsNumber asn, const net::Prefix& prefix) {
  dispatch(asn, nodes_.at(asn).speaker->originate(prefix));
}

void DbgpNetwork::withdraw(bgp::AsNumber asn, const net::Prefix& prefix) {
  dispatch(asn, nodes_.at(asn).speaker->withdraw_origin(prefix));
}

void DbgpNetwork::set_speaker_threads(std::size_t threads) {
  if (threads == 0) threads = 1;
  for (const auto& [asn, node] : nodes_) {
    if (node.speaker->pending_batch() > 0) {
      throw std::runtime_error("AS " + std::to_string(asn) +
                               " has staged frames; drain (run/step) before "
                               "changing speaker-threads");
    }
  }
  options_.speaker_threads = threads;
  // Detach every speaker before the old pool dies; reattach below.
  for (auto& [asn, node] : nodes_) node.speaker->set_parallel(nullptr);
  if (threads <= 1) {
    speaker_pool_.reset();
    return;
  }
  if (speaker_pool_ == nullptr || speaker_pool_->size() != threads) {
    speaker_pool_.reset();
    speaker_pool_ = std::make_unique<util::ThreadPool>(threads);
  }
  for (auto& [asn, node] : nodes_) node.speaker->set_parallel(speaker_pool_.get());
}

bgp::AsNumber DbgpNetwork::peer_as_of(bgp::AsNumber asn, bgp::PeerId peer) const {
  return nodes_.at(asn).adjacencies.at(peer).neighbor;
}

bgp::PeerId DbgpNetwork::peer_id(bgp::AsNumber a, bgp::AsNumber b) const {
  const auto& adjacencies = nodes_.at(a).adjacencies;
  for (bgp::PeerId id = 0; id < adjacencies.size(); ++id) {
    if (adjacencies[id].neighbor == b) return id;
  }
  return bgp::kInvalidPeer;
}

void DbgpNetwork::dispatch(bgp::AsNumber origin_asn, std::vector<core::DbgpOutgoing> outgoing) {
  telemetry::CausalTracer* causal = options_.causal;
  Node& node = nodes_.at(origin_asn);
  // Deferred-decode speakers reject undecodable frames at drain time instead
  // of throwing from enqueue_frame; fold those into the same churn counters
  // the eager path's catch in deliver() feeds, so run stats match at any
  // thread count. Every speaker call that can drain is followed by a
  // dispatch of its output, which makes this the one collection point.
  if (const std::uint64_t rejected = node.speaker->take_deferred_rejects(); rejected > 0) {
    churn_.frames_rejected += rejected;
    NetworkMetrics::get().frames_rejected->inc(rejected);
    DBGP_LOG(util::LogLevel::kDebug, kLog)
        << "AS" << origin_asn << " rejected " << rejected << " staged frame(s) at drain";
  }
  for (auto& msg : outgoing) {
    auto& adj = node.adjacencies.at(msg.peer);
    Link* link = adj.link;
    if (link == nullptr || !link->up()) {
      // The frame never makes the wire; close its span where it died.
      if (causal != nullptr && msg.span != 0) {
        causal->annotate(msg.span, "dropped:link-down");
        causal->end_span(msg.span, events_.now());
      }
      continue;
    }
    const bgp::AsNumber to = adj.neighbor;
    const FaultProfile& faults = link->faults_;
    if (!faults.any()) {
      // Fault-free fast path: no RNG draws, so runs without chaos remain
      // bit-identical to the pre-chaos simulator.
      schedule_frame(origin_asn, to, std::move(msg.frame), link->latency_, msg.span);
      continue;
    }
    // Faults are decided at dispatch (send) time from the link's private
    // stream, before the delivery-mode choice, so a schedule replays
    // identically in immediate and batched modes. Fault draws annotate the
    // frame's span, so a trace shows *why* a hop misbehaved.
    util::Rng& rng = link->fault_rng_;
    if (faults.loss > 0.0 && rng.next_double() < faults.loss) {
      ++link->stats_.frames_lost;
      ++churn_.frames_lost;
      NetworkMetrics::get().frames_lost->inc();
      if (causal != nullptr && msg.span != 0) {
        causal->annotate(msg.span, "lost");
        causal->end_span(msg.span, events_.now());
      }
      continue;
    }
    ia::SharedFrame frame = std::move(msg.frame);
    if (faults.corrupt > 0.0 && rng.next_double() < faults.corrupt) {
      frame = ia::make_shared_frame(corrupt_frame(*frame, rng));
      ++link->stats_.frames_corrupted;
      ++churn_.frames_corrupted;
      NetworkMetrics::get().frames_corrupted->inc();
      if (causal != nullptr) causal->annotate(msg.span, "corrupted");
    }
    double delay = link->latency_;
    if (faults.reorder > 0.0 && rng.next_double() < faults.reorder) {
      // Extra delay pushes this frame past later ones on the same link.
      delay += faults.reorder_delay;
      ++link->stats_.frames_reordered;
      ++churn_.frames_reordered;
      NetworkMetrics::get().frames_reordered->inc();
      if (causal != nullptr) causal->annotate(msg.span, "reordered");
    }
    const bool duplicate = faults.duplicate > 0.0 && rng.next_double() < faults.duplicate;
    if (duplicate) {
      ++link->stats_.frames_duplicated;
      ++churn_.frames_duplicated;
      NetworkMetrics::get().frames_duplicated->inc();
      if (causal != nullptr) causal->annotate(msg.span, "duplicated");
      // Both copies share the span; end_span is last-delivery-wins.
      schedule_frame(origin_asn, to, frame, delay, msg.span);
    }
    schedule_frame(origin_asn, to, std::move(frame), delay, msg.span);
  }
}

void DbgpNetwork::schedule_frame(bgp::AsNumber from, bgp::AsNumber to, ia::SharedFrame frame,
                                 double delay, telemetry::SpanId span) {
  NetworkMetrics::get().messages_in_flight->add(1);
  ++in_flight_;
  // The refcounted frame rides along in flight: a fan-out to N neighbors
  // schedules N events over the same bytes, no copies.
  events_.schedule_in(delay, [this, from, to, span, frame = std::move(frame)]() {
    deliver(from, to, frame, options_.delivery, span);
  });
}

void DbgpNetwork::deliver(bgp::AsNumber from, bgp::AsNumber to, const ia::SharedFrame& frame,
                          DeliveryMode mode, telemetry::SpanId span) {
  NetworkMetrics::get().messages_in_flight->add(-1);
  if (--in_flight_ == 0) last_zero_ = events_.now();
  // Sim-time sampling rides the delivery loop; the sampler's own interval
  // check keeps this to one comparison per frame between samples.
  if (options_.sampler != nullptr) options_.sampler->sample(events_.now());
  telemetry::CausalTracer* causal = options_.causal;
  // The wire transit ends here whether or not the receiver accepts the
  // frame; rejection reasons are annotated below.
  if (causal != nullptr && span != 0) causal->end_span(span, events_.now());
  auto it = nodes_.find(to);
  if (it == nodes_.end() || !it->second.up) {
    if (causal != nullptr) causal->annotate(span, "dropped:node-down");
    return;
  }
  const bgp::PeerId peer = peer_id(to, from);
  if (peer == bgp::kInvalidPeer) return;
  const Link* link = it->second.adjacencies[peer].link;
  if (link == nullptr || !link->up()) {
    if (causal != nullptr) causal->annotate(span, "dropped:link-down");
    return;
  }
  const std::vector<std::uint8_t>& bytes = *frame;
  NetworkMetrics::get().frames_delivered->inc();
  NetworkMetrics::get().bytes_delivered->inc(bytes.size());
  try {
    if (mode == DeliveryMode::kImmediate) {
      dispatch(to, it->second.speaker->handle_frame(peer, bytes, span));
      return;
    }
    // Stage now; decide once per touched prefix when this node's coalesced
    // flush fires (same timestamp, after every same-time delivery). Handing
    // over the refcounted frame lets deferred-decode speakers stage the
    // wire bytes without a copy.
    dispatch(to, it->second.speaker->enqueue_frame(peer, frame, span));
    events_.schedule_coalesced(to, 0.0, [this, to] { flush_node(to); });
  } catch (const util::DecodeError& e) {
    // The decode throw fires before any adj-in mutation, so a mangled frame
    // is rejected without poisoning the receiver's state. Expected under an
    // active corruption profile; an error otherwise.
    ++churn_.frames_rejected;
    NetworkMetrics::get().frames_rejected->inc();
    if (causal != nullptr) causal->annotate(span, "rejected:decode-error");
    const auto level = link->faults_.corrupt > 0.0 ? util::LogLevel::kDebug
                                                   : util::LogLevel::kError;
    DBGP_LOG(level, kLog) << "AS" << to << " failed to decode frame from AS" << from << ": "
                          << e.what();
  }
}

void DbgpNetwork::flush_node(bgp::AsNumber asn) {
  auto it = nodes_.find(asn);
  if (it == nodes_.end() || !it->second.up) return;
  if (options_.causal != nullptr && it->second.speaker->pending_batch() > 0) {
    options_.causal->instant(telemetry::SpanKind::kFlush, 0, events_.now(),
                             asn, 0, "flush");
  }
  dispatch(asn, it->second.speaker->flush());
}

void DbgpNetwork::log_event(std::string kind, std::uint32_t as, std::uint32_t peer_as,
                            std::string detail, telemetry::SpanId span) {
  if (options_.event_log == nullptr) return;
  options_.event_log->record(events_.now(), std::move(kind), as, peer_as, std::move(detail),
                             span);
}

telemetry::SpanId DbgpNetwork::chaos_instant(std::uint32_t as, std::uint32_t peer_as,
                                             std::string_view name, std::string detail) {
  if (options_.causal == nullptr) return 0;
  return options_.causal->instant(telemetry::SpanKind::kChaos, 0, events_.now(), as,
                                  peer_as, name, /*prefix=*/{}, std::move(detail));
}

// -- Re-convergence clock -----------------------------------------------------

void DbgpNetwork::note_disruption(telemetry::SpanId cause) {
  // A window that already settled (in-flight back to zero) is committed
  // before the new one opens; overlapping disruptions merge into one window.
  if (disruption_open_ && in_flight_ == 0 && last_zero_ > disruption_start_) {
    close_disruption_window();
  }
  if (!disruption_open_) {
    disruption_open_ = true;
    disruption_start_ = events_.now();
    window_cause_ = cause;
  }
}

void DbgpNetwork::close_disruption_window() {
  if (!disruption_open_) return;
  disruption_open_ = false;
  const double end = std::max(last_zero_, disruption_start_);
  NetworkMetrics::get().reconvergence->record(end - disruption_start_);
  if (options_.event_log != nullptr) {
    // Stamped at the window's end (when the last in-flight frame settled),
    // not at the drain that detected it.
    char detail[64];
    std::snprintf(detail, sizeof(detail), "start=%.6f duration=%.6f", disruption_start_,
                  end - disruption_start_);
    options_.event_log->record(end, "reconvergence", 0, 0, detail, window_cause_);
  }
  if (options_.causal != nullptr) {
    const telemetry::SpanId w =
        options_.causal->begin_span(telemetry::SpanKind::kWindow, window_cause_,
                                    disruption_start_, 0, 0, "reconvergence");
    options_.causal->end_span(w, end);
  }
  window_cause_ = 0;
}

void DbgpNetwork::inject(bgp::AsNumber from, std::vector<core::DbgpOutgoing> outgoing) {
  dispatch(from, std::move(outgoing));
}

RunStats DbgpNetwork::run_until(double until, std::size_t max_events) {
  RunStats stats = events_.run_until(until, max_events);
  events_.advance_to(until);
  // Close the sampling gap a sparse event schedule leaves: the history ends
  // at `until`, not at the last delivered frame.
  if (options_.sampler != nullptr) options_.sampler->sample(until);
  return with_churn(stats);
}

RunStats DbgpNetwork::run_to_convergence(std::size_t max_events) {
  RunStats stats = events_.run(max_events);
  if (!stats.capped) close_disruption_window();
  if (options_.sampler != nullptr) options_.sampler->sample(events_.now());
  return with_churn(stats);
}

RunStats DbgpNetwork::with_churn(RunStats stats) const {
  stats.link_flaps = churn_.link_flaps;
  stats.crashes = churn_.crashes;
  stats.restarts = churn_.restarts;
  stats.frames_lost = churn_.frames_lost;
  stats.frames_duplicated = churn_.frames_duplicated;
  stats.frames_reordered = churn_.frames_reordered;
  stats.frames_corrupted = churn_.frames_corrupted;
  stats.frames_rejected = churn_.frames_rejected;
  return stats;
}

std::vector<bgp::AsNumber> DbgpNetwork::as_numbers() const {
  std::vector<bgp::AsNumber> out;
  out.reserve(nodes_.size());
  for (const auto& [asn, node] : nodes_) out.push_back(asn);
  return out;
}

}  // namespace dbgp::simnet
