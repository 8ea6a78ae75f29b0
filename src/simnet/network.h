// DbgpNetwork: hosts one DbgpSpeaker per AS on the event queue and moves
// frames between them over latency links — the MiniNeXT stand-in for the
// paper's deployment experiments (Section 6.1, Figure 8).
//
// Every byte crossing a link is a real serialized frame: speakers encode and
// decode IAs exactly as they would on the wire, so the experiments exercise
// the full codec and pipeline, not shortcuts.
//
// Links are first-class objects (simnet/link.h): `add_link` returns a Link&
// whose state and FaultProfile drive session churn and per-frame faults;
// nodes can crash() and restart() (restart clears the speaker's RIB/IA-DB
// and re-learns from peers via full-table sync). One Options struct carries
// the knobs that used to be scattered setters, and both delivery modes go
// through the single deliver(frame, DeliveryMode) entry point so a chaos
// schedule interleaves identically whether processing is immediate or
// batched.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/lookup_service.h"
#include "core/speaker.h"
#include "simnet/event_queue.h"
#include "simnet/link.h"
#include "telemetry/event_log.h"
#include "telemetry/sampler.h"
#include "util/thread_pool.h"

namespace dbgp::simnet {

class DbgpNetwork {
 public:
  struct Options {
    double default_latency = 0.010;
    // Frame processing at the receiver; see DeliveryMode. Immediate keeps
    // the deployment scenarios' traces bit-identical to the pre-batching
    // pipeline.
    DeliveryMode delivery = DeliveryMode::kImmediate;
    // Causal tracer, the run's one recorder: originations mint traces,
    // frames carry parent spans stamped with their per-hop facts (wire size,
    // carried protocols, understood or passed through), decisions emit audit
    // records, and chaos events land on the same timeline
    // (telemetry/causal.h). Unset = zero overhead: speakers mint no ids and
    // the delivery path takes no extra branches beyond one null check.
    telemetry::CausalTracer* causal = nullptr;
    // Time-series sampler: the delivery loop ticks it at event granularity
    // (the sampler enforces its own minimum interval), so metric histories
    // advance in sim time without a separate timer event. Unset = one null
    // check per delivery.
    telemetry::TimeSeriesSampler* sampler = nullptr;
    // Structured event journal: session up/down transitions, chaos events,
    // and reconvergence windows are recorded as JSONL-ready events carrying
    // the causal span of their trigger (telemetry/event_log.h).
    telemetry::EventLog* event_log = nullptr;
    // Worker threads for each speaker's sharded batch pipeline
    // (DbgpSpeaker::set_parallel). 0/1 = fully sequential (no pool is
    // created). >1 takes effect only under DeliveryMode::kBatched — the
    // immediate path processes one frame at a time and has no batch to
    // shard. The speakers' plan/commit split keeps emitted frames, RIBs,
    // and audits bit-identical at any value, so this is a pure throughput
    // knob. All speakers share one network-owned pool; shard count defaults
    // to the pool size.
    std::size_t speaker_threads = 1;
  };

  // Two overloads instead of one defaulted Options argument: a nested
  // class's member initializers are unusable as a default argument before
  // the enclosing class is complete.
  explicit DbgpNetwork(core::LookupService* lookup = nullptr) : lookup_(lookup) {}
  DbgpNetwork(core::LookupService* lookup, Options options)
      : lookup_(lookup), options_(options) {}

  // Adds an AS running a D-BGP speaker with the given config. The AS number
  // in `config` must be unique within the network.
  core::DbgpSpeaker& add_as(core::DbgpConfig config);
  core::DbgpSpeaker& speaker(bgp::AsNumber asn);
  const core::DbgpSpeaker& speaker(bgp::AsNumber asn) const;
  bool has_as(bgp::AsNumber asn) const noexcept;

  // -- Links ----------------------------------------------------------------
  // Creates the link and establishes the peering sessions (each side
  // registers the other as a peer and syncs its table). `same_island` marks
  // an intra-island adjacency (egress filters are skipped over it). One link
  // per AS pair: reconnects go through Link::set_state, not a second
  // add_link.
  Link& add_link(bgp::AsNumber a, bgp::AsNumber b, bool same_island = false,
                 double latency = -1.0);
  // The link between two ASes; throws std::out_of_range if absent.
  Link& link(bgp::AsNumber a, bgp::AsNumber b);
  // nullptr instead of throwing.
  Link* find_link(bgp::AsNumber a, bgp::AsNumber b) noexcept;
  // Every link, ordered by normalized (min, max) endpoint pair.
  std::vector<Link*> links();

  // -- Node churn -----------------------------------------------------------
  // Crashes an AS: its sessions drop (every live neighbor purges what it
  // learned from it), and frames in flight toward it are lost. The speaker
  // object survives but is unreachable until restart().
  void crash(bgp::AsNumber asn);
  // Restarts a crashed AS: the speaker's learned state is wiped
  // (DbgpSpeaker::reset_routes), it re-announces its originated prefixes,
  // and every live neighbor re-syncs its full table over the restored
  // sessions.
  void restart(bgp::AsNumber asn);
  // Graceful restart: like restart(), but the speaker re-learns from `state`
  // (a SpeakerState checkpointed before the crash) instead of a cold RIB
  // wipe. The warm speaker re-announces its whole table over the restored
  // sessions (its adj-out is dropped, since peers purged everything at
  // session loss), and neighbors still refresh theirs, which replaces any
  // checkpoint entries that went stale while the node was down. Unlike a
  // cold restart the node holds its routes throughout — no transient
  // unreachability between restart and re-sync.
  void restart_warm(bgp::AsNumber asn, const core::DbgpSpeaker::SpeakerState& state);
  bool node_up(bgp::AsNumber asn) const { return nodes_.at(asn).up; }

  // Originates a prefix at an AS and queues the resulting advertisements.
  void originate(bgp::AsNumber asn, const net::Prefix& prefix);
  void withdraw(bgp::AsNumber asn, const net::Prefix& prefix);

  // Drains the event queue. The control plane has converged when the result
  // is not capped; a capped result means the max_events safety valve fired
  // with frames still in flight. The returned RunStats additionally carries
  // the network's cumulative churn counters (flaps, crashes, per-frame
  // faults) so chaos runs can be compared and replay-checked field by field.
  RunStats run_to_convergence(std::size_t max_events = 10'000'000);
  // Partial drain for a long-lived serving process: runs events with
  // timestamps <= `until`, then moves the clock to `until` even if the queue
  // drained early, so commands injected afterwards are stamped at the
  // scripted time. Does not close the reconvergence window (the disruption
  // may still be settling); a later full drain does.
  RunStats run_until(double until, std::size_t max_events = 10'000'000);
  // Hands speaker-produced frames to the wire. Runtime reconfiguration (the
  // route server's reload-policy / upgrade-protocol paths) calls speaker
  // methods directly and injects the resulting advertisements here.
  void inject(bgp::AsNumber from, std::vector<core::DbgpOutgoing> outgoing);

  Options& options() noexcept { return options_; }
  const Options& options() const noexcept { return options_; }

  // Live reconfiguration of Options::speaker_threads: resizes (or drops) the
  // shared pool and rewires every speaker. Refuses with std::runtime_error
  // while any speaker holds staged frames — a resize mid-flush would split
  // one logical batch across two pipeline configurations; flush first.
  // Determinism is unaffected either way (outputs are bit-identical at any
  // thread count); the refusal keeps the batch boundaries a replay sees
  // aligned with the reconfiguration timeline.
  void set_speaker_threads(std::size_t threads);
  std::size_t speaker_threads() const noexcept { return options_.speaker_threads; }

  EventQueue& events() noexcept { return events_; }
  core::LookupService* lookup() noexcept { return lookup_; }
  std::vector<bgp::AsNumber> as_numbers() const;

  // Resolves which AS a speaker's peer id refers to.
  bgp::AsNumber peer_as_of(bgp::AsNumber asn, bgp::PeerId peer) const;
  // Peer id of `b` as seen from `a`; kInvalidPeer if not adjacent.
  bgp::PeerId peer_id(bgp::AsNumber a, bgp::AsNumber b) const;

 private:
  friend class Link;

  struct Node {
    std::unique_ptr<core::DbgpSpeaker> speaker;
    bool up = true;
    // peer id -> the neighbor and the link carrying the session. One entry
    // per neighbor for the node's lifetime; flaps reuse it.
    struct Adjacency {
      bgp::AsNumber neighbor = 0;
      Link* link = nullptr;
    };
    std::vector<Adjacency> adjacencies;
  };

  // Session-state transition for a link (called via Link::set_state).
  void on_link_state(Link& link, LinkState state);
  // The one body of restart() (no checkpoint: a cold wipe plus
  // re-origination) and restart_warm() (restore the checkpoint).
  void reboot(bgp::AsNumber asn, const core::DbgpSpeaker::SpeakerState* checkpoint);
  // `stats` plus the cumulative churn counters.
  RunStats with_churn(RunStats stats) const;
  // The single delivery entry point shared by both modes: link/node checks,
  // telemetry, tracing, and decode-failure rejection happen identically;
  // only the final hand-off differs (handle_frame vs enqueue + coalesced
  // flush).
  void deliver(bgp::AsNumber from, bgp::AsNumber to, const ia::SharedFrame& frame,
               DeliveryMode mode, telemetry::SpanId span);
  void flush_node(bgp::AsNumber asn);
  // Applies the out-link's fault profile and schedules delivery events.
  void dispatch(bgp::AsNumber origin_asn, std::vector<core::DbgpOutgoing> outgoing);
  void schedule_frame(bgp::AsNumber from, bgp::AsNumber to, ia::SharedFrame frame,
                      double delay, telemetry::SpanId span);
  // Records a chaos event on the causal timeline; returns its span (0 when
  // causal tracing is off) so session churn it provokes can chain to it.
  telemetry::SpanId chaos_instant(std::uint32_t as, std::uint32_t peer_as,
                                  std::string_view name, std::string detail = {});
  // Appends to Options::event_log (no-op when unset), stamped at sim now.
  void log_event(std::string kind, std::uint32_t as, std::uint32_t peer_as,
                 std::string detail, telemetry::SpanId span = 0);
  // Re-convergence clock: a disruption (flap/crash/restart) opens a window
  // that closes at the last time the in-flight frame count touched zero.
  // `cause` is the chaos span of the disruption; the first one to open a
  // window becomes the window span's parent.
  void note_disruption(telemetry::SpanId cause = 0);
  void close_disruption_window();
  static std::pair<bgp::AsNumber, bgp::AsNumber> link_key(bgp::AsNumber a,
                                                          bgp::AsNumber b) noexcept {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  EventQueue events_;
  core::LookupService* lookup_;
  Options options_;
  // Shared worker pool for the speakers' sharded pipelines; created lazily
  // by the first add_as when options_.speaker_threads > 1. Lives above
  // nodes_ in declaration order so it outlives every speaker holding a
  // pointer to it.
  std::unique_ptr<util::ThreadPool> speaker_pool_;
  std::map<bgp::AsNumber, Node> nodes_;
  std::map<std::pair<bgp::AsNumber, bgp::AsNumber>, std::unique_ptr<Link>> links_;

  // Cumulative churn accounting, mirrored into RunStats on every
  // run_to_convergence (and into the telemetry registry as it happens).
  struct Churn {
    std::uint64_t link_flaps = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t frames_lost = 0;
    std::uint64_t frames_duplicated = 0;
    std::uint64_t frames_reordered = 0;
    std::uint64_t frames_corrupted = 0;
    std::uint64_t frames_rejected = 0;
  } churn_;

  // Re-convergence window state (see note_disruption).
  std::int64_t in_flight_ = 0;
  double last_zero_ = 0.0;
  bool disruption_open_ = false;
  double disruption_start_ = 0.0;
  // Chaos span of the disruption that opened the current window.
  telemetry::SpanId window_cause_ = 0;
};

}  // namespace dbgp::simnet
