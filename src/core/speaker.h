// DbgpSpeaker: the Beagle-equivalent D-BGP speaker (Figure 5).
//
// One speaker per AS (distributed control) or per island controller
// (centralized control). It implements the full IA-processing pipeline:
//
//   (1) global import filters (loop detection, operator policy)
//   (2) protocol extractor: picks the active decision module for the prefix
//   (3) the module's import filter stores/adjusts control info (IA DB)
//   (4) the module's path-selection algorithm picks the best path
//   (5) the module's export hook rewrites its control info
//   (6) the IA factory builds the new IA with pass-through of unused
//       protocols' control information
//   (7) global export filters (island abstraction / membership stamping)
//
// Dissemination is in-band (IA bytes in the frame — CF-R2's preferred mode)
// or out-of-band (frame carries only a notice; the full IA is stored in a
// LookupService, as Beagle did). Both paths exercise the same pipeline.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/decision_module.h"
#include "core/filters.h"
#include "core/ia_db.h"
#include "core/ia_factory.h"
#include "core/lookup_service.h"
#include "ia/codec.h"
#include "ia/descriptor_interner.h"
#include "ia/frame_cache.h"
#include "net/prefix_trie.h"
#include "telemetry/causal.h"
#include "telemetry/peer_metrics.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace dbgp::core {

enum class Dissemination { kInBand, kOutOfBand };

struct DbgpConfig {
  bgp::AsNumber asn = 0;
  net::Ipv4Address next_hop;
  // Invalid island => this AS is in a gulf (baseline-only, pass-through).
  ia::IslandId island;
  ia::ProtocolId island_protocol = ia::kProtoBgp;
  // Abstract away member ASes at egress (list island ID in the path vector).
  bool abstract_island = false;
  std::vector<bgp::AsNumber> island_members;
  Dissemination dissemination = Dissemination::kInBand;
  ia::CodecOptions codec;
  // Bound on the number of distinct prefixes staged via enqueue_frame before
  // an automatic flush (0 = unbounded, flush only on flush()).
  std::size_t max_batch = 256;
  // Default active protocol (per-prefix overrides via set_active_protocol).
  ia::ProtocolId active_protocol = ia::kProtoBgp;
};

// Wire frames exchanged between D-BGP peers (sessions are managed by the
// host network; Beagle similarly reused Quagga's session layer).
enum class FrameType : std::uint8_t { kAnnounce = 1, kWithdraw = 2, kNotice = 3 };

// An outgoing frame. The bytes are refcounted so one encoded advertisement
// fans out to N peers (and through the simulated network's in-flight
// messages) without N copies — see ia::FrameCache.
struct DbgpOutgoing {
  bgp::PeerId peer = bgp::kInvalidPeer;
  ia::SharedFrame frame;
  // Causal span of this frame's wire transit (0 when tracing is off). The
  // span is opened at emit time and closed by the transport at delivery.
  telemetry::SpanId span = 0;

  const std::vector<std::uint8_t>& bytes() const noexcept { return *frame; }
};

// Per-speaker counters. Every field is mirrored into the process-wide
// telemetry registry under "dbgp.speaker.<field>" (aggregated across
// speakers); the struct remains the cheap per-instance view.
struct DbgpStats {
  std::uint64_t ias_received = 0;
  std::uint64_t ias_sent = 0;
  std::uint64_t withdraws_received = 0;
  std::uint64_t withdraws_sent = 0;
  std::uint64_t dropped_by_global_filter = 0;
  std::uint64_t rejected_by_module = 0;  // kept for pass-through, not selected
  std::uint64_t lookup_fetches = 0;
  std::uint64_t lookup_misses = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class DbgpSpeaker {
 public:
  explicit DbgpSpeaker(DbgpConfig config, LookupService* lookup = nullptr);

  // Movable (the arena is heap-pinned and moves over with its unique_ptr)
  // but not move-assignable: member-wise move assignment would replace the
  // arena while arena-backed tables still reference it.
  DbgpSpeaker(DbgpSpeaker&&) noexcept = default;
  DbgpSpeaker& operator=(DbgpSpeaker&&) = delete;

  // -- Configuration -------------------------------------------------------
  bgp::PeerId add_peer(bgp::AsNumber peer_as, bool same_island = false);
  void add_module(std::unique_ptr<DecisionModule> module);
  DecisionModule* module(ia::ProtocolId protocol) const;
  // Sets the active protocol for an address range (longest match wins);
  // ranges default to config.active_protocol.
  void set_active_protocol(const net::Prefix& range, ia::ProtocolId protocol);
  ia::ProtocolId active_protocol_for(const net::Prefix& prefix) const;

  GlobalFilterChain& import_filters() noexcept { return import_filters_; }
  GlobalFilterChain& export_filters() noexcept { return export_filters_; }

  const DbgpConfig& config() const noexcept { return config_; }

  // -- Sharded parallel pipeline -------------------------------------------
  // Attaches a thread pool and partitions the prefix space into `shards`
  // table shards (0 = one per pool thread). Every decision is a plan, which
  // only reads speaker state, and a commit, the only place a decision
  // mutates anything (Loc-RIB, adj-out, stats, causal spans and audits,
  // out-of-band lookup puts). With an attached pool of size > 1 and more
  // than one shard, flush() runs as a pipeline: parallel frame decode,
  // sequential staging in arrival order, per-shard parallel planning (each
  // shard owns its slice of the batch and its own FrameCache, so planning
  // is lock-free within a shard), then the commits in global first-touch
  // order. Plans only read the pre-batch state, so the emitted frames, RIB
  // contents, stats, traces, and audits are bit-identical at every thread
  // count and shard count, traced or not, in either dissemination mode —
  // and identical to the plan-then-commit loop a single-threaded pool (or
  // no pool) runs.
  //
  // Module contract: better() / annotate_export() / annotate_origin() /
  // explain_better() run concurrently across shards and must not mutate
  // module state, except through atomics whose result does not depend on
  // order (WiserModule's advertised-cost sums); import_filter() and
  // on_best_changed() remain sequential and may. A decision's export hooks
  // run at plan time, before its own on_best_changed(). Every in-tree module
  // satisfies this.
  void set_parallel(util::ThreadPool* pool, std::size_t shards = 0);
  std::size_t shard_count() const noexcept { return shards_; }
  // True when the next flush will take the parallel path: the attached pool
  // is wider than one thread and there is more than one shard.
  bool parallel_active() const noexcept;
  // The shard owning a prefix (stable hash; independent of thread count).
  static std::size_t shard_of(const net::Prefix& prefix, std::size_t shards) noexcept;

  // -- Causal tracing -------------------------------------------------------
  // Attaches a causal tracer (nullptr disables — the default; every tracing
  // hook below is guarded so a disabled speaker does no extra work, mints no
  // ids, and renders no strings). `clock` supplies the timeline (sim time
  // under simnet); without one spans are stamped 0.
  void set_causal(telemetry::CausalTracer* tracer) noexcept { causal_ = tracer; }
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }
  telemetry::CausalTracer* causal() const noexcept { return causal_; }

  // The `cause` parameter on the entry points below is the caller's causal
  // span (the frame that arrived, the chaos event that forced the call);
  // 0 = no cause / tracing off.

  // -- Control-plane input/output -----------------------------------------
  std::vector<DbgpOutgoing> originate(const net::Prefix& prefix,
                                      telemetry::SpanId cause = 0);
  std::vector<DbgpOutgoing> withdraw_origin(const net::Prefix& prefix,
                                            telemetry::SpanId cause = 0);
  std::vector<DbgpOutgoing> handle_frame(bgp::PeerId from, std::span<const std::uint8_t> bytes,
                                         telemetry::SpanId cause = 0);
  // Convenience: feed a decoded IA as if announced by `from`.
  std::vector<DbgpOutgoing> handle_ia(bgp::PeerId from, ia::IntegratedAdvertisement ia,
                                      telemetry::SpanId cause = 0);

  // -- Batched input --------------------------------------------------------
  // Stages a frame (filters + IA DB update) without running the decision
  // process; prefixes accumulate in first-touch order until flush(). The
  // returned frames are empty except when the batch reaches config.max_batch
  // and auto-flushes. A burst of k updates for one prefix then costs one
  // decision + one encode instead of k.
  std::vector<DbgpOutgoing> enqueue_frame(bgp::PeerId from,
                                          std::span<const std::uint8_t> bytes,
                                          telemetry::SpanId cause = 0);
  // Refcounted-frame overload. In parallel mode with max_batch == 0 the
  // frame is staged raw (no copy, no decode) and decoded in parallel at
  // flush(); otherwise identical to the span overload.
  std::vector<DbgpOutgoing> enqueue_frame(bgp::PeerId from, ia::SharedFrame frame,
                                          telemetry::SpanId cause = 0);
  // Runs the decision process once per staged prefix (in first-touch order)
  // and returns the resulting frames. Call at quiescence.
  std::vector<DbgpOutgoing> flush();
  std::size_t pending_batch() const noexcept { return batch_.size() + staged_.size(); }
  // Frames the deferred-decode drain rejected as undecodable since the last
  // call (resets the count). The eager path throws util::DecodeError from
  // enqueue_frame instead; a caller that counts those rejections should add
  // this after each flush so the totals match at any thread count.
  std::uint64_t take_deferred_rejects() noexcept {
    const std::uint64_t n = deferred_rejects_;
    deferred_rejects_ = 0;
    return n;
  }
  // Session teardown: marks the peer down, purges its adj-in and adj-out in
  // one pass over the table, and re-runs decisions for the affected prefixes
  // in prefix order. While a peer is down no advertisement or withdraw is
  // emitted toward it (and adj-out stays empty), so a later peer_up()'s
  // full-table sync is never delta-suppressed by state staged during the
  // outage.
  std::vector<DbgpOutgoing> peer_down(bgp::PeerId peer, telemetry::SpanId cause = 0);
  // Session (re-)establishment: marks the peer up and returns the full-table
  // sync a real session performs on open.
  std::vector<DbgpOutgoing> peer_up(bgp::PeerId peer, telemetry::SpanId cause = 0);
  bool peer_is_up(bgp::PeerId peer) const { return peers_.at(peer).up; }
  // Crash recovery: drops all learned state (the whole route table — adj-in,
  // selected routes and adj-out — plus the staged batch, the frame cache,
  // and the interned descriptor tails they held) while keeping
  // configuration — originated prefixes, modules, filters, and the peer
  // roster survive like a config file across a reboot. Pair with
  // reevaluate_all() to re-announce local prefixes and with the peers' sync
  // to re-learn the rest.
  void reset_routes();
  // Sends the current table to a (newly established) peer.
  std::vector<DbgpOutgoing> sync_peer(bgp::PeerId peer);
  // Re-runs selection once per known prefix, learned or originated (after
  // activating a protocol).
  std::vector<DbgpOutgoing> reevaluate_all(telemetry::SpanId cause = 0);

  // -- Inspection -----------------------------------------------------------
  // Selected best route; nullptr if unreachable. Originated prefixes return
  // a synthetic route with from_peer == kInvalidPeer.
  const IaRoute* best(const net::Prefix& prefix) const;
  // Read-only view of the route table (one node per prefix).
  const RouteTable& routes() const noexcept { return routes_; }
  const ia::DescriptorInterner& descriptor_interner() const noexcept { return desc_interner_; }
  const util::RibArena& rib_arena() const noexcept { return *arena_; }
  const DbgpStats& stats() const noexcept { return stats_; }
  std::size_t peer_count() const noexcept { return peers_.size(); }
  bgp::AsNumber peer_as(bgp::PeerId peer) const { return peers_.at(peer).asn; }
  std::vector<net::Prefix> selected_prefixes() const;

  // Frame helpers (exposed for tests/benchmarks).
  static std::vector<std::uint8_t> encode_announce(const ia::IntegratedAdvertisement& ia,
                                                   const ia::CodecOptions& codec);
  static std::vector<std::uint8_t> encode_withdraw(const net::Prefix& prefix);
  static std::vector<std::uint8_t> encode_notice(const net::Prefix& prefix);

  // -- Snapshot / restore ---------------------------------------------------
  // Learned state as plain data, with every IA (and adj-out frame) as its
  // codec bytes, so the route server's snapshot format serializes speakers
  // without a parallel schema and a restore rebuilds byte-identical
  // advertisements (server/snapshot.h carries these records on the wire).
  struct RouteRecord {
    net::Prefix prefix;
    bgp::PeerId from_peer = bgp::kInvalidPeer;  // adj-out: the destination peer
    bgp::AsNumber neighbor_as = 0;
    std::uint64_t sequence = 0;
    bool eligible = true;
    std::vector<std::uint8_t> bytes;  // encoded IA (adj-in/selected) or frame (adj-out)
  };
  struct SpeakerState {
    std::vector<net::Prefix> originated;
    std::uint64_t sequence = 0;  // arrival counter; restored so later
                                 // tie-breaks continue deterministically
    std::vector<RouteRecord> adj_in;    // IA DB, peer order within prefix order
    std::vector<RouteRecord> selected;  // Loc-RIB
    std::vector<RouteRecord> adj_out;   // last advertisement per (peer, prefix)
  };
  // Serializes originated prefixes, the IA DB, the Loc-RIB, adj-out, and the
  // arrival counter. Configuration (peers, modules, filters) is not included:
  // it is rebuilt from declarations, like a config file across a reboot.
  SpeakerState export_state() const;
  // Replaces all learned state with `state` without running any decision or
  // emitting any frame — the restored Loc-RIB is byte-identical to the
  // exported one by construction. `keep_adj_out = false` drops the adj-out
  // (warm restart: peers purged our routes at session loss, so the next
  // sync_peer must not be delta-suppressed). Module-internal state is not
  // restored; it rebuilds as later decisions run. Throws util::DecodeError
  // on malformed IA bytes or on an adj-in or adj-out record naming a peer id
  // >= peer_count(), leaving the speaker wiped but consistent.
  void restore_state(const SpeakerState& state, bool keep_adj_out = true);

 private:
  struct Peer {
    bgp::AsNumber asn = 0;
    bool same_island = false;
    bool up = true;  // session state; down peers receive nothing
    // Prefixes whose frame sits in this peer's adj-out (the adj_out_depth
    // gauge).
    std::size_t adj_out_depth = 0;
  };

  // Pipeline stages 1-3 for one frame/IA (filters, extractor, IA DB).
  // Returns the prefix whose decision process must run, if any; shared by
  // the immediate (handle_frame) and batched (enqueue_frame) paths.
  std::optional<net::Prefix> stage_frame(bgp::PeerId from,
                                         std::span<const std::uint8_t> bytes,
                                         telemetry::SpanId cause);
  std::optional<net::Prefix> stage_ia(bgp::PeerId from, ia::IntegratedAdvertisement ia,
                                      telemetry::SpanId cause);
  void flush_into(std::vector<DbgpOutgoing>& out);
  DecisionModule* active_module(const net::Prefix& prefix) const;

  // One frame a committed decision sends `peer`; null = withdraw instead.
  struct PlannedEmit {
    bgp::PeerId peer = bgp::kInvalidPeer;
    ia::SharedFrame frame;
  };
  // One prefix's decision (stages 4-7), planned against the current state
  // and applied by commit_plan.
  struct DecisionPlan {
    net::Prefix prefix;
    DecisionModule* active = nullptr;
    // The winner: a candidate in the prefix's node (only this plan's own
    // commit can touch that node) or an owned origin route; neither =
    // unreachable.
    const IaRoute* learned = nullptr;
    std::optional<IaRoute> origin;
    bool changed = false;  // against the current Loc-RIB entry
    // One entry per up peer; every peer when a selected route is withdrawn.
    std::vector<PlannedEmit> emits;
    // Tracing only: the candidate verdicts and prev_path; commit_plan fills
    // in the rest from the installed Loc-RIB entry.
    telemetry::DecisionAudit audit;
  };
  // Best-path selection and the per-peer exports. Only reads speaker state
  // (plus `cache`), so the sharded flush runs it on pool threads.
  DecisionPlan plan_decision(const net::Prefix& prefix, ia::FrameCache& cache) const;
  // The decision span, Loc-RIB write, on_best_changed, audit, then
  // emit/withdraw_from_peer per entry. Callers run
  // commit_plan(plan_decision(prefix, frame_cache_), out); the sharded
  // flush plans a whole batch on the pool, then commits it in first-touch
  // order.
  void commit_plan(DecisionPlan&& plan, std::vector<DbgpOutgoing>& out);
  // The per-peer output of commit_plan and sync_peer: each updates the
  // node's adj-out, the sent counters, the frame span and (emit, out of
  // band) the lookup service. emit applies delta suppression.
  void withdraw_from_peer(RouteNode& node, bgp::PeerId peer, const net::Prefix& prefix,
                          std::vector<DbgpOutgoing>& out);
  void emit(RouteNode& node, bgp::PeerId peer, const net::Prefix& prefix,
            ia::SharedFrame frame, std::vector<DbgpOutgoing>& out);
  // Records `frame` as the node's last advertisement to `peer`, keeping the
  // peer's adj-out count and gauge; false when it repeats the stored frame.
  bool store_adj_out(RouteNode& node, bgp::PeerId peer, const ia::SharedFrame& frame);

  // The peer-invariant half of one decision's export (the factory base of
  // stage 6), built once and shared by every peer the decision fans out to.
  // `best` is the advertised route; from_peer == kInvalidPeer marks an
  // origin.
  struct ExportBase {
    const IaRoute& best;
    DecisionModule* active;
    ia::IntegratedAdvertisement ia;
  };
  ExportBase export_base(DecisionModule* active, const net::Prefix& prefix,
                         const IaRoute& best) const;
  // The per-peer half (stages 5-7 plus the cache lookup), shared by
  // plan_decision and sync_peer: the frame to send `peer`, or null when the
  // peer must be withdrawn instead (split horizon, or an export filter
  // dropped the IA). Peers in our own island skip the export filters.
  ia::SharedFrame export_frame(bgp::PeerId peer, const ExportBase& base,
                               ia::FrameCache& cache) const;

  // -- Parallel pipeline internals ------------------------------------------
  // A frame staged raw by enqueue_frame in deferred-decode mode; `ia` is
  // filled by the parallel decode stage for announce frames.
  struct StagedFrame {
    bgp::PeerId from = bgp::kInvalidPeer;
    ia::SharedFrame frame;
    telemetry::SpanId cause = 0;
    std::optional<ia::IntegratedAdvertisement> ia;
    // Decode failed (set by the decode stage, which must not throw across
    // pool threads); the staging loop skips the frame and counts it.
    bool bad = false;
  };
  bool defer_decode() const noexcept;
  // Decodes staged raw frames (parallel) and stages them in arrival order
  // (sequential), building batch_ exactly as eager staging would have.
  void drain_staged();

  DbgpConfig config_;
  LookupService* lookup_;
  IaFactory factory_;
  std::vector<Peer> peers_;
  // Labeled per-peer session counters ("dbgp.peer.*|as=..,peer=..");
  // parallel to peers_, resolved once at add_peer. Decisions update them
  // only in emit/withdraw_from_peer, which run at commit, so the shard
  // pipeline's bit-identity extends to the telemetry plane.
  std::vector<telemetry::PeerMetrics> peer_metrics_;
  std::vector<std::unique_ptr<DecisionModule>> modules_;
  net::PrefixTrie<ia::ProtocolId> active_ranges_;
  GlobalFilterChain import_filters_;
  GlobalFilterChain export_filters_;
  // Shard-local arena backing the route table below (DESIGN.md §14);
  // heap-pinned and declared before it so construction and destruction
  // order is right.
  std::unique_ptr<util::RibArena> arena_;
  // One node per prefix: candidates (adj-in), the selected route (Loc-RIB)
  // and adj-out. A commit erases the node it leaves empty.
  RouteTable routes_;
  // Canonicalizes descriptor tails across peers/prefixes; every IA entering
  // the route table passes through it (stage_ia, restore_state).
  ia::DescriptorInterner desc_interner_;
  // Locally originated prefixes and the root span of each origination (0 =
  // untraced). Survives reset_routes(): a reboot does not re-originate.
  std::map<net::Prefix, telemetry::SpanId> originated_;
  // Encode-once fan-out across peers (and across decisions that re-select
  // the same route).
  ia::FrameCache frame_cache_;
  // Prefixes staged by enqueue_frame, awaiting one decision each. The dedup
  // set is hashed, not ordered: it eats one insert per staged frame on the
  // batched hot path, and first-touch ordering lives in batch_ anyway.
  std::vector<net::Prefix> batch_;       // first-touch order
  std::unordered_set<net::Prefix, net::PrefixHash> batch_seen_;
  std::uint64_t sequence_ = 0;
  DbgpStats stats_;

  // -- Parallel pipeline state ----------------------------------------------
  util::ThreadPool* pool_ = nullptr;
  std::size_t shards_ = 1;
  // One FrameCache per shard: the cache's map is not thread-safe, but a
  // shard's prefixes are planned by exactly one task per flush.
  std::vector<ia::FrameCache> shard_caches_;
  // Raw frames awaiting the deferred parallel decode (max_batch == 0 only).
  std::vector<StagedFrame> staged_;
  // Undecodable staged frames dropped by drain_staged; see take_deferred_rejects.
  std::uint64_t deferred_rejects_ = 0;

  // -- Causal-tracing state (inert unless causal_ != nullptr) ---------------
  double trace_now() const { return clock_ ? clock_() : 0.0; }
  telemetry::CausalTracer* causal_ = nullptr;
  std::function<double()> clock_;
  // Span of the most recent staged update per prefix — becomes the parent of
  // that prefix's next decision run (covers both the immediate path and
  // batched coalescing, where the last of k staged updates wins).
  std::map<net::Prefix, telemetry::SpanId> pending_cause_;
  // Parent for frame spans minted by emit()/withdraw_from_peer(): the
  // decision span commit_plan just closed, or the synced route's via_span
  // in sync_peer.
  telemetry::SpanId emit_parent_ = 0;
  // Fallback decision parent for externally caused runs (peer_down after a
  // link cut, reevaluate_all after a protocol activation, ...).
  telemetry::SpanId external_cause_ = 0;
};

}  // namespace dbgp::core
