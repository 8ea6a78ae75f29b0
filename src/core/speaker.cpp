#include "core/speaker.h"

#include <algorithm>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/timer.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace dbgp::core {

namespace {
constexpr auto kLog = "dbgp.speaker";

// Registry mirrors of DbgpStats, aggregated across every speaker in the
// process (the per-speaker struct stays authoritative for tests). Pointers
// are resolved once; each update is a relaxed atomic add.
struct SpeakerMetrics {
  telemetry::Counter* ias_received;
  telemetry::Counter* ias_sent;
  telemetry::Counter* withdraws_received;
  telemetry::Counter* withdraws_sent;
  telemetry::Counter* dropped_by_global_filter;
  telemetry::Counter* rejected_by_module;
  telemetry::Counter* lookup_fetches;
  telemetry::Counter* lookup_misses;
  telemetry::Counter* bytes_sent;
  telemetry::Counter* bytes_received;
  telemetry::Histogram* frame_seconds;
  telemetry::Histogram* batch_size;

  static SpeakerMetrics& get() {
    static SpeakerMetrics m = [] {
      auto& reg = telemetry::MetricsRegistry::global();
      return SpeakerMetrics{&reg.counter("dbgp.speaker.ias_received"),
                            &reg.counter("dbgp.speaker.ias_sent"),
                            &reg.counter("dbgp.speaker.withdraws_received"),
                            &reg.counter("dbgp.speaker.withdraws_sent"),
                            &reg.counter("dbgp.speaker.dropped_by_global_filter"),
                            &reg.counter("dbgp.speaker.rejected_by_module"),
                            &reg.counter("dbgp.speaker.lookup_fetches"),
                            &reg.counter("dbgp.speaker.lookup_misses"),
                            &reg.counter("dbgp.speaker.bytes_sent"),
                            &reg.counter("dbgp.speaker.bytes_received"),
                            &reg.histogram("dbgp.speaker.frame_seconds"),
                            &reg.histogram(
                                "dbgp.speaker.batch_size",
                                telemetry::Histogram::exponential_bounds(1.0, 4096.0, 2.0))};
    }();
    return m;
  }
};

// Shard-pipeline telemetry (dbgp.shard.*). Stage wall times arrive through
// the thread pool's stage observer; the commit stage is timed directly since
// it never leaves the flushing thread.
struct ShardMetrics {
  telemetry::Counter* flushes;
  telemetry::Histogram* batch_size;       // per-shard slice of one flush
  telemetry::Gauge* imbalance_permille;   // max shard slice / mean, x1000
  telemetry::Histogram* commit_wall_s;

  static ShardMetrics& get() {
    static ShardMetrics m = [] {
      auto& reg = telemetry::MetricsRegistry::global();
      return ShardMetrics{
          &reg.counter("dbgp.shard.flushes"),
          &reg.histogram("dbgp.shard.batch_size",
                         telemetry::Histogram::exponential_bounds(1.0, 4096.0, 2.0)),
          &reg.gauge("dbgp.shard.imbalance_permille"),
          &reg.histogram("dbgp.shard.stage_wall_s.commit",
                         telemetry::Histogram::default_latency_bounds())};
    }();
    return m;
  }
};

// Pool stage observer: routes parallel_for_stage wall times into
// dbgp.shard.stage_wall_s.<stage> histograms. Name lookup is per flush, not
// per prefix, so the registry mutex is off the hot path.
void record_stage_wall(const char* stage, std::uint64_t wall_ns) {
  telemetry::MetricsRegistry::global()
      .histogram(std::string("dbgp.shard.stage_wall_s.") + stage,
                 telemetry::Histogram::default_latency_bounds())
      .record(static_cast<double>(wall_ns) * 1e-9);
}

// A peer's entry in a node's adj-out (sorted by peer id), or where it goes.
auto adj_out_slot(RouteNode& node, bgp::PeerId peer) {
  return std::ranges::lower_bound(node.adj_out, peer, {}, &RouteNode::AdjOutEntry::first);
}
}  // namespace

DbgpSpeaker::DbgpSpeaker(DbgpConfig config, LookupService* lookup)
    : config_(std::move(config)),
      lookup_(lookup),
      factory_(IaFactory::Params{config_.asn, config_.island, config_.next_hop,
                                 /*prepend_own_as=*/true}),
      arena_(std::make_unique<util::RibArena>()),
      routes_(arena_->resource()) {
  // Default global filters per Figure 5: unified loop detection on import;
  // island handling on export.
  import_filters_.add("loop-detection", loop_detection_filter());
  if (config_.island.valid()) {
    if (config_.abstract_island) {
      export_filters_.add("island-abstraction",
                          island_abstraction_filter(config_.island_members,
                                                    config_.island_protocol));
    } else {
      export_filters_.add("membership-stamp", membership_stamp_filter(config_.island_protocol));
    }
  }
}

bgp::PeerId DbgpSpeaker::add_peer(bgp::AsNumber peer_as, bool same_island) {
  peers_.push_back({peer_as, same_island});
  peer_metrics_.push_back(telemetry::PeerMetrics::create("dbgp.peer", config_.asn, peer_as));
  return static_cast<bgp::PeerId>(peers_.size() - 1);
}

void DbgpSpeaker::add_module(std::unique_ptr<DecisionModule> module) {
  modules_.push_back(std::move(module));
}

DecisionModule* DbgpSpeaker::module(ia::ProtocolId protocol) const {
  for (const auto& m : modules_) {
    if (m->protocol() == protocol) return m.get();
  }
  return nullptr;
}

void DbgpSpeaker::set_active_protocol(const net::Prefix& range, ia::ProtocolId protocol) {
  active_ranges_.insert(range, protocol);
}

ia::ProtocolId DbgpSpeaker::active_protocol_for(const net::Prefix& prefix) const {
  const ia::ProtocolId* assigned = active_ranges_.longest_match(prefix.address());
  return assigned != nullptr ? *assigned : config_.active_protocol;
}

DecisionModule* DbgpSpeaker::active_module(const net::Prefix& prefix) const {
  return module(active_protocol_for(prefix));
}

// -- Sharded parallel pipeline ------------------------------------------------

void DbgpSpeaker::set_parallel(util::ThreadPool* pool, std::size_t shards) {
  pool_ = pool;
  shards_ = pool_ == nullptr ? 1 : (shards == 0 ? pool_->size() : shards);
  if (shards_ == 0) shards_ = 1;
  shard_caches_.assign(shards_, ia::FrameCache{});
  if (pool_ != nullptr) pool_->set_stage_observer(&record_stage_wall);
}

std::size_t DbgpSpeaker::shard_of(const net::Prefix& prefix, std::size_t shards) noexcept {
  return shards <= 1 ? 0 : net::PrefixHash{}(prefix) % shards;
}

bool DbgpSpeaker::parallel_active() const noexcept {
  return pool_ != nullptr && pool_->size() > 1 && shards_ > 1;
}

bool DbgpSpeaker::defer_decode() const noexcept {
  // Deferred decode changes *when* staging runs, so it is confined to
  // explicit-flush configurations: with auto-flush (max_batch > 0) the
  // trigger counts staged prefixes, which requires staging at enqueue time.
  return parallel_active() && config_.max_batch == 0;
}

void DbgpSpeaker::drain_staged() {
  if (staged_.empty()) return;
  // Parallel decode: announce frames carry their IA inline; everything else
  // (withdraws, notices) is trivially cheap and decodes during staging.
  const auto decode_one = [this](std::size_t i) {
    StagedFrame& s = staged_[i];
    const auto& bytes = *s.frame;
    if (bytes.empty() || static_cast<FrameType>(bytes[0]) != FrameType::kAnnounce) return;
    try {
      s.ia.emplace(ia::decode_ia(std::span<const std::uint8_t>(bytes).subspan(1)));
    } catch (const util::DecodeError&) {
      // Corrupted frame (chaos profiles). The eager path throws out of
      // enqueue_frame per frame; here the error may surface on a pool
      // thread, so it is recorded and counted instead of thrown.
      s.bad = true;
    }
  };
  if (pool_ != nullptr && pool_->size() > 1) {
    pool_->parallel_for_stage("decode", 0, staged_.size(), 0, decode_one);
  } else {
    for (std::size_t i = 0; i < staged_.size(); ++i) decode_one(i);
  }
  // Sequential staging in arrival order: filters, sequence numbers, and the
  // IA DB upsert are order-sensitive and stay exactly as the eager path.
  for (StagedFrame& s : staged_) {
    std::optional<net::Prefix> prefix;
    if (s.bad) {
      // stage_frame counts bytes before decoding, so a rejected frame still
      // counts its wire bytes — identical to the eager path's stats.
      stats_.bytes_received += s.frame->size();
      SpeakerMetrics::get().bytes_received->inc(s.frame->size());
      peer_metrics_[s.from].rejects->inc();
      ++deferred_rejects_;
      continue;
    }
    try {
      if (s.ia.has_value()) {
        stats_.bytes_received += s.frame->size();
        SpeakerMetrics::get().bytes_received->inc(s.frame->size());
        prefix = stage_ia(s.from, std::move(*s.ia), s.cause);
      } else {
        prefix = stage_frame(s.from, *s.frame, s.cause);
      }
    } catch (const util::DecodeError&) {
      // Corrupted withdraw/notice (announce corruption was caught above).
      // One bad frame must not abort the rest of the drain: each eager
      // enqueue_frame call fails independently, so each staged frame does
      // too.
      ++deferred_rejects_;
      continue;
    }
    if (prefix && batch_seen_.insert(*prefix).second) batch_.push_back(*prefix);
  }
  staged_.clear();
}

// -- Frame codec -------------------------------------------------------------

std::vector<std::uint8_t> DbgpSpeaker::encode_announce(const ia::IntegratedAdvertisement& ia,
                                                       const ia::CodecOptions& codec) {
  util::ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(FrameType::kAnnounce));
  w.put_bytes(ia::encode_ia(ia, codec));
  return w.take();
}

namespace {
std::vector<std::uint8_t> encode_prefix_frame(FrameType type, const net::Prefix& prefix) {
  util::ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(type));
  net::put_prefix(w, prefix);
  return w.take();
}
}  // namespace

std::vector<std::uint8_t> DbgpSpeaker::encode_withdraw(const net::Prefix& prefix) {
  return encode_prefix_frame(FrameType::kWithdraw, prefix);
}

std::vector<std::uint8_t> DbgpSpeaker::encode_notice(const net::Prefix& prefix) {
  return encode_prefix_frame(FrameType::kNotice, prefix);
}

// -- Input -------------------------------------------------------------------

std::vector<DbgpOutgoing> DbgpSpeaker::handle_frame(bgp::PeerId from,
                                                    std::span<const std::uint8_t> bytes,
                                                    telemetry::SpanId cause) {
  telemetry::ScopedTimer frame_timer(SpeakerMetrics::get().frame_seconds);
  drain_staged();  // deferred frames arrived first; stage them first
  std::vector<DbgpOutgoing> out;
  out.reserve(peers_.size());
  if (auto prefix = stage_frame(from, bytes, cause)) {
    commit_plan(plan_decision(*prefix, frame_cache_), out);
  }
  return out;
}

std::vector<DbgpOutgoing> DbgpSpeaker::handle_ia(bgp::PeerId from,
                                                 ia::IntegratedAdvertisement ia,
                                                 telemetry::SpanId cause) {
  drain_staged();
  std::vector<DbgpOutgoing> out;
  out.reserve(peers_.size());
  if (auto prefix = stage_ia(from, std::move(ia), cause)) {
    commit_plan(plan_decision(*prefix, frame_cache_), out);
  }
  return out;
}

std::vector<DbgpOutgoing> DbgpSpeaker::enqueue_frame(bgp::PeerId from,
                                                     std::span<const std::uint8_t> bytes,
                                                     telemetry::SpanId cause) {
  if (defer_decode()) {
    return enqueue_frame(from, ia::make_shared_frame({bytes.begin(), bytes.end()}), cause);
  }
  telemetry::ScopedTimer frame_timer(SpeakerMetrics::get().frame_seconds);
  std::vector<DbgpOutgoing> out;
  if (auto prefix = stage_frame(from, bytes, cause)) {
    if (batch_seen_.insert(*prefix).second) batch_.push_back(*prefix);
  }
  if (config_.max_batch > 0 && batch_.size() >= config_.max_batch) flush_into(out);
  return out;
}

std::vector<DbgpOutgoing> DbgpSpeaker::enqueue_frame(bgp::PeerId from, ia::SharedFrame frame,
                                                     telemetry::SpanId cause) {
  if (defer_decode()) {
    staged_.push_back({from, std::move(frame), cause, std::nullopt});
    return {};
  }
  return enqueue_frame(from, std::span<const std::uint8_t>(*frame), cause);
}

std::vector<DbgpOutgoing> DbgpSpeaker::flush() {
  std::vector<DbgpOutgoing> out;
  flush_into(out);
  return out;
}

void DbgpSpeaker::flush_into(std::vector<DbgpOutgoing>& out) {
  drain_staged();
  if (batch_.empty()) return;
  SpeakerMetrics::get().batch_size->record(static_cast<double>(batch_.size()));
  if (parallel_active()) {
    ShardMetrics::get().flushes->inc();
    // Stage 2: per-shard decision planning. Each shard owns a slice of the
    // batch; plans read only the frozen pre-batch state (IA DB, Loc-RIB,
    // origination) plus their shard-private FrameCache, so no two tasks
    // touch the same mutable data.
    std::vector<std::vector<std::size_t>> shard_work(shards_);
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      shard_work[shard_of(batch_[i], shards_)].push_back(i);
    }
    std::size_t max_slice = 0;
    for (const auto& slice : shard_work) {
      ShardMetrics::get().batch_size->record(static_cast<double>(slice.size()));
      max_slice = std::max(max_slice, slice.size());
    }
    ShardMetrics::get().imbalance_permille->set(static_cast<std::int64_t>(
        max_slice * 1000 * shards_ / batch_.size()));
    std::vector<DecisionPlan> plans(batch_.size());
    pool_->parallel_for_stage("decision", 0, shards_, 1, [&](std::size_t s) {
      for (std::size_t idx : shard_work[s]) {
        plans[idx] = plan_decision(batch_[idx], shard_caches_[s]);
      }
    });
    // Stage 3: sequential commit in global first-touch order — the only
    // place shared state mutates, which is what makes the thread and shard
    // counts unobservable in the output.
    telemetry::ScopedTimer commit_timer(ShardMetrics::get().commit_wall_s);
    for (DecisionPlan& plan : plans) commit_plan(std::move(plan), out);
  } else {
    // First-touch order: decisions run in the order prefixes first appeared,
    // so a batched run remains deterministic for a given arrival sequence.
    for (const auto& prefix : batch_) commit_plan(plan_decision(prefix, frame_cache_), out);
  }
  batch_.clear();
  batch_seen_.clear();
}

std::optional<net::Prefix> DbgpSpeaker::stage_frame(bgp::PeerId from,
                                                    std::span<const std::uint8_t> bytes,
                                                    telemetry::SpanId cause) {
  stats_.bytes_received += bytes.size();
  SpeakerMetrics::get().bytes_received->inc(bytes.size());
  util::ByteReader r(bytes);
  // Undecodable input counts as a per-peer reject on every path: the eager
  // caller sees the throw, the deferred drain counts its own bad frames, and
  // both leave the same labeled counter value behind.
  try {
  const auto type = static_cast<FrameType>(r.get_u8());
  switch (type) {
    case FrameType::kAnnounce:
      return stage_ia(from, ia::decode_ia(r.get_bytes(r.remaining())), cause);
    case FrameType::kWithdraw: {
      const net::Prefix prefix = net::get_prefix(r);
      ++stats_.withdraws_received;
      SpeakerMetrics::get().withdraws_received->inc();
      peer_metrics_[from].withdraws_in->inc();
      // An emptied node stays until the decision this returns commits.
      const auto it = routes_.find(prefix);
      if (it != routes_.end() && it->second.candidates.erase(from) > 0) {
        if (causal_ != nullptr && cause != 0) pending_cause_[prefix] = cause;
        return prefix;
      }
      return std::nullopt;
    }
    case FrameType::kNotice: {
      const net::Prefix prefix = net::get_prefix(r);
      ++stats_.lookup_fetches;
      SpeakerMetrics::get().lookup_fetches->inc();
      if (lookup_ == nullptr) {
        ++stats_.lookup_misses;
        SpeakerMetrics::get().lookup_misses->inc();
        return std::nullopt;
      }
      const auto key =
          LookupService::ia_key(peers_.at(from).asn, config_.asn, prefix);
      auto stored = lookup_->get(key);
      if (!stored) {
        ++stats_.lookup_misses;
        SpeakerMetrics::get().lookup_misses->inc();
        DBGP_LOG(util::LogLevel::kWarn, kLog)
            << "AS" << config_.asn << ": notice for " << prefix.to_string()
            << " but lookup service has no IA under " << key;
        return std::nullopt;
      }
      return stage_ia(from, ia::decode_ia(*stored), cause);
    }
  }
  throw util::DecodeError("unknown D-BGP frame type");
  } catch (const util::DecodeError&) {
    peer_metrics_[from].rejects->inc();
    throw;
  }
}

std::optional<net::Prefix> DbgpSpeaker::stage_ia(bgp::PeerId from,
                                                 ia::IntegratedAdvertisement ia,
                                                 telemetry::SpanId cause) {
  ++stats_.ias_received;
  SpeakerMetrics::get().ias_received->inc();
  peer_metrics_[from].updates_in->inc();

  // The receiver's half of the frame span's per-hop stamp: the protocols
  // the IA carries, and whether this AS understands them (it runs a module
  // for its active protocol and the IA carries a descriptor of that
  // protocol) or passes them through.
  if (causal_ != nullptr && cause != 0) {
    std::string stamp = "protocols";
    char sep = '=';
    for (const ia::ProtocolId p : ia.protocols_on_path()) {
      stamp += sep;
      stamp += ia::default_registry().name(p);
      sep = '+';
    }
    const ia::ProtocolId active = active_protocol_for(ia.destination);
    const auto of_active = [active](const auto& d) { return d.protocol == active; };
    const bool understood =
        module(active) != nullptr &&
        (std::ranges::any_of(ia.path_descriptors(), of_active) ||
         std::ranges::any_of(ia.island_descriptors(), of_active));
    stamp += understood ? ",understood" : ",pass-through";
    causal_->annotate(cause, stamp);
  }

  // Stage 1: global import filters.
  FilterContext ctx;
  ctx.own_as = config_.asn;
  ctx.own_island = config_.island;
  ctx.peer = from;
  ctx.peer_as = peers_.at(from).asn;
  ctx.ingress = true;
  std::string rejected_by;
  if (!import_filters_.apply(ia, ctx, causal_ != nullptr ? &rejected_by : nullptr)) {
    ++stats_.dropped_by_global_filter;
    SpeakerMetrics::get().dropped_by_global_filter->inc();
    peer_metrics_[from].rejects->inc();
    telemetry::SpanId drop_span = 0;
    if (causal_ != nullptr) {
      drop_span = causal_->instant(telemetry::SpanKind::kFilter, cause, trace_now(),
                                   config_.asn, peers_.at(from).asn, "filter-drop",
                                   ia.destination.to_string(), std::move(rejected_by));
    }
    // A dropped IA acts as an implicit withdraw of the prior route.
    const auto it = routes_.find(ia.destination);
    if (it != routes_.end() && it->second.candidates.erase(from) > 0) {
      if (drop_span != 0) pending_cause_[ia.destination] = drop_span;
      return ia.destination;
    }
    return std::nullopt;
  }

  const net::Prefix prefix = ia.destination;

  // Stages 2-3: extractor picks the active module; its import filter runs.
  IaRoute route;
  route.ia = std::move(ia);
  route.from_peer = from;
  route.neighbor_as = peers_.at(from).asn;
  route.sequence = ++sequence_;
  route.via_span = cause;
  if (DecisionModule* active = active_module(prefix)) {
    route.eligible = active->import_filter(route);
    if (!route.eligible) {
      ++stats_.rejected_by_module;
      SpeakerMetrics::get().rejected_by_module->inc();
      peer_metrics_[from].rejects->inc();
    }
  }
  // Canonicalize the descriptor tail before storing: identical tails across
  // peers/prefixes collapse onto one shared arena, and the IA lets go of its
  // whole-frame receive buffer.
  desc_interner_.intern(route.ia);
  routes_.try_emplace(prefix).first->second.candidates.insert_or_assign(from, std::move(route));
  if (causal_ != nullptr && cause != 0) pending_cause_[prefix] = cause;
  return prefix;
}

std::vector<DbgpOutgoing> DbgpSpeaker::peer_down(bgp::PeerId peer, telemetry::SpanId cause) {
  drain_staged();
  std::vector<DbgpOutgoing> out;
  Peer& down = peers_.at(peer);
  down.up = false;
  down.adj_out_depth = 0;
  peer_metrics_[peer].flaps->inc();
  peer_metrics_[peer].adj_out_depth->set(0);
  // One pass drops the peer's adj-out entry and candidate from every node.
  std::vector<net::Prefix> affected;
  for (auto& [prefix, node] : routes_) {
    std::erase_if(node.adj_out, [peer](const auto& entry) { return entry.first == peer; });
    if (node.candidates.erase(peer) > 0) affected.push_back(prefix);
  }
  external_cause_ = cause;
  for (const auto& prefix : affected) commit_plan(plan_decision(prefix, frame_cache_), out);
  external_cause_ = 0;
  return out;
}

std::vector<DbgpOutgoing> DbgpSpeaker::peer_up(bgp::PeerId peer, telemetry::SpanId cause) {
  drain_staged();
  peers_.at(peer).up = true;
  external_cause_ = cause;
  auto out = sync_peer(peer);
  external_cause_ = 0;
  return out;
}

void DbgpSpeaker::reset_routes() {
  routes_.clear();
  batch_.clear();
  batch_seen_.clear();
  staged_.clear();
  frame_cache_.clear();
  for (ia::FrameCache& cache : shard_caches_) cache.clear();
  // Learned causal state dies with the routes; the origination spans in
  // originated_ survive (a reboot does not re-originate).
  pending_cause_.clear();
  emit_parent_ = 0;
  for (Peer& p : peers_) p.adj_out_depth = 0;
  for (auto& pm : peer_metrics_) pm.adj_out_depth->set(0);
  // Every IA that held a canonical tail is gone: release them now rather
  // than at the interner's next growth-triggered sweep.
  desc_interner_.gc();
}

// -- Origination ---------------------------------------------------------------

std::vector<DbgpOutgoing> DbgpSpeaker::originate(const net::Prefix& prefix,
                                                 telemetry::SpanId cause) {
  drain_staged();
  std::vector<DbgpOutgoing> out;
  // An untraced re-origination keeps the span already stored.
  telemetry::SpanId& root = originated_[prefix];
  if (causal_ != nullptr) {
    // The root of a new trace: everything this advertisement causes anywhere
    // in the network shares the minted trace id.
    root = causal_->instant(telemetry::SpanKind::kOrigination, cause, trace_now(),
                            config_.asn, 0, "originate", prefix.to_string());
    pending_cause_[prefix] = root;
  }
  commit_plan(plan_decision(prefix, frame_cache_), out);
  return out;
}

std::vector<DbgpOutgoing> DbgpSpeaker::withdraw_origin(const net::Prefix& prefix,
                                                       telemetry::SpanId cause) {
  drain_staged();
  std::vector<DbgpOutgoing> out;
  const auto it = originated_.find(prefix);
  if (it == originated_.end()) return out;
  if (causal_ != nullptr) {
    // Linked to the origination so the withdrawal stays in the same trace.
    pending_cause_[prefix] =
        causal_->instant(telemetry::SpanKind::kOrigination, cause != 0 ? cause : it->second,
                         trace_now(), config_.asn, 0, "withdraw-origin", prefix.to_string());
  }
  originated_.erase(it);
  commit_plan(plan_decision(prefix, frame_cache_), out);
  return out;
}

// -- Decision (stages 4-7) -----------------------------------------------------
//
// Every decision is a plan and a commit. plan_decision is the one best-path
// selection: it only reads speaker state and writes the plan plus the
// FrameCache it is handed, so the sharded flush runs it on pool threads.
// commit_plan is the one place a decision mutates anything, and it always
// runs on the calling thread in first-touch order.

DbgpSpeaker::DecisionPlan DbgpSpeaker::plan_decision(const net::Prefix& prefix,
                                                     ia::FrameCache& cache) const {
  DecisionPlan plan;
  plan.prefix = prefix;
  plan.active = active_module(prefix);
  DecisionModule* active = plan.active;
  const bool tracing = causal_ != nullptr;
  const auto it = routes_.find(prefix);
  const RouteNode* node = it == routes_.end() ? nullptr : &it->second;
  const IaRoute* current = node != nullptr && node->selected ? &*node->selected : nullptr;
  if (tracing && current != nullptr) plan.audit.prev_path = current->ia.path_vector.to_string();
  const auto* candidates = node != nullptr ? &node->candidates : nullptr;

  const IaRoute* winner = nullptr;
  if (const auto origin_it = originated_.find(prefix); origin_it != originated_.end()) {
    // Locally originated prefixes always win.
    ExportContext octx;
    octx.own_as = config_.asn;
    octx.own_island = config_.island;
    IaRoute& origin = plan.origin.emplace();
    origin.ia = factory_.create_origin(prefix, active, octx);
    origin.from_peer = bgp::kInvalidPeer;
    origin.via_span = origin_it->second;
    plan.changed = current == nullptr || !(current->ia == origin.ia) ||
                   current->from_peer != bgp::kInvalidPeer;
    if (tracing && candidates != nullptr) {
      for (const auto& [peer, c] : *candidates) {
        plan.audit.candidates.push_back({c.neighbor_as, c.ia.path_vector.to_string(),
                                         c.via_span, c.eligible, "origin-overrides"});
      }
    }
    winner = &origin;
  } else {
    const IaRoute* best = nullptr;
    bool fallback = false;
    if (candidates != nullptr) {
      if (active != nullptr) {
        for (const auto& [peer, c] : *candidates) {
          if (!c.eligible) continue;
          if (best == nullptr || active->better(c, *best)) best = &c;
        }
      }
      if (best == nullptr && !candidates->empty()) {
        // Baseline fallback: no module or no eligible candidates — preserve
        // connectivity by shortest path vector, then arrival order.
        fallback = true;
        for (const auto& [peer, c] : *candidates) {
          if (best == nullptr ||
              c.ia.path_vector.hop_count() < best->ia.path_vector.hop_count() ||
              (c.ia.path_vector.hop_count() == best->ia.path_vector.hop_count() &&
               c.sequence < best->sequence)) {
            best = &c;
          }
        }
      }
    }

    if (tracing && candidates != nullptr) {
      int i = 0;
      for (const auto& [peer, c] : *candidates) {
        telemetry::AuditCandidate ac{c.neighbor_as, c.ia.path_vector.to_string(), c.via_span,
                                     c.eligible, {}};
        if (&c == best) {
          ac.outcome = "selected";
          plan.audit.selected = i;
        } else if (!c.eligible && active != nullptr) {
          ac.outcome = "ineligible:" + active->name();
        } else if (best == nullptr) {
          ac.outcome = "unreachable";
        } else if (!fallback) {
          ac.outcome = "lost:" + active->explain_better(*best, c);
        } else {
          ac.outcome = best->ia.path_vector.hop_count() != c.ia.path_vector.hop_count()
                           ? "lost:path-length"
                           : "lost:arrival-order";
        }
        plan.audit.candidates.push_back(std::move(ac));
        ++i;
      }
    }

    if (best == nullptr) {
      // Unreachable: a selected route is withdrawn from every peer.
      plan.changed = current != nullptr;
      if (plan.changed) {
        plan.emits.reserve(peers_.size());
        for (bgp::PeerId peer = 0; peer < peers_.size(); ++peer) {
          plan.emits.push_back({peer, nullptr});
        }
      }
      return plan;
    }
    plan.learned = best;
    plan.changed = current == nullptr || current->from_peer != best->from_peer ||
                   !(current->ia == best->ia);
    winner = best;
  }

  // Even an unchanged winner is re-exported: emit's delta suppression makes
  // that a no-op when nothing differs.
  const ExportBase base = export_base(active, prefix, *winner);
  plan.emits.reserve(peers_.size());
  for (bgp::PeerId peer = 0; peer < peers_.size(); ++peer) {
    if (peers_[peer].up) plan.emits.push_back({peer, export_frame(peer, base, cache)});
  }
  return plan;
}

void DbgpSpeaker::commit_plan(DecisionPlan&& plan, std::vector<DbgpOutgoing>& out) {
  const net::Prefix& prefix = plan.prefix;

  // Open the decision span, parented to the staged update that triggered
  // this decision (or to the external cause: a chaos event, a protocol
  // switch).
  telemetry::SpanId dspan = 0;
  double t = 0.0;
  if (causal_ != nullptr) {
    t = trace_now();
    telemetry::SpanId parent = external_cause_;
    if (auto it = pending_cause_.find(prefix); it != pending_cause_.end()) {
      parent = it->second;
      pending_cause_.erase(it);
    }
    dspan = causal_->begin_span(telemetry::SpanKind::kDecision, parent, t, config_.asn, 0,
                                "decision", prefix.to_string());
  }

  // One lookup for the whole commit. Only an origin can need a new node: a
  // learned winner lives in its node, and so does a route being withdrawn.
  auto it = routes_.find(prefix);
  if (it == routes_.end() && plan.origin) it = routes_.try_emplace(prefix).first;
  RouteNode* node = it == routes_.end() ? nullptr : &it->second;

  // The Loc-RIB write: an origin always overwrites; a learned winner is
  // copied only when it changed, so an unchanged entry keeps its via_span.
  if (plan.origin) {
    node->selected = std::move(*plan.origin);
  } else if (plan.learned != nullptr) {
    if (plan.changed) node->selected = *plan.learned;
  } else if (node != nullptr) {
    node->selected.reset();
  }
  const IaRoute* installed = node != nullptr && node->selected ? &*node->selected : nullptr;
  if (plan.changed && plan.active != nullptr) plan.active->on_best_changed(prefix, installed);

  if (causal_ != nullptr) {
    telemetry::DecisionAudit& audit = plan.audit;
    audit.span = dspan;
    audit.time = t;
    audit.as = config_.asn;
    audit.prefix = prefix.to_string();
    audit.origin = plan.origin.has_value();
    audit.changed = plan.changed;
    if (installed != nullptr) {
      audit.best_path = installed->ia.path_vector.to_string();
      audit.best_via = installed->via_span;
    }
    causal_->record_audit(std::move(audit));
    causal_->end_span(dspan, t);
    emit_parent_ = dspan;  // the frames below chain to this decision
  }

  // Emits exist only when the node does (a winner or a withdrawn route).
  for (PlannedEmit& e : plan.emits) {
    if (e.frame != nullptr) {
      emit(*node, e.peer, prefix, std::move(e.frame), out);
    } else {
      withdraw_from_peer(*node, e.peer, prefix, out);
    }
  }
  if (node != nullptr && node->empty()) routes_.erase(it);
}

// -- Export (stages 5-7) -------------------------------------------------------

DbgpSpeaker::ExportBase DbgpSpeaker::export_base(DecisionModule* active,
                                                 const net::Prefix& prefix,
                                                 const IaRoute& best) const {
  return {best, active,
          best.from_peer == bgp::kInvalidPeer ? factory_.origin_base(prefix)
                                              : factory_.export_base(best)};
}

ia::SharedFrame DbgpSpeaker::export_frame(bgp::PeerId peer, const ExportBase& base,
                                          ia::FrameCache& cache) const {
  if (peer == base.best.from_peer) return nullptr;  // split horizon
  const Peer& to = peers_[peer];
  ExportContext ectx;
  ectx.own_as = config_.asn;
  ectx.own_island = config_.island;
  ectx.to_peer = peer;
  ectx.to_peer_as = to.asn;
  ectx.to_peer_in_same_island = to.same_island;
  // Every peer annotates its own copy of the base: some protocols (e.g.,
  // BGPSec) bind their control information to the peer the IA is sent to.
  const bool origin = base.best.from_peer == bgp::kInvalidPeer;
  ia::IntegratedAdvertisement ia_out =
      factory_.annotate(base.ia, origin ? nullptr : &base.best, base.active, ectx);

  // Stage 7: global export filters (skip island handling toward peers in
  // our own island — abstraction happens only at the true egress).
  if (!to.same_island) {
    FilterContext fctx;
    fctx.own_as = config_.asn;
    fctx.own_island = config_.island;
    fctx.peer = peer;
    fctx.peer_as = to.asn;
    fctx.ingress = false;
    if (!export_filters_.apply(ia_out, fctx)) return nullptr;
  }
  // Encode-once fan-out: identical per-peer advertisements (the common case
  // — export rewrites are the exception) resolve to one shared frame.
  return cache.get_or_encode(ia_out, config_.codec,
                             [&] { return encode_announce(ia_out, config_.codec); });
}

bool DbgpSpeaker::store_adj_out(RouteNode& node, bgp::PeerId peer,
                                const ia::SharedFrame& frame) {
  const auto slot = adj_out_slot(node, peer);
  if (slot != node.adj_out.end() && slot->first == peer) {
    // Same cache entry => pointer equality, no byte walk.
    if (slot->second == frame || *slot->second == *frame) return false;
    slot->second = frame;
  } else {
    node.adj_out.emplace(slot, peer, frame);
    ++peers_[peer].adj_out_depth;
  }
  peer_metrics_[peer].adj_out_depth->set(static_cast<std::int64_t>(peers_[peer].adj_out_depth));
  return true;
}

void DbgpSpeaker::withdraw_from_peer(RouteNode& node, bgp::PeerId peer,
                                     const net::Prefix& prefix, std::vector<DbgpOutgoing>& out) {
  const auto slot = adj_out_slot(node, peer);
  if (slot == node.adj_out.end() || slot->first != peer) return;
  node.adj_out.erase(slot);
  ++stats_.withdraws_sent;
  SpeakerMetrics::get().withdraws_sent->inc();
  peer_metrics_[peer].withdraws_out->inc();
  peer_metrics_[peer].adj_out_depth->set(static_cast<std::int64_t>(--peers_[peer].adj_out_depth));
  auto frame = ia::make_shared_frame(encode_withdraw(prefix));
  stats_.bytes_sent += frame->size();
  SpeakerMetrics::get().bytes_sent->inc(frame->size());
  telemetry::SpanId span = 0;
  if (causal_ != nullptr) {
    span = causal_->begin_span(telemetry::SpanKind::kFrame, emit_parent_, trace_now(),
                               config_.asn, peers_.at(peer).asn, "withdraw",
                               prefix.to_string(), "bytes=" + std::to_string(frame->size()));
  }
  out.push_back({peer, std::move(frame), span});
}

void DbgpSpeaker::emit(RouteNode& node, bgp::PeerId peer, const net::Prefix& prefix,
                       ia::SharedFrame frame, std::vector<DbgpOutgoing>& out) {
  if (!peers_.at(peer).up) return;  // nothing reaches (or is recorded for) a down peer
  if (!store_adj_out(node, peer, frame)) return;  // delta suppression
  ++stats_.ias_sent;
  SpeakerMetrics::get().ias_sent->inc();
  peer_metrics_[peer].updates_out->inc();
  const bool out_of_band =
      config_.dissemination == Dissemination::kOutOfBand && lookup_ != nullptr;
  if (out_of_band) {
    // The lookup service stores the bare IA bytes (no frame-type byte); the
    // wire carries only a notice naming the prefix.
    lookup_->put(LookupService::ia_key(config_.asn, peers_.at(peer).asn, prefix),
                 std::vector<std::uint8_t>(frame->begin() + 1, frame->end()));
    frame = ia::make_shared_frame(encode_notice(prefix));
  }
  stats_.bytes_sent += frame->size();
  SpeakerMetrics::get().bytes_sent->inc(frame->size());
  telemetry::SpanId span = 0;
  if (causal_ != nullptr) {
    span = causal_->begin_span(telemetry::SpanKind::kFrame, emit_parent_, trace_now(),
                               config_.asn, peers_.at(peer).asn,
                               out_of_band ? "notice" : "announce", prefix.to_string(),
                               "bytes=" + std::to_string(frame->size()));
  }
  out.push_back({peer, std::move(frame), span});
}

std::vector<DbgpOutgoing> DbgpSpeaker::sync_peer(bgp::PeerId peer) {
  std::vector<DbgpOutgoing> out;
  if (!peers_.at(peer).up) return out;
  for (auto& [prefix, node] : routes_) {
    if (!node.selected) continue;
    const IaRoute& best = *node.selected;
    // No split-horizon withdraw here: the route's own source is skipped.
    if (best.from_peer == peer) continue;
    // No decision runs here: a synced frame chains straight to whatever span
    // installed the route (its provenance), or to the session event itself.
    if (causal_ != nullptr) {
      emit_parent_ = best.via_span != 0 ? best.via_span : external_cause_;
    }
    const ExportBase base = export_base(active_module(prefix), prefix, best);
    if (ia::SharedFrame frame = export_frame(peer, base, frame_cache_)) {
      emit(node, peer, prefix, std::move(frame), out);
    }
  }
  return out;
}

std::vector<DbgpOutgoing> DbgpSpeaker::reevaluate_all(telemetry::SpanId cause) {
  drain_staged();
  std::vector<DbgpOutgoing> out;
  external_cause_ = cause;
  // Re-run module import filters (the active protocol may have changed).
  for (auto& [prefix, node] : routes_) {
    DecisionModule* active = active_module(prefix);
    for (auto& [peer, route] : node.candidates) {
      route.eligible = active == nullptr || active->import_filter(route);
    }
  }
  // Every prefix with candidates, then the originated prefixes without any
  // (MOAS and anycast origins were decided in the first loop; deciding them
  // twice would mint a second span and audit). A commit erases at most its
  // own node, so the loop steps past it first.
  for (auto it = routes_.begin(); it != routes_.end();) {
    const net::Prefix prefix = it->first;
    const bool learned = !it->second.candidates.empty();
    ++it;
    if (learned) commit_plan(plan_decision(prefix, frame_cache_), out);
  }
  for (const auto& [prefix, span] : originated_) {
    const auto node = routes_.find(prefix);
    if (node == routes_.end() || node->second.candidates.empty()) {
      commit_plan(plan_decision(prefix, frame_cache_), out);
    }
  }
  external_cause_ = 0;
  return out;
}

// -- Snapshot / restore --------------------------------------------------------

DbgpSpeaker::SpeakerState DbgpSpeaker::export_state() const {
  SpeakerState state;
  state.sequence = sequence_;
  state.originated.reserve(originated_.size());
  for (const auto& [prefix, span] : originated_) state.originated.push_back(prefix);
  const auto record = [this](const net::Prefix& prefix, const IaRoute& route) {
    return RouteRecord{prefix, route.from_peer, route.neighbor_as, route.sequence,
                       route.eligible, ia::encode_ia(route.ia, config_.codec)};
  };
  for (const auto& [prefix, node] : routes_) {
    for (const auto& [peer, route] : node.candidates) state.adj_in.push_back(record(prefix, route));
    if (node.selected) state.selected.push_back(record(prefix, *node.selected));
    for (const auto& [peer, frame] : node.adj_out) {
      state.adj_out.push_back({prefix, peer, 0, 0, true, *frame});
    }
  }
  // Adj-out records go peer-major; the stable sort keeps prefix order
  // within a peer.
  std::ranges::stable_sort(state.adj_out, {}, &RouteRecord::from_peer);
  return state;
}

void DbgpSpeaker::restore_state(const SpeakerState& state, bool keep_adj_out) {
  reset_routes();
  // Unlike a reboot, a restore replaces configuration-level origination state
  // too: the snapshot is authoritative.
  originated_.clear();
  sequence_ = state.sequence;
  for (const auto& prefix : state.originated) originated_.emplace(prefix, 0);
  const auto decode = [this](const RouteRecord& r) {
    IaRoute route;
    route.ia = ia::decode_ia(r.bytes);
    desc_interner_.intern(route.ia);
    route.from_peer = r.from_peer;
    route.neighbor_as = r.neighbor_as;
    route.sequence = r.sequence;
    route.eligible = r.eligible;
    return route;
  };
  // A snapshot file is outside input: a record naming a peer this speaker
  // does not have is malformed, like bad IA bytes.
  const auto check_peer = [this](const RouteRecord& r) {
    if (r.from_peer >= peers_.size()) {
      throw util::DecodeError("snapshot record for " + r.prefix.to_string() +
                              " names unknown peer " + std::to_string(r.from_peer));
    }
  };
  for (const auto& r : state.adj_in) {
    check_peer(r);
    IaRoute route = decode(r);
    const net::Prefix prefix = route.ia.destination;
    routes_.try_emplace(prefix).first->second.candidates.insert_or_assign(r.from_peer,
                                                                          std::move(route));
  }
  for (const auto& r : state.selected) {
    routes_.try_emplace(r.prefix).first->second.selected = decode(r);
  }
  if (!keep_adj_out) return;
  for (const auto& r : state.adj_out) {
    check_peer(r);
    store_adj_out(routes_.try_emplace(r.prefix).first->second, r.from_peer,
                  ia::make_shared_frame(r.bytes));
  }
}

const IaRoute* DbgpSpeaker::best(const net::Prefix& prefix) const {
  const auto it = routes_.find(prefix);
  return it == routes_.end() || !it->second.selected ? nullptr : &*it->second.selected;
}

std::vector<net::Prefix> DbgpSpeaker::selected_prefixes() const {
  std::vector<net::Prefix> out;
  for (const auto& [prefix, node] : routes_) {
    if (node.selected) out.push_back(prefix);
  }
  return out;
}

}  // namespace dbgp::core
