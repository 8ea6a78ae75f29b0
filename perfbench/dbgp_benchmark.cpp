// dbgp_benchmark: the repo benchmark (README.md in this directory).
//
//   dbgp_benchmark --workload <name> --seed <n> [--seconds <s>] [--trace] [--out <file>]
//   dbgp_benchmark --list
//   dbgp_benchmark --smoke
//
// A run makes one untimed warm-up pass, then timed passes until --seconds
// is spent; each pass synthesizes its inputs from the seed and builds the
// system afresh (timed as set-up) before its timed calls. Load is a closed
// loop with one client: the next call is issued only after the previous one
// returns. Each metric prints as `name value unit`; --out also writes every
// pass's samples and the build's provenance as JSON. With --trace the run
// alternates untraced and probe-traced passes (probes.h) and reports the
// per-layer profile instead. Every correctness check runs on every pass; any
// failure exits 3.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/speaker.h"
#include "probes.h"
#include "protocols/bgp_module.h"
#include "protocols/bgpsec.h"
#include "protocols/pathlet.h"
#include "protocols/scion.h"
#include "server/control.h"
#include "server/daemon.h"
#include "simnet/network.h"
#include "telemetry/metrics.h"
#include "topology/hierarchy.h"
#include "util/bytes.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace dbgp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
double per(double x, double base) { return base > 0.0 ? x / base : 0.0; }
double median(std::vector<double> v) { return util::percentile(std::move(v), 50.0); }

// -- Metric catalogue -----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports all of them (untraced runs).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"call_p50_us", "us"},
    {"call_p99_us", "us"},
    {"rib_bytes_per_prefix", "B"},
};

// Per-layer metrics: every workload reports all of them (--trace runs); a
// layer the workload never enters reads 0. Stage costs are shares of the
// traced loop's wall time rather than absolute times: a layer's time reads
// exactly 0 on every run of a workload that never enters it, and a share
// multiplied by the loop's per-update wall gives the time back.
constexpr MetricDef kPerLayer[] = {
    {"protocols.better_calls_per_update", "count"},
    {"protocols.better_share", "ratio"},
    {"protocols.import_share", "ratio"},
    {"protocols.annotate_share", "ratio"},
    {"core.frame_in_share", "ratio"},
    {"core.import_filter_share", "ratio"},
    {"core.ia_db_share", "ratio"},
    {"core.decision_share", "ratio"},
    {"core.factory_share", "ratio"},
    {"core.export_filter_share", "ratio"},
    {"core.fanout_share", "ratio"},
    {"core.frames_out_per_update", "count"},
    {"core.batch_coalesce_ratio", "ratio"},
    {"core.shard.decode_frac", "ratio"},
    {"core.shard.decision_frac", "ratio"},
    {"core.shard.commit_frac", "ratio"},
    {"core.shard.imbalance_permille", "permille"},
    {"ia.decodes_per_update", "count"},
    {"ia.decode_us_per_update", "us"},
    {"ia.encodes_per_update", "count"},
    {"ia.encode_us_per_update", "us"},
    {"ia.frame_cache_hit_ratio", "ratio"},
    {"ia.spliced_encode_ratio", "ratio"},
    {"ia.bytes_out_per_update", "B"},
    {"ia.interner_hit_ratio", "ratio"},
    {"util.arena_allocs_per_update", "count"},
    {"util.pool_wait_share", "ratio"},
    {"util.pool_tasks_per_flush", "count"},
    {"simnet.events", "count"},
    {"simnet.frames_per_prefix", "count"},
    {"simnet.bytes_per_prefix", "B"},
    {"simnet.speaker_time_frac", "ratio"},
    {"server.originate_share", "ratio"},
    {"server.run_share", "ratio"},
    {"server.rib_share", "ratio"},
    {"server.withdraw_share", "ratio"},
    {"telemetry.causal_spans_per_command", "count"},
    {"telemetry.audits_per_command", "count"},
    {"bench.stage_sum_frac", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

// -- One pass -------------------------------------------------------------------

struct Pass {
  double setup_s = 0.0;    // construction before the first timed call
  double op_wall_s = 0.0;  // wall time of the closed loop of timed calls
  double calls_s = 0.0;    // sum of the timed calls' own durations (not set by
                           // the immediate replays, whose probes cover it)
  double total_s = 0.0;    // the whole pass, construction and checks included
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<double> call_us;  // released by timed() once summarized
  double call_p50_us = 0.0;
  double call_p99_us = 0.0;
  double rib_bytes_per_prefix = 0.0;
  // Values that must repeat exactly on every pass of one run.
  std::vector<std::pair<std::string, std::uint64_t>> fingerprint;
  std::vector<std::string> failures;
  std::map<std::string, double> layer;  // traced passes only
  bool traced = false;
};

// Per-speaker counters summed over the speakers of a pass.
struct SpeakerTotals {
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t arena_allocs = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t selected = 0;

  void add(const core::DbgpSpeaker& s) {
    frames_out += s.stats().ias_sent + s.stats().withdraws_sent;
    bytes_sent += s.stats().bytes_sent;
    arena_allocs += s.rib_arena().allocation_count();
    arena_bytes += s.rib_arena().bytes_in_use();
    selected += s.selected_prefixes().size();
  }
  // Counter growth since `before`; sizes stay as of now.
  SpeakerTotals since(const SpeakerTotals& before) const {
    SpeakerTotals d = *this;
    d.frames_out -= before.frames_out;
    d.bytes_sent -= before.bytes_sent;
    d.arena_allocs -= before.arena_allocs;
    return d;
  }
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv(h, bytes);
}

// FNV-1a over the Loc-RIB: each selected prefix, the peer it came from, and
// its encoded IA. Equal hashes mean bit-identical Loc-RIBs.
std::uint64_t loc_rib_hash(const core::DbgpSpeaker& s) {
  std::uint64_t h = kFnvBasis;
  for (const net::Prefix& prefix : s.selected_prefixes()) {
    const core::IaRoute* best = s.best(prefix);
    h = fnv_u64(h, (std::uint64_t{prefix.address().value()} << 8) | prefix.length());
    h = fnv_u64(h, best->from_peer);
    h = fnv(h, ia::encode_ia(best->ia, s.config().codec));
  }
  return h;
}

// Zeroes the process registry and the probe recorders just before the timed
// calls, so a pass's read-outs cover only its own work.
void begin_measurement() {
  telemetry::MetricsRegistry::global().reset();
  collect_and_reset();
}

std::uint64_t counter(const telemetry::MetricsSnapshot& s, std::string_view name) {
  const auto* c = s.find_counter(name);
  return c == nullptr ? 0 : c->value;
}

telemetry::HistogramSnapshot histogram(const telemetry::MetricsSnapshot& s,
                                       std::string_view name) {
  const auto* h = s.find_histogram(name);
  return h == nullptr ? telemetry::HistogramSnapshot{} : *h;
}

// Per-layer metrics every speaker-driving workload derives the same way:
// probe stage self-times as shares of the pass's timed loop, hook counts,
// codec and cache read-outs from the registry, and speaker counters, each
// count divided by `updates` (frames the speakers processed).
void common_layers(Pass& pass, double updates, const ProbeTotals& probes,
                   const telemetry::MetricsSnapshot& snap, const SpeakerTotals& delta) {
  auto& m = pass.layer;
  m["protocols.better_calls_per_update"] =
      per(static_cast<double>(probes.count(Event::kBetterEnter)), updates);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto stage = static_cast<Stage>(i);
    m[std::string(stage_name(stage)) + "_share"] = per(probes.stage_s(stage), pass.op_wall_s);
  }
  const auto decode = histogram(snap, "dbgp.codec.decode_seconds");
  const auto encode = histogram(snap, "dbgp.codec.encode_seconds");
  m["ia.decodes_per_update"] = per(static_cast<double>(decode.count), updates);
  m["ia.decode_us_per_update"] = per(decode.sum * 1e6, updates);
  m["ia.encodes_per_update"] = per(static_cast<double>(encode.count), updates);
  m["ia.encode_us_per_update"] = per(encode.sum * 1e6, updates);
  const double cache_hits = static_cast<double>(counter(snap, "dbgp.codec.frame_cache.hits"));
  const double cache_misses =
      static_cast<double>(counter(snap, "dbgp.codec.frame_cache.misses"));
  m["ia.frame_cache_hit_ratio"] = per(cache_hits, cache_hits + cache_misses);
  const double spliced = static_cast<double>(counter(snap, "dbgp.codec.encode_spliced"));
  m["ia.spliced_encode_ratio"] = per(spliced, static_cast<double>(encode.count));
  m["ia.bytes_out_per_update"] = per(static_cast<double>(delta.bytes_sent), updates);
  const double interned = static_cast<double>(counter(snap, "dbgp.ia.interner.hits"));
  const double copied = static_cast<double>(counter(snap, "dbgp.ia.interner.misses"));
  m["ia.interner_hit_ratio"] = per(interned, interned + copied);
  m["core.frames_out_per_update"] = per(static_cast<double>(delta.frames_out), updates);
  m["util.arena_allocs_per_update"] = per(static_cast<double>(delta.arena_allocs), updates);
  m["core.batch_coalesce_ratio"] = per(histogram(snap, "dbgp.speaker.batch_size").sum, updates);
}

double stage_sum_s(const ProbeTotals& probes) {
  double sum = 0.0;
  for (std::size_t i = 0; i < kStageCount; ++i) sum += probes.stage_s(static_cast<Stage>(i));
  return sum;
}

// Share of the step's wall time inside the speaker layers the probes and
// codec timers can see (filters, module hooks, encode, decode). A lower
// bound: staging, the IA DB and fan-out glue run between unbracketed probes.
double speaker_time_frac(const ProbeTotals& probes, const telemetry::MetricsSnapshot& snap,
                         double wall_s) {
  return per(stage_sum_s(probes) + histogram(snap, "dbgp.codec.decode_seconds").sum +
                 histogram(snap, "dbgp.codec.encode_seconds").sum,
             wall_s);
}

// -- Workloads --------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Synthesizes the inputs (and state shared by every pass) from the seed.
  virtual void prepare(std::uint64_t seed, double scale) = 0;
  // One pass: builds the system under test, times its calls, checks it.
  virtual Pass run(bool traced) = 0;
};

// Builds the system under test kBuilds times, keeping the last, and stores
// the median build time in `setup_s`: one build of a network or daemon lasts
// only milliseconds, too short to time steadily on a shared host.
constexpr int kBuilds = 3;

template <typename Build>
auto build_timed(const Build& build, double& setup_s) {
  std::vector<double> samples;
  decltype(build()) built;
  for (int i = 0; i < kBuilds; ++i) {
    built = {};
    const auto t0 = Clock::now();
    built = build();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  setup_s = median(std::move(samples));
  return built;
}

std::size_t scaled(std::size_t full, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(static_cast<double>(full) * scale));
}

// The §5 router under test: one BGP-module speaker, AS 65000, with the
// replay's peers as AS 65001...
std::unique_ptr<core::DbgpSpeaker> replay_speaker(std::size_t peers, std::size_t max_batch,
                                                  bool traced, std::vector<bgp::PeerId>& ids) {
  core::DbgpConfig config;
  config.asn = 65000;
  config.next_hop = net::Ipv4Address(10, 0, 0, 1);
  config.max_batch = max_batch;
  auto speaker = std::make_unique<core::DbgpSpeaker>(config);
  auto module = std::make_unique<protocols::BgpModule>();
  speaker->add_module(traced ? probed(std::move(module), speaker.get()) : std::move(module));
  if (traced) install_filter_probes(*speaker);
  ids.clear();
  for (std::size_t p = 0; p < peers; ++p) {
    ids.push_back(speaker->add_peer(static_cast<bgp::AsNumber>(65001 + p)));
  }
  return speaker;
}

// Fingerprint and size checks shared by the replays.
void finish_replay(Pass& pass, const core::DbgpSpeaker& speaker, const Replay& replay,
                   std::uint64_t frames_out, const SpeakerTotals& after) {
  pass.rib_bytes_per_prefix = per(static_cast<double>(after.arena_bytes),
                                  static_cast<double>(after.selected));
  pass.fingerprint = {{"frames_out", frames_out},
                      {"loc_rib_hash", loc_rib_hash(speaker)},
                      {"rib_bytes", after.arena_bytes}};
  if (after.selected != replay.expected_selected) {
    pass.failures.push_back("Loc-RIB holds " + std::to_string(after.selected) +
                            " prefixes, expected " + std::to_string(replay.expected_selected));
  }
}

// Immediate replays: every frame through handle_frame, one at a time.
class ImmediateReplay : public Workload {
 public:
  enum class Shape { kDisjoint, kFullTable, kIa32k };
  explicit ImmediateReplay(Shape shape) : shape_(shape) {}

  void prepare(std::uint64_t seed, double scale) override {
    switch (shape_) {
      case Shape::kDisjoint:
        replay_ = disjoint_replay(seed, 6, scaled(1000, scale, 20), 0);
        break;
      case Shape::kFullTable:
        replay_ = fulltable_replay(seed, 6, scaled(1000, scale, 20), scaled(1000, scale, 20));
        break;
      case Shape::kIa32k:
        replay_ = disjoint_replay(seed, 6, scaled(100, scale, 10), 32 * 1024);
        break;
    }
  }

  Pass run(bool traced) override {
    Pass pass;
    const auto t0 = Clock::now();
    std::vector<bgp::PeerId> peers;
    auto speaker = replay_speaker(replay_.peers, core::DbgpConfig{}.max_batch, traced, peers);
    pass.setup_s = seconds_between(t0, Clock::now());

    SpeakerTotals before;
    before.add(*speaker);
    pass.call_us.reserve(replay_.frames.size());
    std::uint64_t frames_out = 0;
    const void* tag = speaker.get();
    begin_measurement();
    const auto start = Clock::now();
    for (const PeerFrame& f : replay_.frames) {
      const auto a = Clock::now();
      if (traced) record(Event::kCallEnter, tag);
      try {
        frames_out += speaker->handle_frame(peers[f.peer], *f.frame).size();
      } catch (const util::DecodeError&) {
        ++pass.failed;
      }
      if (traced) record(Event::kCallExit, tag);
      pass.call_us.push_back(micros_between(a, Clock::now()));
    }
    pass.op_wall_s = seconds_between(start, Clock::now());
    pass.ops = replay_.frames.size();

    SpeakerTotals after;
    after.add(*speaker);
    if (traced) {
      const ProbeTotals probes = collect_and_reset();
      common_layers(pass, static_cast<double>(pass.ops), probes,
                    telemetry::MetricsRegistry::global().snapshot(), after.since(before));
      pass.layer["bench.stage_sum_frac"] = per(stage_sum_s(probes), pass.op_wall_s);
    }
    finish_replay(pass, *speaker, replay_, frames_out, after);
    return pass;
  }

 private:
  Shape shape_;
  Replay replay_;
};

// The full-table replay through the sharded batch pipeline: SharedFrames
// staged with enqueue_frame (max_batch = 0 defers decode to the flush), an
// explicit flush every kFlushEvery frames, on a 4-thread pool.
class ShardedReplay : public Workload {
 public:
  static constexpr std::size_t kThreads = 4;  // counts the calling thread
  static constexpr std::size_t kFlushEvery = 1536;

  void prepare(std::uint64_t seed, double scale) override {
    replay_ = fulltable_replay(seed, 6, scaled(1000, scale, 20), scaled(1000, scale, 20));
    pool_ = std::make_unique<util::ThreadPool>(kThreads);
  }

  Pass run(bool traced) override {
    if (!reference_) {
      // Untimed single-thread reference: same frames, same flush points.
      const Pass ref = replay(nullptr, false);
      reference_ = {ref.fingerprint[0].second, ref.fingerprint[1].second};
    }
    Pass pass = replay(pool_.get(), traced);
    if (pass.fingerprint[0].second != reference_->first) {
      pass.failures.push_back("sharded frames_out differs from the single-thread flush");
    }
    if (pass.fingerprint[1].second != reference_->second) {
      pass.failures.push_back("sharded Loc-RIB differs from the single-thread flush");
    }
    return pass;
  }

 private:
  Pass replay(util::ThreadPool* pool, bool traced) {
    Pass pass;
    const auto t0 = Clock::now();
    std::vector<bgp::PeerId> peers;
    auto speaker = replay_speaker(replay_.peers, 0, traced, peers);
    if (pool != nullptr) speaker->set_parallel(pool);
    pass.setup_s = seconds_between(t0, Clock::now());

    SpeakerTotals before;
    before.add(*speaker);
    const util::ThreadPool::Stats pool_before =
        pool != nullptr ? pool->stats() : util::ThreadPool::Stats{};
    pass.call_us.reserve(replay_.frames.size());
    std::vector<Clock::time_point> staged;
    staged.reserve(kFlushEvery);
    std::uint64_t frames_out = 0;
    std::uint64_t flushes = 0;
    double flush_s = 0.0;
    begin_measurement();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < replay_.frames.size(); ++i) {
      const PeerFrame& f = replay_.frames[i];
      const auto a = Clock::now();
      try {
        frames_out += speaker->enqueue_frame(peers[f.peer], f.frame).size();
      } catch (const util::DecodeError&) {
        ++pass.failed;
      }
      pass.calls_s += seconds_between(a, Clock::now());
      staged.push_back(a);
      if (staged.size() < kFlushEvery && i + 1 < replay_.frames.size()) continue;
      const auto fa = Clock::now();
      frames_out += speaker->flush().size();
      pass.failed += speaker->take_deferred_rejects();
      const auto fb = Clock::now();
      flush_s += seconds_between(fa, fb);
      ++flushes;
      for (const auto& t : staged) pass.call_us.push_back(micros_between(t, fb));
      staged.clear();
    }
    pass.op_wall_s = seconds_between(start, Clock::now());
    pass.calls_s += flush_s;
    pass.ops = replay_.frames.size();

    SpeakerTotals after;
    after.add(*speaker);
    if (traced) {
      const ProbeTotals probes = collect_and_reset();
      const auto snap = telemetry::MetricsRegistry::global().snapshot();
      common_layers(pass, static_cast<double>(pass.ops), probes, snap, after.since(before));
      auto& m = pass.layer;
      for (const char* stage : {"decode", "decision", "commit"}) {
        m[std::string("core.shard.") + stage + "_frac"] =
            per(histogram(snap, std::string("dbgp.shard.stage_wall_s.") + stage).sum, flush_s);
      }
      const auto* imbalance = snap.find_gauge("dbgp.shard.imbalance_permille");
      m["core.shard.imbalance_permille"] =
          imbalance == nullptr ? 0.0 : static_cast<double>(imbalance->high_water);
      const util::ThreadPool::Stats pool_after = pool->stats();
      m["util.pool_wait_share"] =
          per(static_cast<double>(pool_after.wait_ns - pool_before.wait_ns) * 1e-9, flush_s);
      m["util.pool_tasks_per_flush"] =
          per(static_cast<double>(pool_after.tasks - pool_before.tasks),
              static_cast<double>(flushes));
      m["bench.stage_sum_frac"] = per(pass.calls_s, pass.op_wall_s);
    }
    finish_replay(pass, *speaker, replay_, frames_out, after);
    return pass;
  }

  Replay replay_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> reference_;
};

// A fixed 150-AS hierarchy whose transits and stubs are 30% singleton
// islands running BGPsec, SCION or Pathlet Routing, every stub originating
// four /24s, driven to convergence under batched delivery by one
// run_to_convergence call.
class ConvergeMixed : public Workload {
 public:
  static constexpr std::size_t kEventCap = 10'000'000;
  static constexpr std::size_t kPrefixesPerStub = 4;
  static constexpr std::uint64_t kTopologySeed = 7;

  void prepare(std::uint64_t seed, double scale) override {
    seed_ = seed;
    transits_ = scaled(30, scale, 3);
    stubs_ = scaled(117, scale, 6);
  }

  Pass run(bool traced) override {
    Pass pass;
    const auto world = build_timed([&] { return build(traced); }, pass.setup_s);
    simnet::DbgpNetwork& net = world->net;

    SpeakerTotals before;
    for (const auto asn : net.as_numbers()) before.add(net.speaker(asn));
    begin_measurement();
    const auto start = Clock::now();
    const simnet::RunStats stats = net.run_to_convergence(kEventCap);
    pass.op_wall_s = seconds_between(start, Clock::now());
    pass.calls_s = pass.op_wall_s;
    pass.call_us.push_back(pass.op_wall_s * 1e6);
    const std::uint64_t events = stats.processed;
    pass.ops = events;
    if (stats.capped) {
      ++pass.failed;
      pass.failures.push_back("capped at " + std::to_string(events) + " events");
    }
    const double sim_s = net.events().now();

    SpeakerTotals after;
    for (const auto asn : net.as_numbers()) after.add(net.speaker(asn));
    const SpeakerTotals delta = after.since(before);
    if (traced) {
      const ProbeTotals probes = collect_and_reset();
      const auto snap = telemetry::MetricsRegistry::global().snapshot();
      common_layers(pass, static_cast<double>(counter(snap, "simnet.frames_delivered")), probes,
                    snap, delta);
      auto& m = pass.layer;
      const double prefixes = static_cast<double>(world->prefixes.size());
      m["simnet.events"] = static_cast<double>(events);
      m["simnet.frames_per_prefix"] = per(static_cast<double>(delta.frames_out), prefixes);
      m["simnet.bytes_per_prefix"] = per(static_cast<double>(delta.bytes_sent), prefixes);
      m["simnet.speaker_time_frac"] = speaker_time_frac(probes, snap, pass.op_wall_s);
      m["bench.stage_sum_frac"] = per(pass.calls_s, pass.op_wall_s);
    }

    std::uint64_t rib = kFnvBasis;
    std::size_t missing = 0;
    for (const auto asn : net.as_numbers()) {
      const core::DbgpSpeaker& speaker = net.speaker(asn);
      rib = fnv_u64(rib, loc_rib_hash(speaker));
      for (const net::Prefix& prefix : world->prefixes) missing += speaker.best(prefix) == nullptr;
    }
    if (missing > 0) {
      pass.failures.push_back(std::to_string(missing) + " (AS, prefix) pairs without a route");
    }
    pass.rib_bytes_per_prefix = per(static_cast<double>(after.arena_bytes),
                                    static_cast<double>(after.selected));
    pass.fingerprint = {{"events", events},
                        {"sim_time_bits", std::bit_cast<std::uint64_t>(sim_s)},
                        {"frames_out", delta.frames_out},
                        {"loc_rib_hash", rib},
                        {"rib_bytes", after.arena_bytes}};
    return pass;
  }

 private:
  // Declaration order is destruction order in reverse: the network goes
  // first, while the authority and pathlet stores its modules point at live.
  struct World {
    protocols::AttestationAuthority authority;
    std::vector<std::unique_ptr<protocols::PathletStore>> stores;
    simnet::DbgpNetwork net{nullptr, options()};
    std::vector<net::Prefix> prefixes;

    static simnet::DbgpNetwork::Options options() {
      simnet::DbgpNetwork::Options o;
      o.delivery = simnet::DeliveryMode::kBatched;
      return o;
    }
  };

  std::unique_ptr<World> build(bool traced) const {
    auto world = std::make_unique<World>();
    // The AS graph is fixed; the seed picks who deploys which protocol. A
    // seeded graph made the per-event cost swing by 2x between seeds, which
    // drowns the code changes the benchmark exists to catch.
    util::Rng topology_rng(kTopologySeed);
    topology::HierarchyConfig topo;
    topo.tier1 = 3;
    topo.transits = transits_;
    topo.stubs = stubs_;
    const topology::Hierarchy hierarchy = topology::generate_hierarchy(topo, topology_rng);
    util::Rng rng(seed_);
    const std::size_t n = hierarchy.graph.size();
    // 30% of the transits and of the stubs deploy, the three protocols in
    // equal shares within each tier; tier-1s stay plain BGP.
    std::vector<int> protocol(n, -1);
    const std::size_t first_stub = hierarchy.tier1 + hierarchy.transits;
    for (const auto& [lo, hi] :
         {std::pair{hierarchy.tier1, first_stub}, std::pair{first_stub, n}}) {
      const auto count = static_cast<std::size_t>(0.3 * static_cast<double>(hi - lo) + 0.5);
      const std::vector<std::size_t> picks = rng.sample_indices(hi - lo, count);
      for (std::size_t j = 0; j < picks.size(); ++j) {
        protocol[lo + picks[j]] = static_cast<int>(j % 3);
      }
    }

    for (std::size_t u = 0; u < n; ++u) {
      const auto asn = static_cast<bgp::AsNumber>(u + 1);
      core::DbgpConfig config;
      config.asn = asn;
      config.next_hop = net::Ipv4Address(asn);
      std::unique_ptr<core::DecisionModule> island_module;
      if (protocol[u] >= 0) {
        config.island = ia::IslandId::from_as(asn);
        switch (protocol[u]) {
          case 0:
            config.island_protocol = config.active_protocol = ia::kProtoBgpSec;
            island_module = std::make_unique<protocols::BgpSecModule>(
                protocols::BgpSecModule::Config{asn, config.island, false}, &world->authority);
            break;
          case 1:
            config.island_protocol = config.active_protocol = ia::kProtoScion;
            island_module = std::make_unique<protocols::ScionModule>(protocols::ScionModule::Config{
                config.island, {{{asn * 10, asn * 10 + 1}}, {{asn * 10, asn * 10 + 2}}}});
            break;
          default: {
            config.island_protocol = config.active_protocol = ia::kProtoPathlets;
            auto store = std::make_unique<protocols::PathletStore>();
            store->add_local({asn * 100, {asn * 10, asn * 10 + 1}, std::nullopt});
            store->add_local({asn * 100 + 1, {asn * 10 + 1, asn * 10 + 2}, std::nullopt});
            island_module = std::make_unique<protocols::PathletModule>(
                protocols::PathletModule::Config{config.island}, store.get());
            world->stores.push_back(std::move(store));
            break;
          }
        }
      }
      core::DbgpSpeaker& speaker = world->net.add_as(config);
      const auto attach = [&](std::unique_ptr<core::DecisionModule> m) {
        speaker.add_module(traced ? probed(std::move(m), &speaker) : std::move(m));
      };
      if (island_module != nullptr) attach(std::move(island_module));
      attach(std::make_unique<protocols::BgpModule>());
      if (traced) install_filter_probes(speaker);
    }
    for (topology::NodeId u = 0; u < n; ++u) {
      for (const auto& e : hierarchy.graph.neighbors(u)) {
        if (e.neighbor > u) {
          world->net.add_link(static_cast<bgp::AsNumber>(u + 1),
                              static_cast<bgp::AsNumber>(e.neighbor + 1));
        }
      }
    }
    std::uint32_t next = 0;
    for (const auto stub : hierarchy.graph.stubs()) {
      for (std::size_t k = 0; k < kPrefixesPerStub; ++k) {
        const net::Prefix prefix(net::Ipv4Address(0x0a000000u + (next++ << 8)), 24);
        world->prefixes.push_back(prefix);
        world->net.originate(static_cast<bgp::AsNumber>(stub + 1), prefix);
      }
    }
    return world;
  }

  std::uint64_t seed_ = 0;
  std::size_t transits_ = 0;
  std::size_t stubs_ = 0;
};

// The route-server daemon with default Options (causal tracing on), a
// 16-node ring built through ControlApi, then rounds of originate / run /
// rib / withdraw / run, each command timed.
class DaemonServe : public Workload {
 public:
  static constexpr std::size_t kNodes = 16;
  static constexpr std::size_t kRingOrigins = 4;

  void prepare(std::uint64_t seed, double scale) override {
    util::Rng rng(seed);
    ring_.clear();
    for (std::size_t asn = 1; asn <= kNodes; ++asn) {
      ring_.push_back("add-peer " + std::to_string(asn) + " " + std::to_string(asn % kNodes + 1));
    }
    for (std::size_t i = 0; i < kRingOrigins; ++i) {
      ring_.push_back("originate " + std::to_string(rng.next_below(kNodes) + 1) + " 10." +
                      std::to_string(i + 1) + ".0.0/16");
    }
    ring_.push_back("run");

    // Distinct /24s out of 172.16.0.0/12, in seeded order.
    const std::size_t rounds = scaled(400, scale, 4);
    std::vector<std::uint32_t> slots(4096);
    for (std::uint32_t i = 0; i < slots.size(); ++i) slots[i] = i;
    rng.shuffle(slots);
    script_.clear();
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::uint32_t origin = rng.next_below(kNodes) + 1;
      const std::uint32_t query = (origin + rng.next_below(kNodes - 1)) % kNodes + 1;
      const std::string prefix = "172." + std::to_string(16 + (slots[r] >> 8)) + "." +
                                 std::to_string(slots[r] & 255) + ".0/24";
      script_.push_back({"originate", "originate " + std::to_string(origin) + " " + prefix});
      script_.push_back({"run", "run"});
      script_.push_back({"rib", "rib " + std::to_string(query) + " " + prefix});
      script_.push_back({"withdraw", "withdraw " + std::to_string(origin) + " " + prefix});
      script_.push_back({"run", "run"});
    }
  }

  Pass run(bool traced) override {
    Pass pass;
    const auto session = build_timed(
        [&] {
          auto s = std::make_unique<Session>();
          for (const std::string& line : ring_) {
            const server::CommandResult result = s->api.execute(line);
            if (!result.ok) pass.failures.push_back("'" + line + "': " + result.text);
          }
          return s;
        },
        pass.setup_s);
    server::RouteServer& daemon = session->daemon;
    server::ControlApi& api = session->api;
    if (traced) {
      for (const auto asn : daemon.as_numbers()) {
        install_filter_probes(daemon.network().speaker(asn));
      }
    }

    SpeakerTotals before;
    for (const auto asn : daemon.as_numbers()) before.add(daemon.network().speaker(asn));
    const std::size_t spans_before = daemon.causal().span_count();
    const std::size_t audits_before = daemon.causal().audit_count();
    std::map<std::string, double> verb_s;
    pass.call_us.reserve(script_.size());
    begin_measurement();
    const auto start = Clock::now();
    for (const Command& cmd : script_) {
      const auto a = Clock::now();
      const server::CommandResult result = api.execute(cmd.line);
      const double us = micros_between(a, Clock::now());
      pass.call_us.push_back(us);
      if (traced) verb_s[cmd.verb] += us * 1e-6;
      const bool reachable = cmd.verb != "rib" || result.text.find(" via ") != std::string::npos;
      if (!result.ok || result.text.find("capped") != std::string::npos || !reachable) {
        ++pass.failed;
        pass.failures.push_back("'" + cmd.line + "': " + result.text);
      }
    }
    pass.op_wall_s = seconds_between(start, Clock::now());
    for (const double us : pass.call_us) pass.calls_s += us * 1e-6;
    pass.ops = script_.size();

    SpeakerTotals after;
    for (const auto asn : daemon.as_numbers()) after.add(daemon.network().speaker(asn));
    const SpeakerTotals delta = after.since(before);
    const double commands = static_cast<double>(pass.ops);
    const std::size_t spans = daemon.causal().span_count() - spans_before;
    if (traced) {
      const ProbeTotals probes = collect_and_reset();
      const auto snap = telemetry::MetricsRegistry::global().snapshot();
      common_layers(pass, static_cast<double>(counter(snap, "simnet.frames_delivered")), probes,
                    snap, delta);
      auto& m = pass.layer;
      for (const auto& [verb, s] : verb_s) m["server." + verb + "_share"] = per(s, pass.calls_s);
      m["telemetry.causal_spans_per_command"] = per(static_cast<double>(spans), commands);
      m["telemetry.audits_per_command"] =
          per(static_cast<double>(daemon.causal().audit_count() - audits_before), commands);
      m["bench.stage_sum_frac"] = per(pass.calls_s, pass.op_wall_s);
    }

    if (daemon.causal().dropped() > 0) {
      pass.failures.push_back("causal tracer dropped " +
                              std::to_string(daemon.causal().dropped()) + " records");
    }
    std::uint64_t rib = kFnvBasis;
    for (const auto asn : daemon.as_numbers()) rib = fnv_u64(rib, daemon.loc_rib_hash(asn));
    pass.rib_bytes_per_prefix = per(static_cast<double>(after.arena_bytes),
                                    static_cast<double>(after.selected));
    pass.fingerprint = {{"frames_out", delta.frames_out},
                        {"loc_rib_hash", rib},
                        {"causal_spans", spans},
                        {"rib_bytes", after.arena_bytes}};
    return pass;
  }

 private:
  struct Command {
    std::string verb;
    std::string line;
  };
  // The control API holds a reference to the daemon: neither may move.
  struct Session {
    server::RouteServer daemon;
    server::ControlApi api{daemon};
  };
  std::vector<std::string> ring_;
  std::vector<Command> script_;
};

struct WorkloadEntry {
  const char* name;
  std::function<std::unique_ptr<Workload>()> make;
};

const std::vector<WorkloadEntry>& workloads() {
  using Shape = ImmediateReplay::Shape;
  static const std::vector<WorkloadEntry> all = {
      {"replay_disjoint", [] { return std::make_unique<ImmediateReplay>(Shape::kDisjoint); }},
      {"replay_fulltable", [] { return std::make_unique<ImmediateReplay>(Shape::kFullTable); }},
      {"replay_fulltable_sharded", [] { return std::make_unique<ShardedReplay>(); }},
      {"replay_ia32k", [] { return std::make_unique<ImmediateReplay>(Shape::kIa32k); }},
      {"converge_mixed", [] { return std::make_unique<ConvergeMixed>(); }},
      {"daemon_serve", [] { return std::make_unique<DaemonServe>(); }},
  };
  return all;
}

// -- Harness ------------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // ~1% sizes, one timed round
  std::string out;
};

std::string compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// One pass, preceded by a fresh prepare() so set-up time is sampled across
// the whole run rather than in one burst at its start: on a shared host the
// machine's speed drifts over seconds, and a burst catches one state.
Pass timed(Workload& w, const RunConfig& cfg, bool traced) {
  const auto t0 = Clock::now();
  w.prepare(cfg.seed, cfg.smoke ? 0.01 : 1.0);
  const double prepare_s = seconds_between(t0, Clock::now());
  Pass pass = w.run(traced);
  pass.traced = traced;
  pass.setup_s += prepare_s;
  pass.total_s = seconds_between(t0, Clock::now());
  pass.call_p50_us = util::percentile(pass.call_us, 50.0);
  pass.call_p99_us = util::percentile(std::move(pass.call_us), 99.0);
  pass.call_us = {};
  return pass;
}

util::json::Value pass_json(const Pass& p) {
  return util::json::Object{
      {"traced", p.traced},
      {"setup_s", p.setup_s},
      {"op_wall_s", p.op_wall_s},
      {"ops", p.ops},
      {"ops_per_s", per(static_cast<double>(p.ops), p.op_wall_s)},
      {"call_p50_us", p.call_p50_us},
      {"call_p99_us", p.call_p99_us},
      {"failed", p.failed},
  };
}

// End-to-end values are the fastest quartile of the timed passes: the 25th
// percentile of times and the 75th of rates. On a shared host, neighbours
// slow every memory-bound loop by up to 1.5x for seconds at a time; the
// median of a 15-second run then swings with how much of it was contended,
// while the fastest quartile stays at the uncontended speed, which only the
// code moves.
constexpr double kFastQuartile = 25.0;

// Runs one workload; returns true when every check passed.
bool run_workload(const RunConfig& cfg) {
  const auto entry = std::find_if(workloads().begin(), workloads().end(),
                                  [&](const WorkloadEntry& e) { return cfg.workload == e.name; });
  if (entry == workloads().end()) {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
  const std::unique_ptr<Workload> w = entry->make();

  // A warm-up pass, then timed passes (or untraced/traced pairs) while the
  // next one, predicted to last as long as the last one, fits the budget.
  std::vector<Pass> passes = {timed(*w, cfg, false)};
  const std::size_t per_round = cfg.trace ? 2 : 1;
  const std::size_t min_rounds = cfg.smoke ? 1 : cfg.trace ? 2 : 3;
  const auto start = Clock::now();
  for (std::size_t rounds = 0;; ++rounds) {
    const double next_s = static_cast<double>(per_round) * passes.back().total_s;
    if (rounds >= min_rounds && seconds_between(start, Clock::now()) + next_s > cfg.seconds) {
      break;
    }
    passes.push_back(timed(*w, cfg, false));
    if (cfg.trace) passes.push_back(timed(*w, cfg, true));
  }

  // Checks: each pass's own, and an exact repeat of the warm-up's fingerprint.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    for (const auto& f : p.failures) failures.push_back("pass " + std::to_string(i) + ": " + f);
    for (std::size_t k = 0; k < p.fingerprint.size(); ++k) {
      if (p.fingerprint[k] != passes[0].fingerprint[k]) {
        failures.push_back("pass " + std::to_string(i) + ": " + p.fingerprint[k].first +
                           " differs from the warm-up pass");
      }
    }
    if (i == 0) continue;
    attempted += p.ops;
    failed += p.failed;
  }

  std::vector<std::pair<const MetricDef*, double>> metrics;
  if (!cfg.trace) {
    std::vector<double> setups = {passes[0].setup_s};
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (std::size_t i = 1; i < passes.size(); ++i) {
      setups.push_back(passes[i].setup_s);
      rates.push_back(per(static_cast<double>(passes[i].ops), passes[i].op_wall_s));
      p50s.push_back(passes[i].call_p50_us);
      p99s.push_back(passes[i].call_p99_us);
    }
    // The fastest quartile of passes: see kFastQuartile.
    const double values[] = {util::percentile(std::move(setups), kFastQuartile),
                             util::percentile(std::move(rates), 100.0 - kFastQuartile),
                             util::percentile(std::move(p50s), kFastQuartile),
                             util::percentile(std::move(p99s), kFastQuartile),
                             passes.back().rib_bytes_per_prefix};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    std::map<std::string, std::vector<double>> layer;
    std::vector<double> traced_cost;
    std::vector<double> plain_cost;
    for (std::size_t i = 1; i < passes.size(); ++i) {
      const double cost = per(passes[i].op_wall_s, static_cast<double>(passes[i].ops));
      (passes[i].traced ? traced_cost : plain_cost).push_back(cost);
      for (const auto& [name, value] : passes[i].layer) layer[name].push_back(value);
    }
    layer["bench.trace_overhead_frac"] = {per(median(traced_cost), median(plain_cost)) - 1.0};
    for (const MetricDef& def : kPerLayer) {
      const auto it = layer.find(def.name);
      metrics.emplace_back(&def, it == layer.end() ? 0.0 : median(it->second));
    }
  }

  const bool correct = failures.empty() && failed == 0;
  std::printf("# workload %s seed %llu %s, %zu timed passes after 1 warm-up, %u cpus, %s, %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced", passes.size() - 1,
              std::thread::hardware_concurrency(), compiler_id().c_str(), DBGP_BUILD_TYPE);
  for (const auto& [def, value] : metrics) {
    std::printf("%s %.17g %s\n", def->name, value, def->unit);
  }
  std::printf("attempted %llu\nfailed %llu\ncorrect %s\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              correct ? "true" : "false");
  for (const auto& f : failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());

  if (!cfg.out.empty()) {
    util::json::Object provenance = {
        {"nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency())},
        {"compiler", compiler_id()},
        {"build_type", DBGP_BUILD_TYPE},
        {"repetitions", static_cast<std::uint64_t>(passes.size() - 1)},
        {"warmup", true},
        {"seconds", cfg.seconds},
    };
    util::json::Object values;
    for (const auto& [def, value] : metrics) {
      values.emplace_back(def->name, util::json::Object{{"value", value}, {"unit", def->unit}});
    }
    util::json::Array samples;
    for (const Pass& p : passes) samples.push_back(pass_json(p));
    util::json::Object doc = {
        {"workload", cfg.workload},
        {"seed", cfg.seed},
        {"trace", cfg.trace},
        {"correct", correct},
        {"attempted", attempted},
        {"failed", failed},
        {"failures", util::json::Array(failures.begin(), failures.end())},
        {"provenance", provenance},
        {"metrics", values},
        {"passes", samples},
    };
    util::json::write_file(cfg.out, doc);
  }
  return correct;
}

// Every workload at ~1% size, untraced then traced, one pass each after the
// warm-up: a seconds-long check that the benchmark still runs and passes.
bool smoke() {
  bool ok = true;
  for (const WorkloadEntry& e : workloads()) {
    for (const bool trace : {false, true}) {
      RunConfig cfg;
      cfg.workload = e.name;
      cfg.seconds = 0.0;
      cfg.trace = trace;
      cfg.smoke = true;
      ok = run_workload(cfg) && ok;
    }
  }
  return ok;
}

}  // namespace
}  // namespace dbgp::perfbench

int main(int argc, char** argv) {
  using namespace dbgp;
  util::Flags flags;
  flags.allow({"workload", "seed", "seconds", "trace", "out", "list", "smoke"});
  std::string error;
  if (!flags.parse(argc, argv, error)) {
    std::fprintf(stderr, "dbgp_benchmark: %s\n", error.c_str());
    return 2;
  }
  try {
    if (flags.get_bool("list", false)) {
      for (const auto& e : perfbench::workloads()) std::printf("%s\n", e.name);
      return 0;
    }
    if (flags.get_bool("smoke", false)) return perfbench::smoke() ? 0 : 3;
    perfbench::RunConfig cfg;
    cfg.workload = flags.get_string("workload", "");
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    cfg.seconds = flags.get_double("seconds", 10.0);
    cfg.trace = flags.get_bool("trace", false);
    cfg.out = flags.get_string("out", "");
    return perfbench::run_workload(cfg) ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dbgp_benchmark: %s\n", e.what());
    return 2;
  }
}
