#include "probes.h"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace dbgp::perfbench {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Stage of the interval between a marked call's consecutive events. The
// earlier event decides, except where the next one tells two stages apart.
Stage in_call_stage(Event prev, Event next) noexcept {
  switch (prev) {
    case Event::kCallEnter:
      return next == Event::kImportFront ? Stage::kFrameIn : Stage::kIaDb;
    case Event::kImportFront:
      return Stage::kImportFilter;
    case Event::kImportEnter:
      return Stage::kProtoImport;
    case Event::kBetterEnter:
      return Stage::kBetter;
    case Event::kBetterExit:
    case Event::kNotifyEnter:
    case Event::kNotifyExit:
      return next == Event::kAnnotateEnter ? Stage::kFactory : Stage::kDecision;
    case Event::kAnnotateEnter:
      return Stage::kAnnotate;
    case Event::kAnnotateExit:
      return next == Event::kExportProbe ? Stage::kExportFilter : Stage::kFanout;
    case Event::kExportProbe:
      return Stage::kFanout;
    default:  // kImportBack, kImportExit (and kCallExit, never in a call)
      return Stage::kIaDb;
  }
}

// Outside a marked call only matched pairs are attributable.
bool bracketed_stage(Event prev, Event next, Stage& stage) noexcept {
  struct Bracket {
    Event open;
    Event close;
    Stage stage;
  };
  static constexpr Bracket kBrackets[] = {
      {Event::kImportFront, Event::kImportBack, Stage::kImportFilter},
      {Event::kImportEnter, Event::kImportExit, Stage::kProtoImport},
      {Event::kBetterEnter, Event::kBetterExit, Stage::kBetter},
      {Event::kNotifyEnter, Event::kNotifyExit, Stage::kDecision},
      {Event::kAnnotateEnter, Event::kAnnotateExit, Stage::kAnnotate},
      {Event::kAnnotateExit, Event::kExportProbe, Stage::kExportFilter},
  };
  for (const Bracket& b : kBrackets) {
    if (prev == b.open && next == b.close) {
      stage = b.stage;
      return true;
    }
  }
  return false;
}

struct Recorder {
  ProbeTotals totals;
  Event last = Event::kCallExit;
  const void* last_speaker = nullptr;
  std::uint64_t last_ns = 0;
  bool in_call = false;

  void on(Event event, const void* speaker) noexcept {
    const std::uint64_t t = now_ns();
    ++totals.events[static_cast<std::size_t>(event)];
    if (in_call) {
      totals.stage_ns[static_cast<std::size_t>(in_call_stage(last, event))] += t - last_ns;
    } else if (Stage stage; speaker == last_speaker && bracketed_stage(last, event, stage)) {
      totals.stage_ns[static_cast<std::size_t>(stage)] += t - last_ns;
    }
    if (event == Event::kCallEnter) in_call = true;
    if (event == Event::kCallExit) in_call = false;
    last = event;
    last_speaker = speaker;
    last_ns = t;
  }
};

// Every thread's recorder, owned here rather than by the thread: a pool
// thread may exit before the totals are collected, and its numbers must
// survive it.
std::mutex g_recorders_mu;
std::vector<std::unique_ptr<Recorder>> g_recorders;

Recorder& local_recorder() {
  thread_local Recorder* recorder = [] {
    std::lock_guard<std::mutex> lock(g_recorders_mu);
    return g_recorders.emplace_back(std::make_unique<Recorder>()).get();
  }();
  return *recorder;
}

class EventScope {
 public:
  EventScope(Event enter, Event exit, const void* speaker) noexcept
      : exit_(exit), speaker_(speaker) {
    record(enter, speaker);
  }
  ~EventScope() { record(exit_, speaker_); }
  EventScope(const EventScope&) = delete;
  EventScope& operator=(const EventScope&) = delete;

 private:
  Event exit_;
  const void* speaker_;
};

class ProbedModule final : public core::DecisionModule {
 public:
  ProbedModule(std::unique_ptr<core::DecisionModule> inner, const void* speaker)
      : inner_(std::move(inner)), speaker_(speaker) {}

  ia::ProtocolId protocol() const noexcept override { return inner_->protocol(); }
  std::string name() const override { return inner_->name(); }

  bool import_filter(core::IaRoute& route) override {
    EventScope scope(Event::kImportEnter, Event::kImportExit, speaker_);
    return inner_->import_filter(route);
  }
  bool better(const core::IaRoute& a, const core::IaRoute& b) const override {
    EventScope scope(Event::kBetterEnter, Event::kBetterExit, speaker_);
    return inner_->better(a, b);
  }
  std::string explain_better(const core::IaRoute& winner,
                             const core::IaRoute& loser) const override {
    return inner_->explain_better(winner, loser);
  }
  void annotate_export(const core::IaRoute& best, ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override {
    EventScope scope(Event::kAnnotateEnter, Event::kAnnotateExit, speaker_);
    inner_->annotate_export(best, out, ctx);
  }
  void annotate_origin(ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override {
    EventScope scope(Event::kAnnotateEnter, Event::kAnnotateExit, speaker_);
    inner_->annotate_origin(out, ctx);
  }
  void on_best_changed(const net::Prefix& prefix, const core::IaRoute* best) override {
    EventScope scope(Event::kNotifyEnter, Event::kNotifyExit, speaker_);
    inner_->on_best_changed(prefix, best);
  }

 private:
  std::unique_ptr<core::DecisionModule> inner_;
  const void* speaker_;
};

core::GlobalFilterFn probe_filter(Event event, const void* speaker) {
  return [event, speaker](ia::IntegratedAdvertisement&, const core::FilterContext&) {
    record(event, speaker);
    return true;
  };
}

}  // namespace

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kFrameIn: return "core.frame_in";
    case Stage::kImportFilter: return "core.import_filter";
    case Stage::kIaDb: return "core.ia_db";
    case Stage::kProtoImport: return "protocols.import";
    case Stage::kBetter: return "protocols.better";
    case Stage::kDecision: return "core.decision";
    case Stage::kFactory: return "core.factory";
    case Stage::kAnnotate: return "protocols.annotate";
    case Stage::kExportFilter: return "core.export_filter";
    case Stage::kFanout: return "core.fanout";
    case Stage::kCount: break;
  }
  return "?";
}

void record(Event event, const void* speaker) noexcept { local_recorder().on(event, speaker); }

ProbeTotals collect_and_reset() {
  ProbeTotals sum;
  std::lock_guard<std::mutex> lock(g_recorders_mu);
  for (const auto& r : g_recorders) {
    for (std::size_t i = 0; i < kStageCount; ++i) sum.stage_ns[i] += r->totals.stage_ns[i];
    for (std::size_t i = 0; i < kEventCount; ++i) sum.events[i] += r->totals.events[i];
    *r = Recorder{};
  }
  return sum;
}

std::unique_ptr<core::DecisionModule> probed(std::unique_ptr<core::DecisionModule> inner,
                                             const void* speaker) {
  return std::make_unique<ProbedModule>(std::move(inner), speaker);
}

void install_filter_probes(core::DbgpSpeaker& speaker) {
  core::GlobalFilterChain& in = speaker.import_filters();
  if (in.size() != 1 || !in.remove("loop-detection")) {
    throw std::logic_error("install_filter_probes: unexpected import filter chain");
  }
  in.add("probe-front", probe_filter(Event::kImportFront, &speaker));
  in.add("loop-detection", core::loop_detection_filter());
  in.add("probe-back", probe_filter(Event::kImportBack, &speaker));
  speaker.export_filters().add("probe-export", probe_filter(Event::kExportProbe, &speaker));
}

}  // namespace dbgp::perfbench
