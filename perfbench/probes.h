// Probes for the traced (--trace) benchmark runs.
//
// Every probe sits on a public seam of the speaker, so the library under test
// is unmodified: a DecisionModule decorator that forwards each hook to the
// real module, and pass-through filters at the front and back of the global
// import chain and at the back of the export chain. Each probe stamps an
// event (kind, steady-clock time, speaker) into a thread-local recorder, which
// attributes the interval since the previous event on that thread to exactly
// one stage as it goes — nothing is buffered, and pool threads of the sharded
// pipeline record into their own recorders.
//
// Inside a caller-marked call (call_enter/call_exit around one handle_frame),
// every interval is attributed, so the stage self-times sum to the call's
// wall time. Outside a marked call — the simulator's event loop, the pool
// threads — only intervals bracketed by a matching pair of probes on the same
// speaker (hook enter/exit, import front/back, annotate exit/export probe)
// are attributed; the rest is unobservable from outside and is left out.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "core/decision_module.h"
#include "core/speaker.h"

namespace dbgp::perfbench {

enum class Stage : std::uint8_t {
  kFrameIn,       // call entry -> first import filter: frame parse + IA decode
  kImportFilter,  // global import filter chain
  kIaDb,          // route staging: extractor, interning, IA-DB upsert
  kProtoImport,   // module import_filter hook
  kBetter,        // module better() hook
  kDecision,      // candidate scan and Loc-RIB update between better() calls
  kFactory,       // IA factory: copy of the best IA before annotate_export
  kAnnotate,      // module annotate_export / annotate_origin hooks
  kExportFilter,  // factory tail + global export filter chain
  kFanout,        // emit: frame cache, encode, delta suppression, adj-out
  kCount,
};
constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);
const char* stage_name(Stage stage) noexcept;

enum class Event : std::uint8_t {
  kCallEnter,
  kCallExit,
  kImportFront,
  kImportBack,
  kImportEnter,
  kImportExit,
  kBetterEnter,
  kBetterExit,
  kNotifyEnter,
  kNotifyExit,
  kAnnotateEnter,
  kAnnotateExit,
  kExportProbe,
  kCount,
};
constexpr std::size_t kEventCount = static_cast<std::size_t>(Event::kCount);

struct ProbeTotals {
  std::array<std::uint64_t, kStageCount> stage_ns{};
  std::array<std::uint64_t, kEventCount> events{};

  double stage_s(Stage s) const noexcept {
    return static_cast<double>(stage_ns[static_cast<std::size_t>(s)]) * 1e-9;
  }
  std::uint64_t count(Event e) const noexcept { return events[static_cast<std::size_t>(e)]; }
};

// Records one probe event on the calling thread. `speaker` identifies the
// speaker the event belongs to (bracketed attribution requires a match).
void record(Event event, const void* speaker) noexcept;

// Sums every thread's recorder and zeroes them. Call only while no probed
// code runs (between passes), so no recorder is being written.
ProbeTotals collect_and_reset();

// Wraps `inner` so each hook records enter/exit events for `speaker`.
std::unique_ptr<core::DecisionModule> probed(std::unique_ptr<core::DecisionModule> inner,
                                             const void* speaker);

// Rebuilds the speaker's import chain as probe-front, loop-detection,
// probe-back and appends an export probe. Throws std::logic_error when the
// import chain holds anything but the default loop-detection filter.
void install_filter_probes(core::DbgpSpeaker& speaker);

}  // namespace dbgp::perfbench
