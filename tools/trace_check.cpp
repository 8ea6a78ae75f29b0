// trace_check — structural validator for exported Chrome trace-event JSON,
// structured event-log JSONL, and scenario files.
//
//   trace_check <trace.json|events.jsonl|scenario.dbgp> [more ...]
//
// Files ending in `.dbgp` are linted as scenario files: they must parse
// (which already enforces grammar, stanza exclusivity, and the dispute-wheel
// stanza's odd-ring/adoption-range rules), and a `dispute-wheel` stanza is
// additionally cross-checked against the rest of the file — the hub AS must
// not collide with the generated spoke range, and every `expect` must name
// an AS the wheel actually generates and the prefix it originates (the
// classic way a wheel scenario rots is an expectation against an AS number
// from an earlier spoke count).
//
// Files ending in `.jsonl` are validated as telemetry::EventLog exports:
// every non-empty line must be a self-contained JSON object carrying a
// non-negative numeric `time`, a known `kind` (session_up, session_down,
// chaos, reconvergence, oracle), numeric `as`/`peer_as`/`span`, and a string
// `detail`. Line order is write order, not time order (a reconvergence
// window is stamped at its end, which precedes the drain that closed it),
// so no monotonicity is demanded. Everything else is checked as a Chrome
// trace:
//
// The Perfetto exporter (telemetry/perfetto_export.h) is only useful if its
// output actually loads in chrome://tracing / ui.perfetto.dev, so this tool
// checks the invariants those viewers rely on:
//
//   * top level is an object with a `traceEvents` array;
//   * every event has `ph`, `pid`, `tid`, and (except metadata) `ts`;
//   * B/E/X/i events have a `name`; X events have a non-negative `dur`;
//   * timed events are sorted by `ts` (the exporter's contract);
//   * B/E pairs match per (pid, tid): every E closes an open B, none left
//     open at the end;
//   * flow events (`s`/`f`) have an `id`, and every `f` refers to an `id`
//     some `s` opened;
//   * frame spans (`cat: "frame"`) carry their per-hop stamps
//     (telemetry/causal.h): `args.detail` opens with the sender's
//     `bytes=<n>`, n > 0, and every receiver stamp `protocols=...` is
//     followed by its verdict, `understood` or `pass-through`.
//
// Exits 0 when every file passes, 1 on the first violation (with the file,
// event index, and reason), 2 on IO/parse errors. The dbgp_trace_check
// CMake target runs scenarios with dbgp_run --trace and pipes the results
// through this.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/parser.h"
#include "util/json.h"

namespace {

using dbgp::util::json::Value;

bool fail(const std::string& file, std::size_t index, const std::string& reason) {
  std::fprintf(stderr, "%s: event %zu: %s\n", file.c_str(), index, reason.c_str());
  return false;
}

// The stamp rule for one frame span's detail; returns the violation, or ""
// when the stamps are well formed.
std::string frame_stamp_error(const Value& ev) {
  const Value* args = ev.find("args");
  const Value* detail = args != nullptr ? args->find("detail") : nullptr;
  if (detail == nullptr || !detail->is_string()) return "frame span without detail";
  std::vector<std::string> tokens;
  std::stringstream in(detail->as_string());
  for (std::string token; std::getline(in, token, ',');) tokens.push_back(token);
  if (tokens.empty() || tokens[0].rfind("bytes=", 0) != 0 ||
      std::strtoull(tokens[0].c_str() + 6, nullptr, 10) == 0) {
    return "frame detail does not open with bytes=<n>, n > 0";
  }
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    if (tokens[t].rfind("protocols=", 0) != 0) continue;
    if (t + 1 == tokens.size() ||
        (tokens[t + 1] != "understood" && tokens[t + 1] != "pass-through")) {
      return "frame stamp '" + tokens[t] + "' without understood/pass-through";
    }
  }
  return "";
}

bool check_jsonl(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return false;
  }
  static const std::set<std::string> kKinds = {"session_up", "session_down", "chaos",
                                              "reconvergence", "oracle"};
  std::string line;
  std::size_t line_no = 0;
  std::size_t events = 0;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty()) continue;
    Value ev;
    try {
      ev = Value::parse(line);
    } catch (const std::exception& e) {
      return fail(path, line_no, std::string("bad JSON: ") + e.what());
    }
    if (!ev.is_object()) return fail(path, line_no, "line is not an object");
    const Value* time = ev.find("time");
    if (time == nullptr || !time->is_number() || time->as_double() < 0.0) {
      return fail(path, line_no, "missing/negative time");
    }
    const Value* kind = ev.find("kind");
    if (kind == nullptr || !kind->is_string()) return fail(path, line_no, "missing kind");
    if (kKinds.count(kind->as_string()) == 0) {
      return fail(path, line_no, "unknown kind '" + kind->as_string() + "'");
    }
    for (const char* field : {"as", "peer_as", "span"}) {
      const Value* v = ev.find(field);
      if (v == nullptr || !v->is_number()) {
        return fail(path, line_no, std::string("missing numeric ") + field);
      }
    }
    const Value* detail = ev.find("detail");
    if (detail == nullptr || !detail->is_string()) {
      return fail(path, line_no, "missing detail");
    }
    ++events;
  }
  std::printf("%s: OK (%zu events, jsonl)\n", path.c_str(), events);
  return true;
}

bool check_scenario(const std::string& path) {
  dbgp::scenario::Scenario scenario;
  try {
    scenario = dbgp::scenario::load_scenario(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return false;
  }
  if (scenario.dispute_wheel) {
    auto lint_fail = [&path](int line, const std::string& reason) {
      std::fprintf(stderr, "%s: line %d: %s\n", path.c_str(), line, reason.c_str());
      return false;
    };
    const auto& wheel = *scenario.dispute_wheel;
    const auto spoke_lo = static_cast<std::uint64_t>(wheel.first_spoke);
    const auto spoke_hi = spoke_lo + wheel.spokes;  // exclusive
    if (wheel.hub >= spoke_lo && wheel.hub < spoke_hi) {
      return lint_fail(wheel.line,
                       "dispute-wheel hub AS collides with the generated spoke range");
    }
    for (const auto& e : scenario.expectations) {
      const bool is_hub = e.asn == wheel.hub;
      const bool is_spoke = e.asn >= spoke_lo && e.asn < spoke_hi;
      if (!is_hub && !is_spoke) {
        return lint_fail(e.line, "expect names AS " + std::to_string(e.asn) +
                                     ", which the dispute wheel does not generate");
      }
      if (e.prefix != wheel.prefix) {
        return lint_fail(e.line, "expect names prefix " + e.prefix.to_string() +
                                     " but the wheel originates " +
                                     wheel.prefix.to_string());
      }
    }
    std::printf("%s: OK (dispute-wheel spokes=%zu fc-adoption=%.2f, %zu expectations)\n",
                path.c_str(), wheel.spokes, wheel.fc_adoption,
                scenario.expectations.size());
  } else {
    std::printf("%s: OK (scenario, %zu ASes, %zu expectations)\n", path.c_str(),
                scenario.ases.size(), scenario.expectations.size());
  }
  return true;
}

bool check_file(const std::string& path) {
  if (path.size() > 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0) {
    return check_jsonl(path);
  }
  if (path.size() > 5 && path.compare(path.size() - 5, 5, ".dbgp") == 0) {
    return check_scenario(path);
  }
  const Value doc = dbgp::util::json::parse_file(path);
  if (!doc.is_object()) return fail(path, 0, "top level is not an object");
  const Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail(path, 0, "missing traceEvents array");
  }

  // Open B spans per (pid, tid); open flow ids.
  std::map<std::pair<double, double>, std::vector<std::string>> open;
  std::set<double> flow_ids;
  double last_ts = 0.0;
  bool have_ts = false;
  std::size_t i = 0;
  for (const Value& ev : events->as_array()) {
    if (!ev.is_object()) return fail(path, i, "event is not an object");
    const Value* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string()) return fail(path, i, "missing ph");
    const std::string& phase = ph->as_string();
    const Value* pid = ev.find("pid");
    if (pid == nullptr || !pid->is_number()) return fail(path, i, "missing pid");

    if (phase == "M") {  // metadata: process-scoped entries carry no tid/ts
      ++i;
      continue;
    }
    const Value* tid = ev.find("tid");
    if (tid == nullptr || !tid->is_number()) return fail(path, i, "missing tid");
    const Value* ts = ev.find("ts");
    if (ts == nullptr || !ts->is_number()) return fail(path, i, "missing ts");
    if (have_ts && ts->as_double() < last_ts) {
      return fail(path, i, "ts not sorted (went backward)");
    }
    last_ts = ts->as_double();
    have_ts = true;

    const auto track = std::make_pair(pid->as_double(), tid->as_double());
    if (phase == "B" || phase == "E" || phase == "X" || phase == "i") {
      const Value* name = ev.find("name");
      if (name == nullptr || !name->is_string()) return fail(path, i, "missing name");
      if (phase == "B") {
        open[track].push_back(name->as_string());
      } else if (phase == "E") {
        auto& stack = open[track];
        if (stack.empty()) return fail(path, i, "E without matching B on track");
        stack.pop_back();
      } else if (phase == "X") {
        const Value* dur = ev.find("dur");
        if (dur == nullptr || !dur->is_number() || dur->as_double() < 0) {
          return fail(path, i, "X event without non-negative dur");
        }
        const Value* cat = ev.find("cat");
        if (cat != nullptr && cat->is_string() && cat->as_string() == "frame") {
          if (const std::string error = frame_stamp_error(ev); !error.empty()) {
            return fail(path, i, error);
          }
        }
      }
    } else if (phase == "s" || phase == "f") {
      const Value* id = ev.find("id");
      if (id == nullptr || !id->is_number()) return fail(path, i, "flow without id");
      if (phase == "s") {
        flow_ids.insert(id->as_double());
      } else if (flow_ids.count(id->as_double()) == 0) {
        return fail(path, i, "flow finish without matching start");
      }
    } else {
      return fail(path, i, "unknown phase '" + phase + "'");
    }
    ++i;
  }
  for (const auto& [track, stack] : open) {
    if (!stack.empty()) {
      return fail(path, i,
                  "unclosed B span '" + stack.back() + "' on tid " +
                      std::to_string(track.second));
    }
  }
  std::printf("%s: OK (%zu events)\n", path.c_str(), events->as_array().size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: trace_check <trace.json> [more.json ...]\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::fprintf(stderr, "trace_check: unknown flag %s\n", argv[i]);
      std::fprintf(stderr, "usage: trace_check <trace.json> [more.json ...]\n");
      return 2;
    }
  }
  try {
    for (int i = 1; i < argc; ++i) {
      if (!check_file(argv[i])) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
