// Unified run report + trace validation.
//
// run_report_json() is the one JSON document a run leaves behind: the board
// report (posts + ledger), the metrics registry snapshot, the op counts,
// and — when the run aborted — the structured FailureReport.  Every producer
// (tools/trace run, the chaos campaign) emits this same shape, so downstream
// tooling parses one schema.
//
// validate_trace_json() is the schema check behind `tools/trace check` and
// tests/obs_test: it parses a Chrome trace-event document and verifies the
// fields Perfetto actually requires.
#pragma once

#include <string>

namespace yoso {
class Bulletin;
struct FailureReport;
}  // namespace yoso

namespace yoso::obs {

// Observability schema generation.  Bumped whenever the shape of exported
// documents changes incompatibly (new op enum entries, new report keys):
// tools comparing two recordings (`trace diff`) warn when generations differ
// instead of reporting spurious behavioral deltas.
//   1 — compute observatory (per-primitive op counts, profile key)
//   2 — causality observatory (run metadata, codec ops, dag/critpath)
inline constexpr int kObsGeneration = 2;

// {"obs_generation":2,"build":"release|debug"}
// The self-describing header stamped into every report/trace document so
// cross-run comparisons know what produced them.
std::string run_metadata_json();

// {"meta":{...},"board":{...},"metrics":{...},"op_costs":{...}[,"failure":{...}]}
std::string run_report_json(const Bulletin& board, const FailureReport* failure = nullptr);

// Validates a Chrome trace-event JSON document:
//   * parses as an object with a `traceEvents` array;
//   * every event has string `name`/`ph` and numeric `pid`/`tid`;
//   * `ph` is one of X M i C B E;
//   * X events carry numeric ts >= 0 and dur >= 0.
// On failure returns false and, if `error` is non-null, a description.
bool validate_trace_json(const std::string& text, std::string* error = nullptr);

}  // namespace yoso::obs
