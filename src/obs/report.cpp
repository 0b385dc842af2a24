#include "obs/report.hpp"

#include "common/json.hpp"
#include "mpc/failure.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "yoso/bulletin.hpp"

namespace yoso::obs {

std::string run_metadata_json() {
  json::Writer w;
  w.begin_object();
  w.field("obs_generation", kObsGeneration);
#ifdef NDEBUG
  w.field("build", "release");
#else
  w.field("build", "debug");
#endif
  w.end_object();
  return w.take();
}

std::string run_report_json(const Bulletin& board, const FailureReport* failure) {
  json::Writer w;
  w.begin_object();
  w.key("meta").raw(run_metadata_json());
  w.key("board").raw(board.report_json());
  w.key("metrics").raw(metrics().report_json());
  // Per-primitive op counts with per-phase attribution (src/obs/profile.hpp).
  // Counts only — deterministic, so run reports stay byte-identical across
  // replays; measured self-times are `trace costs`' live table.
  w.key("op_costs").raw(profiler().snapshot().snapshot_json());
  if (failure != nullptr) w.key("failure").raw(failure->to_json());
  w.end_object();
  return w.take();
}

namespace {

bool fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

bool is_num(const json::Value* v) { return v != nullptr && v->is_number(); }

}  // namespace

bool validate_trace_json(const std::string& text, std::string* error) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    return fail(error, e.what());
  }
  if (!doc.is_object()) return fail(error, "document is not an object");
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail(error, "missing traceEvents array");
  }
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const json::Value& ev = events->items[i];
    const std::string at = " in event " + std::to_string(i);
    if (!ev.is_object()) return fail(error, "event is not an object" + at);
    const json::Value* name = ev.find("name");
    if (name == nullptr || !name->is_string()) return fail(error, "missing name" + at);
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string()) return fail(error, "missing ph" + at);
    const std::string& p = ph->text;
    if (p != "X" && p != "M" && p != "i" && p != "C" && p != "B" && p != "E") {
      return fail(error, "unknown ph '" + p + "'" + at);
    }
    if (!is_num(ev.find("pid")) || !is_num(ev.find("tid"))) {
      return fail(error, "missing pid/tid" + at);
    }
    if (p == "X") {
      const json::Value* ts = ev.find("ts");
      const json::Value* dur = ev.find("dur");
      if (!is_num(ts)) return fail(error, "X event missing ts" + at);
      if (!is_num(dur)) return fail(error, "X event missing dur" + at);
      if (ts->number < 0) return fail(error, "negative ts" + at);
      if (dur->number < 0) return fail(error, "negative dur" + at);
    }
  }
  return true;
}

}  // namespace yoso::obs
