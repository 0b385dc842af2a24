// One-key-per-line bench result files (BENCH_comm.json and friends).
//
// The file is a JSON object whose every top-level key sits on exactly one
// line ("key": <single-line value>), so independent benches each update
// their own key while a plain `git diff` still shows which experiment
// moved.  Unlike the hand-rolled line scanner this replaces, the file is
// read back through json::parse — a malformed file is an error, not a
// silent partial merge — and values are re-serialized through json::Writer
// so integers survive the round trip exactly.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace yoso::perf {

// Parses `path` and returns its top-level members in source order, each
// value re-serialized to a single line.  A missing or empty file yields an
// empty list; malformed JSON throws std::invalid_argument.
std::vector<std::pair<std::string, std::string>> read_bench_entries(const std::string& path);

// Replaces (or appends) one top-level key.  `value` must itself be valid
// JSON — it is parsed before the file is touched.
void merge_bench_json(const std::string& path, const std::string& key,
                      const std::string& value);

}  // namespace yoso::perf
