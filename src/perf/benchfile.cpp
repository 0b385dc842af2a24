#include "perf/benchfile.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "common/json.hpp"

namespace yoso::perf {

std::vector<std::pair<std::string, std::string>> read_bench_entries(const std::string& path) {
  std::vector<std::pair<std::string, std::string>> entries;
  std::ifstream in(path, std::ios::binary);
  if (!in) return entries;
  const std::string text(std::istreambuf_iterator<char>(in), {});
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) return entries;
  const json::Value doc = json::parse(text);
  if (!doc.is_object()) {
    throw std::invalid_argument("bench file " + path + ": top level is not an object");
  }
  for (const auto& [key, value] : doc.members) {
    json::Writer w;
    json::write(w, value);
    entries.emplace_back(key, w.take());
  }
  return entries;
}

namespace {

// Writes the entries back in the one-key-per-line layout.
void write_bench_entries(const std::string& path,
                         const std::vector<std::pair<std::string, std::string>>& entries) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << "{\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << '"' << json::Writer::escape(entries[i].first) << '"' << ": " << entries[i].second
        << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

}  // namespace

void merge_bench_json(const std::string& path, const std::string& key,
                      const std::string& value) {
  (void)json::parse(value);  // refuse to write a file we could not read back
  auto entries = read_bench_entries(path);
  bool replaced = false;
  for (auto& [k, v] : entries) {
    if (k == key) {
      v = value;
      replaced = true;
      break;
    }
  }
  if (!replaced) entries.emplace_back(key, value);
  write_bench_entries(path, entries);
  std::printf("[%s updated: key \"%s\"]\n", path.c_str(), key.c_str());
}

}  // namespace yoso::perf
